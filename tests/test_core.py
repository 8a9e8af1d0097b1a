import math

import pytest
from hypothesis import given, strategies as st

from virodyne.core import (
    AMINO_STATES,
    CODON_AMINO,
    CODONS,
    Position,
    STOP,
    Velocity,
    codons_for,
    rng_stream,
    seconds,
    translate,
)
from virodyne.channel import Environment
from virodyne.detection import (
    GaussianNoise,
    NonCoherentDifference,
    PoissonNoise,
    SymbolThreshold,
)
from virodyne.epidemic import Agent, EpidemicConfig
from virodyne.errors import InvalidResidue
from virodyne.mobility import RandomDirection, RandomWalk, RandomWaypoint, Trajectory

# Each class with one valid setting; the test below makes every float field
# in turn non-finite. A NaN setting that slipped through would decide
# silently (a BER of 0.489 from all-zero decisions, an epidemic that never
# infects) or fail later inside numpy.
VALID_SETTINGS = [
    (GaussianNoise, {"sigma": 0.5}),
    (PoissonNoise, {"alpha": 10.0}),
    (SymbolThreshold, {"theta": 0.5}),
    (NonCoherentDifference, {"theta_delta": 0.1}),
    (EpidemicConfig, {"dose_coefficient": 1.0, "latency": 0.0, "step": 1.0,
                      "horizon": 10.0}),
    (RandomWalk, {"step_len": 0.5, "step_dt": 1.0}),
    (RandomWaypoint, {"speed_min": 0.5, "speed_max": 1.5, "pause": 1.0}),
    (RandomDirection, {"speed": 1.0, "epoch": 10.0}),
    (Agent, {"agent_id": 0, "trajectory": Trajectory.static((0, 0, 0)),
             "emission_rate": 0.0, "breathing_rate": 1.0}),
    (Environment, {"diffusivity": 0.5}),
]


class TestUnitTypes:
    def test_position_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            Position(0.0, float("nan"), 0.0)
        with pytest.raises(ValueError):
            Position(float("inf"), 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cls, kwargs", VALID_SETTINGS,
                             ids=[c.__name__ for c, _ in VALID_SETTINGS])
    def test_settings_reject_non_finite(self, cls, kwargs, bad):
        cls(**kwargs)
        for name, value in kwargs.items():
            if isinstance(value, float):
                with pytest.raises(ValueError):
                    cls(**{**kwargs, name: bad})

    def test_seconds_non_negative(self):
        assert seconds(3.5) == 3.5 and seconds(2) == 2.0
        with pytest.raises(ValueError):
            seconds(-0.1)
        with pytest.raises(ValueError):
            seconds(float("nan"))

    def test_diffusivity_positive(self):
        assert Environment(40.0).diffusivity == 40.0
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="Diffusivity must be > 0"):
                Environment(bad)

    def test_velocity_finite(self):
        v = Velocity(1.0, -2.0, 0.5)
        assert v.speed == pytest.approx(math.sqrt(1 + 4 + 0.25))
        with pytest.raises(ValueError):
            Velocity(0.0, float("inf"), 0.0)


class TestGeneticCode:
    def test_paper_examples(self):
        assert translate("CAA") == "Q"
        assert translate("CAG") == "Q"
        assert translate("TAA") == STOP
        assert translate("ATG") == "M"

    # Frozen from the published standard genetic code table.
    @pytest.mark.parametrize("codon,aa", [
        ("TTT", "F"), ("TTA", "L"), ("TCT", "S"), ("TAT", "Y"), ("TGT", "C"),
        ("TGG", "W"), ("CTT", "L"), ("CCT", "P"), ("CAT", "H"), ("CGT", "R"),
        ("ATT", "I"), ("ACT", "T"), ("AAT", "N"), ("AAA", "K"), ("AGT", "S"),
        ("AGA", "R"), ("GTT", "V"), ("GCT", "A"), ("GAT", "D"), ("GAA", "E"),
        ("GGT", "G"), ("TAG", "*"), ("TGA", "*"),
    ])
    def test_standard_table_spot_checks(self, codon, aa):
        assert translate(codon) == aa

    def test_total_over_64_codons_image_is_21_states(self):
        # Every amino acid is encoded, and exactly the three canonical
        # codons stop.
        images = {translate(c) for c in CODONS}
        assert images == set(AMINO_STATES)
        assert len(CODONS) == 64
        assert codons_for(STOP) == ("TAA", "TAG", "TGA")

    def test_rna_and_lowercase_normalized(self):
        assert translate("aug") == "M"
        assert translate("UAA") == STOP

    def test_invalid_symbol(self):
        with pytest.raises(InvalidResidue):
            translate("AXG")
        with pytest.raises(InvalidResidue):
            translate("AT")

    def test_codons_for_inverts_translate(self):
        for aa in AMINO_STATES:
            for codon in codons_for(aa):
                assert translate(codon) == aa
        assert sum(len(codons_for(aa)) for aa in AMINO_STATES) == 64
        with pytest.raises(InvalidResidue):
            codons_for("B")

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            CODON_AMINO[0] = 0


class TestRngStream:
    def test_same_pair_same_sequence(self):
        a = rng_stream(0, 0).uniform(size=100)
        b = rng_stream(0, 0).uniform(size=100)
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = rng_stream(0, 0).uniform(size=100)
        b = rng_stream(0, 1).uniform(size=100)
        assert not (a == b).all()

    def test_streams_independent_of_creation_order(self):
        first = [rng_stream(7, k).uniform() for k in range(5)]
        second = [rng_stream(7, k).uniform() for k in reversed(range(5))]
        assert first == list(reversed(second))

    def test_per_stream_output_identical_across_thread_counts(self):
        from concurrent.futures import ThreadPoolExecutor

        def draw(k):
            return rng_stream(0, k).uniform(size=32).tolist()

        sequential = [draw(k) for k in range(16)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(draw, range(16)))
        assert threaded == sequential

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            rng_stream(-1, 0)
        with pytest.raises(ValueError):
            rng_stream(2**64, 0)
        rng_stream(2**64 - 1, 0)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 1000))
    def test_reproducible_for_any_pair(self, seed, stream_id):
        x = rng_stream(seed, stream_id).integers(0, 2**63)
        y = rng_stream(seed, stream_id).integers(0, 2**63)
        assert x == y
