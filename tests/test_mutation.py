import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from virodyne.core import (
    AMINO_STATE_INDEX,
    CODON_AMINO,
    CODONS,
    CODON_INDEX,
    NUCLEOTIDES,
    translate,
)
from virodyne.errors import InvalidParams, InvalidWeights, NoData
from virodyne.mutation import (
    KimuraParams,
    SubstitutionMode,
    amino_matrix,
    codon_matrix,
    empirical_codon_weights,
    kimura_base_matrix,
    mutation_direction,
    uniform_codon_weights,
)
from virodyne.seqstat import Alphabet

from conftest import make_alignment

P = KimuraParams(q=1e-3, gamma=0.1)


class TestKimuraBase:
    def test_q_zero_is_identity(self):
        m = kimura_base_matrix(KimuraParams(0.0, 0.5)).matrix
        assert np.array_equal(m, np.eye(4))

    def test_stated_parameterization(self):
        m = kimura_base_matrix(P)
        assert m.prob("A", "G") == pytest.approx(1e-3, abs=0)
        assert m.prob("A", "C") == pytest.approx(1e-4, abs=0)
        assert m.prob("A", "T") == pytest.approx(1e-4, abs=0)
        assert m.prob("A", "A") == pytest.approx(0.9988, abs=1e-15)

    def test_symmetry(self):
        m = kimura_base_matrix(KimuraParams(0.01, 0.3)).matrix
        assert np.array_equal(m, m.T)

    def test_uniform_distribution_stationary(self):
        m = kimura_base_matrix(KimuraParams(0.02, 0.7)).matrix
        pi = np.full(4, 0.25)
        assert pi @ m == pytest.approx(pi, abs=1e-15)

    @given(st.floats(0.0, 0.2), st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_row_stochastic_for_valid_params(self, q, gamma):
        if q * (1 + 2 * gamma) > 1.0:
            return
        for mode in SubstitutionMode.ALL:
            m = kimura_base_matrix(KimuraParams(q, gamma), mode).matrix
            assert m.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)
            assert (m >= 0).all()

    def test_restricted_modes_preserve_mutation_mass(self):
        mass = P.mutation_mass
        ts = kimura_base_matrix(P, SubstitutionMode.TRANSITIONS_ONLY)
        tv = kimura_base_matrix(P, SubstitutionMode.TRANSVERSIONS_ONLY)
        assert ts.prob("A", "G") == pytest.approx(mass)
        assert ts.prob("A", "C") == 0.0
        assert tv.prob("A", "G") == 0.0
        assert tv.prob("A", "C") == pytest.approx(mass / 2)
        assert tv.prob("A", "T") == pytest.approx(mass / 2)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            KimuraParams(q=-1e-3, gamma=0.1)
        with pytest.raises(InvalidParams):
            KimuraParams(q=0.5, gamma=1.0)  # q (1 + 2 gamma) = 1.5


class TestCodonMatrix:
    def test_identity_base_gives_identity(self):
        base = kimura_base_matrix(KimuraParams(0.0, 0.0))
        assert np.array_equal(codon_matrix(base).matrix, np.eye(64))

    def test_kron_entries_match_brute_force(self):
        base = kimura_base_matrix(P).matrix
        cod = codon_matrix(kimura_base_matrix(P)).matrix
        idx = {b: i for i, b in enumerate(NUCLEOTIDES)}
        for i, ci in enumerate(CODONS):
            for j, cj in enumerate(CODONS):
                brute = (base[idx[ci[0]], idx[cj[0]]]
                         * base[idx[ci[1]], idx[cj[1]]]) \
                    * base[idx[ci[2]], idx[cj[2]]]
                assert cod[i, j] == brute

    def test_example_entry(self):
        cod = codon_matrix(kimura_base_matrix(P))
        assert cod.prob("CAA", "CAG") == pytest.approx(0.9988**2 * 1e-3,
                                                       rel=1e-12)

    def test_row_sums(self):
        cod = codon_matrix(kimura_base_matrix(KimuraParams(0.05, 0.4))).matrix
        assert np.abs(cod.sum(axis=1) - 1.0).max() <= 1e-12


class TestAminoMatrix:
    def test_identity_codon_gives_identity(self):
        base = kimura_base_matrix(KimuraParams(0.0, 0.0))
        am = amino_matrix(codon_matrix(base)).matrix
        assert np.allclose(am, np.eye(21))

    def test_diagonal_dominance_small_q(self):
        am = amino_matrix(codon_matrix(kimura_base_matrix(P)))
        qi = am.index("Q")
        row = am.matrix[qi]
        assert all(row[qi] > row[j] for j in range(21) if j != qi)

    def test_row_sums(self):
        am = amino_matrix(codon_matrix(kimura_base_matrix(P))).matrix
        assert np.abs(am.sum(axis=1) - 1.0).max() <= 1e-12

    def test_aggregation_matches_brute_force(self):
        cod = codon_matrix(kimura_base_matrix(P)).matrix
        w = uniform_codon_weights()
        am = amino_matrix(codon_matrix(kimura_base_matrix(P)), w).matrix
        brute = np.zeros((21, 21))
        for ci, c in enumerate(CODONS):
            a = AMINO_STATE_INDEX[translate(c)]
            for cj, c2 in enumerate(CODONS):
                b = AMINO_STATE_INDEX[translate(c2)]
                brute[a, b] += w[ci] * cod[ci, cj]
        assert np.abs(am - brute).max() <= 1e-12

    def test_weights_validated(self):
        w = uniform_codon_weights()
        w[CODON_INDEX["CAA"]] = 0.9  # Q class no longer sums to 1
        with pytest.raises(InvalidWeights):
            amino_matrix(codon_matrix(kimura_base_matrix(P)), w)

    def test_empirical_weights_normalize_and_fall_back(self):
        w = empirical_codon_weights({"CAA": 3, "CAG": 1})
        assert w[CODON_INDEX["CAA"]] == pytest.approx(0.75)
        assert w[CODON_INDEX["CAG"]] == pytest.approx(0.25)
        # unobserved class falls back to uniform
        gly = np.flatnonzero(CODON_AMINO == AMINO_STATE_INDEX["G"])
        assert w[gly[0]] == pytest.approx(1 / len(gly))


class TestMutationDirection:
    def test_q_column_transversions_rank_histidine_first(self, q_column_alignment):
        report = mutation_direction(q_column_alignment, 57, P, level="amino",
                                    mode=SubstitutionMode.TRANSVERSIONS_ONLY)
        assert report.targets[0].state == "H"
        # His collects two first-order paths per codon, runners-up one each
        # (the 2:1 ratio holds up to second-order substitution corrections)
        assert report.targets[0].probability == pytest.approx(
            2 * report.targets[1].probability, rel=5e-3)

    def test_q_column_transitions_mass_on_arg_and_stop(self, q_column_alignment):
        report = mutation_direction(q_column_alignment, 57, P, level="amino",
                                    mode=SubstitutionMode.TRANSITIONS_ONLY)
        nonsyn = [t for t in report.targets if t.state != "Q"]
        assert {nonsyn[0].state, nonsyn[1].state} == {"R", "*"}
        total = sum(t.probability for t in nonsyn)
        captured = sum(t.probability for t in nonsyn if t.state in ("R", "*"))
        assert captured / total >= 0.999

    def test_ranking_invariant_under_q_rescaling(self, q_column_alignment):
        for mode in SubstitutionMode.ALL:
            r3 = mutation_direction(q_column_alignment, 57,
                                    KimuraParams(1e-3, 0.1), "amino", mode)
            r9 = mutation_direction(q_column_alignment, 57,
                                    KimuraParams(1e-9, 0.1), "amino", mode)
            assert [t.state for t in r3.targets] == [t.state for t in r9.targets]

    def test_base_level_direction(self):
        aln = make_alignment(["A", "A", "A", "A"])
        report = mutation_direction(aln, 1, P, level="base")
        assert report.targets[0].state == "G"  # the transition partner
        assert report.targets[0].probability == pytest.approx(1e-3)

    def test_codon_level_direction(self, q_column_alignment):
        report = mutation_direction(q_column_alignment, 57, P, level="codon")
        # Single-transition neighbours dominate. CGA/CGG/TAA/TAG edge out the
        # synonymous CAA<->CAG flip because both source codons feed them
        # (one first-order path plus one second-order), while each synonymous
        # target is fed by exactly one source codon.
        top4 = {t.state for t in report.targets[:4]}
        assert top4 == {"CGA", "CGG", "TAA", "TAG"}
        assert report.targets[4].state in ("CAA", "CAG")

    def test_self_transitions_excluded(self, q_column_alignment):
        report = mutation_direction(q_column_alignment, 57, P, level="amino")
        q_entry = next(t for t in report.targets if t.state == "Q")
        # only the CAA<->CAG synonymous flip mass remains on Q, far below
        # its ~0.998 self-transition probability
        assert q_entry.probability < 5e-3

    def test_protein_alignment_with_uniform_fallback(self):
        rows = ["Q" * 60 for _ in range(4)]
        aln = make_alignment(rows, alphabet=Alphabet.AMINO)
        report = mutation_direction(aln, 57, P, level="amino",
                                    mode=SubstitutionMode.TRANSVERSIONS_ONLY)
        assert report.targets[0].state == "H"

    def test_masked_only_column_raises(self):
        rows = ["GCT" * 56 + "---" + "GCT" * 3 for _ in range(4)]
        aln = make_alignment(rows)
        with pytest.raises(NoData):
            mutation_direction(aln, 57, P, level="amino")

    def test_report_is_deterministic(self, q_column_alignment):
        a = mutation_direction(q_column_alignment, 57, P, level="amino")
        b = mutation_direction(q_column_alignment, 57, P, level="amino")
        assert a == b
