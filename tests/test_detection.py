import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from virodyne import detection
from virodyne.core import rng_stream
from virodyne.detection import (
    ChannelImpulseResponse,
    DetectorConfig,
    GaussianNoise,
    NonCoherentDifference,
    PoissonNoise,
    ReceivedFrame,
    SequenceML,
    SymbolThreshold,
    _viterbi,
    apply_noise,
    default_threshold,
    detect,
    error_probability,
    exact_error_probability,
    joint_counts,
    modulate,
    mutual_information,
    wilson_interval,
)
from virodyne.errors import EmptyObservation, MissingChannelModel, VirodyneError

import detection_oracle

CIR1 = ChannelImpulseResponse(taps=[1.0])
CIR2 = ChannelImpulseResponse(taps=[2.0, 1.0])


def frame_logliks(y, cands, cir, noise):
    """Log-likelihood of received samples y under each candidate bit row,
    constant terms dropped as in detection."""
    cands = np.atleast_2d(cands)
    clean = np.zeros((cands.shape[0], cands.shape[1] + cir.memory - 1))
    for l, tap in enumerate(cir.taps):
        clean[:, l:l + cands.shape[1]] += tap * cands
    if isinstance(noise, GaussianNoise):
        return -((y - clean) ** 2).sum(axis=1) / (2 * noise.sigma**2)
    k = np.rint(noise.alpha * y)
    lam = noise.alpha * clean
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam > 0, k * np.log(lam) - lam
                         - np.array([math.lgamma(ki + 1.0) for ki in k]),
                         np.where(k != 0, -np.inf, 0.0))
    return terms.sum(axis=1)


def exhaustive_ml(y, n_bits, cir, noise):
    """Oracle: score all 2^n_bits frames (n_bits <= 12). Returns the best
    frame, its log-likelihood and whether it beats every other frame."""
    assert n_bits <= 12
    cands = (np.arange(2**n_bits)[:, None] >> np.arange(n_bits)[::-1]) & 1
    ll = frame_logliks(y, cands, cir, noise)
    order = np.argsort(ll)[::-1]
    best, second = ll[order[0]], (ll[order[1]] if ll.size > 1 else -np.inf)
    unique = best - second > 1e-9 * max(1.0, abs(best))
    return cands[order[0]], float(best), bool(unique)


class TestModulate:
    def test_all_zero(self):
        assert (modulate([0, 0, 0, 0], CIR2) == 0).all()

    def test_impulse_reproduces_taps(self):
        cir = ChannelImpulseResponse(taps=[3.0, 2.0, 1.0])
        assert modulate([1], cir) == pytest.approx([3.0, 2.0, 1.0])

    def test_hand_convolution(self):
        assert modulate([1, 0, 1], CIR2) == pytest.approx([2.0, 1.0, 2.0, 1.0])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            modulate([0, 2], CIR1)


class TestDetect:
    def test_noiseless_exact_recovery(self):
        # An explicit threshold needs no channel model.
        bits = np.array([1, 0, 1, 1, 0, 0, 1])
        frame = ReceivedFrame(modulate(bits, CIR1), GaussianNoise(0.1))
        for cir in (CIR1, None):
            out = detect(frame, cir, DetectorConfig(SymbolThreshold(0.5)))
            assert (out.bits == bits).all()
            assert out.log_likelihood == (0.0 if cir is None else pytest.approx(
                frame_logliks(frame.samples, bits, CIR1, frame.noise)[0], rel=1e-12))

    def test_default_threshold_is_midpoint(self):
        assert default_threshold(CIR2) == 1.0

    def test_sequence_ml_needs_channel(self):
        # So does the default threshold.
        frame = ReceivedFrame(np.zeros(4), GaussianNoise(1.0))
        for mode in (SequenceML(), SymbolThreshold()):
            with pytest.raises(MissingChannelModel):
                detect(frame, None, DetectorConfig(mode))

    def test_noncoherent_detects_rises(self):
        # rising edges decide 1 without any channel knowledge
        y = np.array([0.05, 1.1, 1.05, 0.1, 1.2])
        for cir in (None, CIR1):
            out = detect(ReceivedFrame(y, GaussianNoise(0.1)), cir,
                         DetectorConfig(NonCoherentDifference(0.5)))
            assert out.bits.tolist() == [0, 1, 0, 0, 1]
            assert out.log_likelihood == 0.0

    @pytest.mark.parametrize("mode, cir", [
        (SymbolThreshold(), CIR2), (SymbolThreshold(0.5), None),
        (NonCoherentDifference(0.5), None), (NonCoherentDifference(0.5), CIR2),
        (SequenceML(), CIR2),
    ])
    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_empty_and_one_sample_frames(self, mode, cir, n_samples):
        # With CIR2 one sample is all channel tail; with no model only the
        # empty frame decides nothing.
        frame = ReceivedFrame(np.full(n_samples, 1.5), PoissonNoise(4.0))
        out = detect(frame, cir, DetectorConfig(mode))
        n_bits = n_samples if cir is None else 0
        assert out.bits.shape == (n_bits,) and out.bits.dtype.kind == "i"
        assert type(out.log_likelihood) is float and out.log_likelihood == 0.0

    def test_exhaustive_equals_viterbi(self):
        stream = rng_stream(5, 0)
        noise = GaussianNoise(0.4)
        for _ in range(40):
            bits = (stream.uniform(size=9) < 0.5).astype(int)
            y = apply_noise(modulate(bits, CIR2), noise, stream)
            be, le, _ = exhaustive_ml(y, 9, CIR2, noise)
            out = detect(ReceivedFrame(y, noise), CIR2, DetectorConfig(SequenceML()))
            assert (be == out.bits).all()
            assert out.log_likelihood == pytest.approx(le, rel=1e-12)

    def test_viterbi_handles_frames_beyond_exhaustive_limit(self):
        # 24 bits is past what the oracle can enumerate: score the decided
        # frame and each of its one-bit neighbours instead.
        stream = rng_stream(14, 0)
        bits = (stream.uniform(size=24) < 0.5).astype(int)
        noise = GaussianNoise(0.05)
        y = apply_noise(modulate(bits, CIR2), noise, stream)
        out = detect(ReceivedFrame(y, noise), CIR2, DetectorConfig(SequenceML()))
        assert (out.bits == bits).all()
        neighbours = out.bits ^ np.eye(24, dtype=int)
        ll = frame_logliks(y, np.vstack([out.bits, neighbours]), CIR2, noise)
        assert out.log_likelihood == pytest.approx(ll[0], rel=1e-12)
        assert (ll[1:] < ll[0]).all()

    def test_exhaustive_equals_viterbi_poisson(self):
        stream = rng_stream(6, 0)
        noise = PoissonNoise(60.0)
        for _ in range(25):
            bits = (stream.uniform(size=7) < 0.5).astype(int)
            y = apply_noise(modulate(bits, CIR2), noise, stream)
            be, le, _ = exhaustive_ml(y, 7, CIR2, noise)
            out = detect(ReceivedFrame(y, noise), CIR2, DetectorConfig(SequenceML()))
            assert (be == out.bits).all()
            assert out.log_likelihood == pytest.approx(le, rel=1e-12)

    @given(taps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
           poisson=st.booleans(), level=st.floats(0.0, 1.0),
           p1=st.floats(0.05, 0.95), n_bits=st.integers(1, 12),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_trellis_matches_exhaustive_oracle(self, taps, poisson, level, p1,
                                               n_bits, seed):
        # alpha down to 1 and sigma up to 2: low counts make exact ties common.
        cir = ChannelImpulseResponse(taps=taps)
        noise = (PoissonNoise(1.0 + 59.0 * level) if poisson
                 else GaussianNoise(0.05 + 1.95 * level))
        stream = rng_stream(seed, 0)
        frames = []
        for _ in range(4):
            bits = (stream.uniform(size=n_bits) < p1).astype(int)
            frames.append(apply_noise(modulate(bits, cir), noise, stream))
        got_bits, got_ll = _viterbi(np.array(frames), n_bits, cir, noise)
        for y, b, ll in zip(frames, got_bits, got_ll):
            want_bits, want_ll, unique = exhaustive_ml(y, n_bits, cir, noise)
            assert ll == pytest.approx(want_ll, rel=1e-12)
            if unique:
                assert (b == want_bits).all()

    @pytest.mark.parametrize("taps, y, winner, rival", [
        # "10" and "01" both leave squared errors (0.25, 0, 0.25).
        ((1.0, 1.0), (0.5, 1.0, 0.5), [1, 0], [0, 1]),
        # One tap: the decided bit is the dropped bit.
        ((1.0,), (0.5,), [0], [1]),
    ])
    def test_tie_keeps_dropped_bit_zero(self, taps, y, winner, rival):
        cir = ChannelImpulseResponse(taps=taps)
        noise = GaussianNoise(0.5)
        ll = frame_logliks(np.array(y), [winner, rival], cir, noise)
        assert ll[0] == ll[1]
        out = detect(ReceivedFrame(y, noise), cir, DetectorConfig(SequenceML()))
        assert out.bits.tolist() == winner
        assert out.log_likelihood == ll[0]

    @pytest.mark.parametrize("noise", [GaussianNoise(0.4), PoissonNoise(3.0)])
    def test_threshold_loglik_scores_decided_bits(self, noise):
        stream = rng_stream(8, 0)
        bits = (stream.uniform(size=20) < 0.5).astype(int)
        y = apply_noise(modulate(bits, CIR2), noise, stream)
        out = detect(ReceivedFrame(y, noise), CIR2, DetectorConfig(SymbolThreshold(None)))
        want = frame_logliks(y, out.bits, CIR2, noise)[0]
        assert out.log_likelihood == pytest.approx(want, rel=1e-12)

    def test_count_at_zero_mean_is_impossible(self):
        # A first tap of 0 makes the mean 0 at sample 0 under every frame.
        cir = ChannelImpulseResponse(taps=[0.0, 1.0])
        frame = ReceivedFrame([0.5, 1.0, 0.0], PoissonNoise(2.0))
        for mode in (SequenceML(), SymbolThreshold(0.5)):
            assert detect(frame, cir, DetectorConfig(mode)).log_likelihood == -math.inf

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_threshold_scaling_equivariance(self, c):
        # scaling samples, taps, theta, sigma by c > 0 keeps decisions
        stream = rng_stream(12, 0)
        bits = (stream.uniform(size=32) < 0.5).astype(int)
        noise = GaussianNoise(0.6)
        y = apply_noise(modulate(bits, CIR2), noise, stream)
        base = detect(ReceivedFrame(y, noise), CIR2,
                      DetectorConfig(SymbolThreshold(1.0)))
        cir_s = ChannelImpulseResponse(taps=CIR2.taps * c)
        scaled = detect(ReceivedFrame(y * c, GaussianNoise(0.6 * c)), cir_s,
                        DetectorConfig(SymbolThreshold(1.0 * c)))
        assert (base.bits == scaled.bits).all()


class TestErrorProbability:
    def test_perfect_channel_zero(self):
        est = exact_error_probability(CIR1, DetectorConfig(SymbolThreshold(0.5)),
                                      GaussianNoise(1e-9), 8)
        assert est.ber == 0.0
        assert est.ci_low == 0.0

    def test_inverted_threshold_is_one(self):
        # Decide via a threshold no sample can reach: all-zero decisions,
        # so BER equals the fraction of 1 bits; with p1=1 that is 1.
        est = exact_error_probability(CIR1, DetectorConfig(SymbolThreshold(1e9), p1=1.0),
                                      GaussianNoise(0.1), 8)
        assert est.ber == 1.0
        assert est.ci_high == 1.0

    def test_gaussian_tail_oracle(self):
        for ratio in (1.0, 2.0):
            est = exact_error_probability(
                CIR1, DetectorConfig(SymbolThreshold(0.5)), GaussianNoise(1.0 / ratio), 1)
            expected = 0.5 * math.erfc(ratio / (2 * math.sqrt(2)))
            assert est.ber == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert est.ci_low <= expected <= est.ci_high

    def test_pure_guessing_limit(self):
        # sigma huge with equal priors: BER near 0.5
        est = exact_error_probability(CIR1, DetectorConfig(SymbolThreshold(0.5)),
                                      GaussianNoise(1e6), 4)
        assert est.ber == pytest.approx(0.5, abs=1e-6)

    def test_deterministic_per_seed(self):
        # Only sequence ML still draws random numbers.
        runs = [error_probability(CIR2, DetectorConfig(SequenceML()),
                                  GaussianNoise(0.9), 8, 1500, seed=s) for s in (7, 7, 8)]
        assert runs[0] == runs[1]
        assert runs[0].joint != runs[2].joint

    def test_sequence_beats_symbol_under_isi(self):
        noise = GaussianNoise(0.45)
        cir = ChannelImpulseResponse(taps=[1.0, 0.6])
        ml = error_probability(cir, DetectorConfig(SequenceML()), noise,
                               12, 1200, seed=3)
        th = exact_error_probability(cir, DetectorConfig(SymbolThreshold(None)),
                                     noise, 12)
        assert ml.ci_high < th.ber

    def test_tiny_sigma_keeps_sequence_ml_exact(self):
        # sigma^2 underflows to 0 at sigma = 1e-300; the scaled residual
        # does not, so every wrong frame scores -inf and none is chosen.
        est = error_probability(CIR2, DetectorConfig(SequenceML()),
                                GaussianNoise(1e-300), 8, 200, seed=1)
        assert est.ber == 0.0
        assert mutual_information(est.joint) > 0.99

    def test_wilson_interval_brackets(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0


# (mode, noise, taps, p1, bits_per_frame): multi-tap ISI throughout; frames
# shorter than the decision window; p1 of 0, 0.3 and 1; and Poisson
# thresholds with alpha * theta on an integer, where a count on the
# boundary decides. At alpha = 3 and theta = 1/3 the difference rule's float
# test k/3 - k'/3 >= 1/3 passes at k - k' = 1 for some k' and fails for
# others; a sum over k - k' alone reads 0.165 there, against 0.177.
EXACT_CASES = [
    (SymbolThreshold(None), GaussianNoise(0.4), (1.0, 0.5, 0.25), 0.3, 16),
    (SymbolThreshold(0.5), PoissonNoise(4.0), (1.0, 0.6, 0.3), 1.0, 2),
    (NonCoherentDifference(0.3), GaussianNoise(0.3), (1.0, 0.4), 0.0, 8),
    (NonCoherentDifference(1 / 3), PoissonNoise(3.0), (1.0, 0.5), 0.3, 8),
    (NonCoherentDifference(0.25), PoissonNoise(4.0), (1.0, 0.5, 0.2), 0.5, 2),
]


class TestExactErrorProbability:
    @pytest.mark.parametrize("mode, noise, taps, p1, n_bits", EXACT_CASES,
                             ids=["threshold-gauss", "threshold-poisson",
                                  "difference-gauss", "difference-poisson",
                                  "difference-poisson-short"])
    def test_matches_monte_carlo_oracle(self, mode, noise, taps, p1, n_bits):
        cir = ChannelImpulseResponse(taps=taps)
        config = DetectorConfig(mode, p1=p1)
        exact = exact_error_probability(cir, config, noise, n_bits)
        mc = detection_oracle.monte_carlo_error_probability(
            cir, config, noise, n_bits, trials=1_000_000 // n_bits, seed=11)
        assert mc.bits_total >= 999_990
        assert mc.ci_low <= exact.ber <= mc.ci_high
        assert exact.ci_low <= exact.ber <= exact.ci_high
        assert exact.ci_high - exact.ci_low < 1e-11
        assert sum(map(sum, exact.joint)) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        # The sent marginal is the prior, whatever the detector decides.
        assert sum(exact.joint[1]) == pytest.approx(p1, rel=0.0, abs=1e-12)

    def test_sequence_ml_has_no_exact_sum(self):
        with pytest.raises(TypeError):
            exact_error_probability(CIR2, DetectorConfig(SequenceML()),
                                    GaussianNoise(0.5), 8)
        with pytest.raises(TypeError):
            error_probability(CIR2, DetectorConfig(SymbolThreshold()),
                              GaussianNoise(0.5), 8, 10, seed=0)

    def test_tap_count_over_the_cap_raises_before_allocating(self):
        # 2^40 windows or trellis states: only a check made before any
        # allocation can answer at once.
        cir = ChannelImpulseResponse(taps=np.full(41, 0.1))
        noise = GaussianNoise(0.5)
        for mode in (SymbolThreshold(), NonCoherentDifference(0.1)):
            with pytest.raises(ValueError, match="41 taps"):
                exact_error_probability(cir, DetectorConfig(mode), noise, 8)
        with pytest.raises(ValueError, match="41 taps"):
            error_probability(cir, DetectorConfig(SequenceML()), noise, 8, 1, seed=0)
        with pytest.raises(ValueError, match="41 taps"):
            detect(ReceivedFrame(np.zeros(48), noise), cir, DetectorConfig(SequenceML()))

    @pytest.mark.parametrize("alpha", [1e20, 1e40, 1e300])
    def test_poisson_window_over_the_cap_raises_before_allocating(self, alpha):
        # At alpha = 1e20 the window spans about 1.5e11 counts; at 1e40 its
        # ends differ by less than a float's spacing there.
        cir = ChannelImpulseResponse(taps=[1.0])
        for mode in (SymbolThreshold(0.5), NonCoherentDifference(0.1)):
            with pytest.raises(ValueError, match=r"Poisson windows for alpha = .* over the"):
                exact_error_probability(cir, DetectorConfig(mode), PoissonNoise(alpha), 4)

    def test_poisson_draw_past_int64_names_alpha(self):
        with pytest.raises(ValueError, match=r"alpha = 1e\+19 puts a Poisson mean past 2\^62"):
            error_probability(CIR2, DetectorConfig(SequenceML()), PoissonNoise(1e19),
                              4, 1, seed=0)
        # More taps than an int64 window has bits still reach the trellis cap.
        with pytest.raises(ValueError, match="100 taps"):
            error_probability(ChannelImpulseResponse(taps=np.full(100, 0.1)),
                              DetectorConfig(SequenceML()), PoissonNoise(4.0), 4, 1, seed=0)

    def test_levels_past_the_largest_float_name_the_taps(self):
        cir = ChannelImpulseResponse(taps=[1e308, 1e308])
        for mode in (SymbolThreshold(), NonCoherentDifference(0.1)):
            with pytest.raises(VirodyneError, match="taps sum past the largest float"):
                exact_error_probability(cir, DetectorConfig(mode), GaussianNoise(1.0), 4)
        with pytest.raises(VirodyneError, match="taps sum past the largest float"):
            error_probability(cir, DetectorConfig(SequenceML()), GaussianNoise(1.0),
                              4, 1, seed=0)

    def test_trellis_batches_leave_decisions_unchanged(self, monkeypatch):
        stream = rng_stream(4, 0)
        cir = ChannelImpulseResponse(taps=[1.0, 0.5, 0.25])
        noise = PoissonNoise(5.0)
        frames = np.array([apply_noise(modulate((stream.uniform(size=10) < 0.5)
                                                .astype(int), cir), noise, stream)
                           for _ in range(10)])
        whole = _viterbi(frames, 10, cir, noise)
        # Room for three frames per batch: 4 states x (12 samples + 48 x 12
        # in the log-likelihood block + 128).
        monkeypatch.setattr(detection, "_MAX_TABLE_BYTES", 3 * 4 * (12 + 48 * 12 + 128))
        batched = _viterbi(frames, 10, cir, noise)
        assert (batched[0] == whole[0]).all()
        assert (batched[1] == whole[1]).all()

    @pytest.mark.parametrize("block", [1, 4, 5, 11])
    def test_log_likelihood_blocks_leave_decisions_unchanged(self, monkeypatch, block):
        # Frames of 12 samples whose tail, samples 10 and 11, sits inside a
        # block (4), starts one (5) or spans two (11). The cap holds one
        # frame with its block's table, and not with a whole frame's table.
        stream = rng_stream(5, 0)
        cir = ChannelImpulseResponse(taps=[1.0, 0.5, 0.25])
        noise = GaussianNoise(1.0)
        frames = np.array([apply_noise(modulate((stream.uniform(size=10) < 0.5)
                                                .astype(int), cir), noise, stream)
                           for _ in range(20)])
        whole = _viterbi(frames, 10, cir, noise)
        monkeypatch.setattr(detection, "_LL_BLOCK", block)
        monkeypatch.setattr(detection, "_MAX_TABLE_BYTES", 4 * (12 + 48 * block + 128))
        blocked = _viterbi(frames, 10, cir, noise)
        assert (blocked[0] == whole[0]).all()
        assert (blocked[1] == whole[1]).all()


class TestMutualInformation:
    def test_independent_is_zero(self):
        assert mutual_information([[25, 25], [25, 25]]) == pytest.approx(0.0)

    def test_identity_channel_is_one_bit(self):
        assert mutual_information([[50, 0], [0, 50]]) == pytest.approx(1.0)

    def test_bsc_closed_form(self):
        # exact plug-in on the true BSC(0.1) joint distribution
        joint = np.array([[0.45, 0.05], [0.05, 0.45]]) * 1000
        h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        assert mutual_information(joint) == pytest.approx(1 - h2, abs=1e-12)

    def test_empty_counts_raise(self):
        with pytest.raises(EmptyObservation):
            mutual_information([[0, 0], [0, 0]])

    def test_non_negative_and_symmetric(self):
        rng = rng_stream(33, 0)
        for _ in range(50):
            counts = rng.integers(0, 50, size=(2, 2))
            if counts.sum() == 0:
                continue
            mi = mutual_information(counts)
            assert mi >= -1e-12
            assert mi == pytest.approx(mutual_information(counts.T), abs=1e-12)

    def test_data_processing_inequality(self):
        # MI(sent, decided) <= MI(sent, quantized raw samples) empirically.
        stream = rng_stream(17, 0)
        n = 100_000
        bits = (stream.uniform(size=n) < 0.5).astype(int)
        y = bits + stream.normal(0, 0.8, size=n)
        decided = (y >= 0.5).astype(int)
        edges = np.quantile(y, [0.25, 0.5, 0.75])
        quantized = np.digitize(y, edges)
        mi_decided = mutual_information(joint_counts(bits, decided))
        table = np.zeros((2, 4))
        np.add.at(table, (bits, quantized), 1)
        mi_quant = mutual_information(table)
        assert mi_decided <= mi_quant + 1e-3

    def test_joint_counts_equal_add_at(self):
        rng = rng_stream(21, 0)
        sent = rng.integers(0, 2, size=(64, 33))
        decided = rng.integers(0, 2, size=(64, 33))
        table = np.zeros((2, 2), dtype=np.int64)
        np.add.at(table, (sent.ravel(), decided.ravel()), 1)
        got = joint_counts(sent, decided)
        assert got.dtype == table.dtype
        assert (got == table).all()
        with pytest.raises(ValueError):
            joint_counts([0, 2], [0, 0])
        with pytest.raises(ValueError):
            joint_counts([0, 1], [-1, 0])

    def test_counts_validation(self):
        with pytest.raises(ValueError):
            mutual_information([[1, -1], [0, 0]])

    def test_probabilities_near_1e_300(self):
        # px py underflows to 0 in the rare row; its term is
        # 1e-300 log2(1e-300 / 1e-600).
        mi = mutual_information([[1.0, 0.0], [0.0, 1e-300]])
        assert mi == pytest.approx(1e-300 * math.log2(1e300), rel=1e-12)


class TestNoiseModels:
    def test_poisson_counts_scale(self):
        stream = rng_stream(1, 0)
        samples = np.full(20_000, 2.0)
        noisy = apply_noise(samples, PoissonNoise(alpha=50.0), stream)
        assert noisy.mean() == pytest.approx(2.0, rel=0.02)
        # reported values are counts / alpha
        assert np.allclose(noisy * 50.0, np.rint(noisy * 50.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNoise(0.0)
        with pytest.raises(ValueError):
            PoissonNoise(-1.0)
        # Past these bounds a difference's spread or a count's reading
        # k / alpha overflows a float.
        with pytest.raises(ValueError, match="sigma must be > 0 and at most"):
            GaussianNoise(sys.float_info.max)
        with pytest.raises(ValueError, match=r"alpha must be finite and >= 2\^63"):
            PoissonNoise(1e-300)
        with pytest.raises(ValueError):
            ChannelImpulseResponse(taps=[-0.1])
        with pytest.raises(ValueError):
            DetectorConfig(SymbolThreshold(0.5), p1=1.5)
