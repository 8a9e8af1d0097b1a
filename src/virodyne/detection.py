"""On-off-keying detection of infection status from receiver samples.

An infected individual emitting aerosol maps to the "on" symbol; a healthy
one to "off". The receiver samples ambient concentration once per symbol
interval; channel memory (taps of the impulse response) smears past symbols
into the current sample. Three detectors are provided:

* symbol threshold: y[n] >= theta decides 1 (the threshold is the
  receiver-side sensitivity knob, exposed as a plain parameter);
* sequence maximum likelihood: one Viterbi trellis over the last L - 1
  bits, batched over frames; on equal metrics it keeps the path whose
  dropped bit is 0, then the lowest end state;
* non-coherent first difference: decides on y[n] - y[n-1] without any
  channel model.

The metrics are the bit error rate and the mutual information of the
(sent, decided) table. For the two per-sample rules they are exact: a
decision sees only the last L (L + 1) bits, so the table is a finite sum
of noise tails over ISI patterns and frame positions, with a stated bound
on its truncation and rounding. Sequence ML has no closed form and is
scored by Monte-Carlo; its trials are partitioned into fixed chunks with
one random stream each, so an estimate depends only on its inputs and
seed. One byte cap bounds the trellis, the exact sum's pattern table and
its Poisson windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import rng_stream
from .errors import EmptyObservation, MissingChannelModel, VirodyneError
from .parallel import chunk_slices


@dataclass(frozen=True)
class ChannelImpulseResponse:
    """Expected received concentration per emitted symbol, one tap per
    symbol interval of memory."""

    taps: np.ndarray          # (L,), kg/m^3 per unit symbol

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=float))
        if taps.size < 1 or (taps < 0).any() or not np.isfinite(taps).all():
            raise ValueError("taps must be >= 0, finite, and non-empty")
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    @property
    def memory(self) -> int:
        return int(self.taps.size)


@dataclass(frozen=True)
class GaussianNoise:
    """Additive sensor noise with standard deviation sigma (kg/m^3)."""

    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma <= np.finfo(float).max / 2:  # so 2 sigma is a float
            raise ValueError("sigma must be > 0 and at most half the largest float")


@dataclass(frozen=True)
class PoissonNoise:
    """Particle-counting noise: the sensor counts k ~ Poisson(alpha * c) and
    reports k / alpha, with alpha particles per unit concentration."""

    alpha: float

    def __post_init__(self):
        # Every int64 count k, below 2^63, must read as a finite k / alpha.
        if not 2.0**63 / np.finfo(float).max <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 2^63 / the largest float")


NoiseModel = Union[GaussianNoise, PoissonNoise]


@dataclass(frozen=True)
class ReceivedFrame:
    samples: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.samples, dtype=float))
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class SymbolThreshold:
    """Decide 1 when the sample meets the threshold; None defers to the
    midpoint of the noiseless levels under the channel model."""

    theta: float | None = None

    def __post_init__(self):
        if self.theta is not None and not 0 <= self.theta < math.inf:
            raise ValueError("theta must be finite and >= 0")


@dataclass(frozen=True)
class SequenceML:
    """Maximum-likelihood sequence detection over the full frame."""


@dataclass(frozen=True)
class NonCoherentDifference:
    """Decide on the first difference of consecutive samples; needs no
    channel model."""

    theta_delta: float

    def __post_init__(self):
        if not math.isfinite(self.theta_delta):
            raise ValueError("theta_delta must be finite")


DetectorMode = Union[SymbolThreshold, SequenceML, NonCoherentDifference]


@dataclass(frozen=True)
class DetectorConfig:
    mode: DetectorMode
    p1: float = 0.5  # prior probability of the "on" symbol (used by the BER metrics)

    def __post_init__(self):
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError("p1 must lie in [0, 1]")


@dataclass(frozen=True)
class DetectionResult:
    bits: np.ndarray
    log_likelihood: float


def modulate(bits, cir: ChannelImpulseResponse) -> np.ndarray:
    """Noiseless expected samples: linear convolution of bits with the taps.

    Output length is len(bits) + L - 1; the tail carries the channel's
    memory of the final symbols.
    """
    b = np.atleast_1d(np.asarray(bits, dtype=float))
    if b.size and not np.isin(b, (0.0, 1.0)).all():
        raise ValueError("bits must be 0/1")
    if b.size == 0:
        return np.zeros(0)
    return np.convolve(b, cir.taps)


def apply_noise(samples: np.ndarray, noise: NoiseModel,
                stream: np.random.Generator) -> np.ndarray:
    if isinstance(noise, GaussianNoise):
        return samples + stream.normal(0.0, noise.sigma, size=samples.shape)
    counts = stream.poisson(np.maximum(noise.alpha * samples, 0.0))
    return counts / noise.alpha


def default_threshold(cir: ChannelImpulseResponse) -> float:
    # Midpoint between the noiseless isolated-0 and isolated-1 levels.
    return float(cir.taps[0]) / 2.0


_log = np.frompyfunc(math.log, 1, 1)
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _sample_loglik(y: np.ndarray, x: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Log-likelihood of each received sample y given its noiseless level x
    (arrays broadcast), constant terms dropped.

    Gaussian: -((y - x) / sigma)^2 / 2, scaled before squaring so that a
    tiny sigma does not underflow sigma^2 to 0; a square that overflows
    scores -inf, the exact limit as sigma -> 0. Poisson with k = rint(alpha
    y) counts and mean lam = alpha x: k log lam - lam - lgamma(k + 1), which
    is 0 for lam <= 0 and k = 0 and -inf for lam <= 0 and k != 0. log and
    lgamma are the exact math-module functions, applied elementwise.
    """
    if isinstance(noise, GaussianNoise):
        with np.errstate(over="ignore"):
            return -0.5 * ((y - x) / noise.sigma) ** 2
    k = np.rint(noise.alpha * y)
    lam = noise.alpha * x
    live = lam > 0.0
    log_lam = np.zeros(lam.shape)
    log_lam[live] = _log(lam[live])
    ll = k * log_lam - lam - _lgamma(k + 1.0).astype(float)
    return np.where(live, ll, np.where(k != 0, -np.inf, 0.0))


# The largest table one trellis batch or one exact sum may hold. A single
# frame, or an exact sum's pattern table or Poisson windows, that needs more
# raises ValueError before anything is allocated.
_MAX_TABLE_BYTES = 1 << 27


def _count_under_cap(nbytes: float, who: str, what: str) -> int:
    """How many tables of nbytes fit under _MAX_TABLE_BYTES; at least one,
    else ValueError naming who needs the table."""
    if not nbytes <= _MAX_TABLE_BYTES:  # inf included
        raise ValueError(f"{what} for {who} needs {nbytes / 2**20:.4g} MiB, "
                         f"over the {_MAX_TABLE_BYTES >> 20} MiB cap")
    return int(_MAX_TABLE_BYTES // nbytes)


def _levels(taps: np.ndarray, window: np.ndarray) -> np.ndarray:
    """The noiseless sample of each bit window, newest bit in bit 0: the sum
    of taps[l] over its set bits l, added from l = 0 up. A sum past the
    largest float raises VirodyneError."""
    with np.errstate(over="ignore"):
        x = taps[0] * (window & 1)
        for l in range(1, taps.size):
            x = x + taps[l] * ((window >> l) & 1)
    if not np.isfinite(x).all():
        raise VirodyneError("taps sum past the largest float; scale the taps down")
    return x


def _viterbi(y: np.ndarray, n_bits: int, cir: ChannelImpulseResponse,
             noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood bits behind each received frame (Forney 1973).

    y holds F frames of n_bits + L - 1 samples; returns the (F, n_bits) bits
    and each frame's log-likelihood. A state is the last L - 1 bits, the
    newest in bit 0, and the history before a frame is all zeros. Tail
    samples pin the bit to 0. On equal metrics the predecessor whose
    dropped (oldest) bit is 0 wins, then the lowest end state. Frames are
    decoded in batches that keep the trellis under _MAX_TABLE_BYTES.
    """
    taps = cir.taps
    mem = taps.size - 1
    n_frames, n_samples = y.shape
    # Per frame: one int8 back-pointer per state and sample, and about 16
    # float64 entries per state in the branch metrics and their temporaries.
    batch = _count_under_cap((1 << mem) * (n_samples + 128), f"{cir.memory} taps",
                             "one frame's trellis")
    if n_frames > batch:
        parts = [_viterbi(y[i:i + batch], n_bits, cir, noise)
                 for i in range(0, n_frames, batch)]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))
    # Branch (next state s, dropped bit d): the L-bit window w = s | d << mem,
    # newest bit in bit 0, comes from state w >> 1 and expects sample x[w].
    window = np.arange(1 << mem)[:, None] | (np.arange(2) << mem)
    newest = window & 1
    x = _levels(taps, window)
    prev = window >> 1
    metric = np.full((n_frames, 1 << mem), -np.inf)
    metric[:, 0] = 0.0
    back = np.empty((n_samples, n_frames, 1 << mem), dtype=np.int8)
    for i in range(n_samples):
        branch = metric[:, prev] + _sample_loglik(y[:, i, None, None], x, noise)
        if i >= n_bits:
            branch[:, newest == 1] = -np.inf
        take = branch[..., 1] > branch[..., 0]
        back[i] = take
        metric = np.where(take, branch[..., 1], branch[..., 0])
    frames = np.arange(n_frames)
    state = np.argmax(metric, axis=1)
    ll = metric[frames, state]
    bits = np.empty((n_frames, n_bits), dtype=int)
    for i in range(n_samples - 1, -1, -1):
        w = state | (back[i, frames, state].astype(np.intp) << mem)
        if i < n_bits:
            bits[:, i] = w & 1
        state = w >> 1
    return bits, ll


def _decide(frames: np.ndarray, n_bits: int, cir: ChannelImpulseResponse | None,
            mode: DetectorMode, noise: NoiseModel
            ) -> tuple[np.ndarray, np.ndarray | None]:
    """The (F, n_bits) bits behind F received frames, decided from their
    first n_bits samples, and each frame's log-likelihood under sequence ML
    (None for the per-sample rules)."""
    y = frames[:, :n_bits]
    if isinstance(mode, SymbolThreshold):
        if mode.theta is None:
            if cir is None:
                raise MissingChannelModel(
                    "default threshold needs a channel impulse response"
                )
            theta = default_threshold(cir)
        else:
            theta = mode.theta
        return (y >= theta).astype(int), None
    if isinstance(mode, NonCoherentDifference):
        prev = np.zeros(y.shape)
        prev[:, 1:] = y[:, :-1]
        return ((y - prev) >= mode.theta_delta).astype(int), None
    if isinstance(mode, SequenceML):
        if cir is None:
            raise MissingChannelModel("sequence detection needs a channel model")
        if n_bits <= 0:
            return np.zeros((len(frames), 0), dtype=int), np.zeros(len(frames))
        return _viterbi(frames, n_bits, cir, noise)
    raise TypeError(f"unknown detector mode: {mode!r}")


def detect(frame: ReceivedFrame, cir: ChannelImpulseResponse | None,
           config: DetectorConfig) -> DetectionResult:
    """Decide the transmitted bits behind a received frame.

    With a channel model, the decided frame length is
    len(samples) - (L - 1); without one, every sample yields a decision.
    """
    y = frame.samples
    n_bits = max(y.size - (cir.memory - 1), 0) if cir is not None else y.size
    bits, ll = _decide(y[None, :], n_bits, cir, config.mode, frame.noise)
    if ll is not None:
        ll = float(ll[0])
    elif isinstance(config.mode, SymbolThreshold) and cir is not None:
        x = modulate(bits[0], cir)[:y.size]
        ll = float(_sample_loglik(y[:x.size], x, frame.noise).sum())
    else:
        ll = 0.0
    return DetectionResult(bits=bits[0], log_likelihood=ll)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BerEstimate:
    ber: float
    ci_low: float
    ci_high: float
    bit_errors: int
    bits_total: int
    trials: int
    seed: int
    joint: tuple[tuple[int, int], tuple[int, int]]  # (sent, decided) counts


@dataclass(frozen=True)
class ExactBer:
    """Expected bit error rate of a per-sample detector; [ci_low, ci_high]
    is ber widened by the sum's truncation and rounding bound."""

    ber: float
    ci_low: float
    ci_high: float
    joint: tuple[tuple[float, float], tuple[float, float]]  # (sent, decided) probabilities


# Two-sided 95% standard-normal quantile.
_Z95 = 1.959963984540054


def wilson_interval(errors: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = _Z95
    if total <= 0:
        raise ValueError("total must be >= 1")
    p = errors / total
    denom = 1.0 + z**2 / total
    center = (p + z**2 / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z**2 / (4 * total**2)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == total else min(1.0, center + half)
    return lo, hi


# Frames per random stream in error_probability. Each chunk draws from its
# own (seed, chunk) stream, so changing this changes every seeded BER.
_FRAMES_PER_STREAM = 1024


def error_probability(
    cir: ChannelImpulseResponse,
    config: DetectorConfig,
    noise: NoiseModel,
    bits_per_frame: int,
    trials: int,
    seed: int,
) -> BerEstimate:
    """Empirical bit error rate of sequence ML over seeded Monte-Carlo
    trials; the per-sample detectors have exact_error_probability.

    Each chunk of _FRAMES_PER_STREAM trials draws from its own
    (seed, chunk) stream, per frame its bits and then its noise, so the
    estimate depends only on the inputs and the seed. Returns the point
    estimate with a 95% Wilson interval.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if bits_per_frame < 1:
        raise ValueError("bits_per_frame must be >= 1")
    if not isinstance(config.mode, SequenceML):
        raise TypeError(f"Monte-Carlo BER is for SequenceML; {config.mode!r} "
                        f"has exact_error_probability")
    if isinstance(noise, PoissonNoise):  # numpy draws int64 counts
        top = float(_levels(cir.taps, np.array([-1]))[0])  # -1 sets every bit
        if not noise.alpha * top <= 2.0**62:
            raise ValueError(f"alpha = {noise.alpha:g} puts a Poisson mean past 2^62")

    def worker(chunk_idx: int, sl: slice) -> tuple[int, int, np.ndarray]:
        stream = rng_stream(seed, chunk_idx)
        n_frames = sl.stop - sl.start
        n = bits_per_frame
        bits = np.empty((n_frames, n), dtype=int)
        noisy = np.empty((n_frames, n + cir.memory - 1))
        with np.errstate(over="ignore"):  # a reading past the largest float is inf
            for f in range(n_frames):
                bits[f] = stream.uniform(size=n) < config.p1
                noisy[f] = apply_noise(np.convolve(bits[f].astype(float), cir.taps),
                                       noise, stream)
        decided, _ = _viterbi(noisy, n, cir, noise)
        return int((decided != bits).sum()), bits.size, joint_counts(bits, decided)

    slices = chunk_slices(trials, _FRAMES_PER_STREAM)
    parts = [worker(i, sl) for i, sl in enumerate(slices)]
    bit_errors = sum(p[0] for p in parts)
    bits_total = sum(p[1] for p in parts)
    joint = sum((p[2] for p in parts), np.zeros((2, 2), dtype=np.int64))
    ber = bit_errors / bits_total
    lo, hi = wilson_interval(bit_errors, bits_total)
    return BerEstimate(ber=ber, ci_low=lo, ci_high=hi, bit_errors=bit_errors,
                       bits_total=bits_total, trials=trials, seed=seed,
                       joint=tuple(tuple(int(v) for v in row) for row in joint))


_EPS = 2.0**-52
# Mass a Poisson window may leave out on each side.
_TAIL = 2.0**-53
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _poisson_reach(lam: float) -> tuple[float, float]:
    """How far below and above lam the Poisson window of mean lam reaches.

    Bennett's inequality (Boucheron, Lugosi & Massart 2013, ch. 2) bounds
    the upper tail P(K >= lam + t) by exp(-t^2 / 2(lam + t/3)) and the
    lower tail P(K <= lam - t) by exp(-t^2 / 2 lam); the window leaves at
    most _TAIL on each side.
    """
    a = math.log(1.0 / _TAIL)
    return (min(lam, math.sqrt(2.0 * a * lam)),
            a / 3.0 + math.sqrt(a * a / 9.0 + 2.0 * a * lam))


def _poisson_window(lam: float) -> tuple[int, np.ndarray, float]:
    """(lo, pmf, err): Poisson(lam) probabilities of the counts lo, lo + 1,
    ... within _poisson_reach of lam, and a bound on the mass outside them
    plus each term's rounding. A term exp(k log lam - lam - lgamma(k + 1))
    is off by about eps times the size of its exponent's parts.
    """
    if lam == 0.0:
        return 0, np.ones(1), 0.0
    below, above = _poisson_reach(lam)
    lo, hi = math.floor(lam - below), math.ceil(lam + above)
    k = np.arange(lo, hi + 1, dtype=float)
    pmf = np.exp(k * math.log(lam) - lam - _lgamma(k + 1.0).astype(float))
    size = hi * abs(math.log(lam)) + lam + math.lgamma(hi + 1.0) + k.size
    return lo, pmf, 2.0 * _TAIL + 4.0 * _EPS * size


def _first_counts(y_prev: np.ndarray, theta: float, alpha: float,
                  lo: int, hi: int) -> np.ndarray:
    """Per y_prev, the least count k in [lo, hi + 1] with
    k / alpha - y_prev >= theta in the detector's own float arithmetic
    (hi + 1 when no count up to hi decides 1). The test is monotone in k."""
    with np.errstate(over="ignore"):  # a guess past the largest float is hi + 1
        k = np.clip(np.ceil(alpha * (theta + y_prev)), lo, hi + 1)
    while (down := (k > lo) & ((k - 1.0) / alpha - y_prev >= theta)).any():
        k = k - down
    while (up := (k <= hi) & (k / alpha - y_prev < theta)).any():
        k = k + up
    return k.astype(int) - lo


def _decision_tails(x: np.ndarray, x_prev: np.ndarray | None, theta: float,
                    noise: NoiseModel) -> tuple[np.ndarray, np.ndarray, float]:
    """P(decide 0) and P(decide 1) per entry, when the detector tests
    y - y_prev >= theta with y a noisy sample of level x and y_prev one of
    level x_prev (a noise-free 0 when x_prev is None), and a bound on
    their error."""
    if isinstance(noise, GaussianNoise):
        spread = 1.0 if x_prev is None else 2.0
        mean = x if x_prev is None else x - x_prev
        with np.errstate(over="ignore"):  # erfc's limits at z = +-inf are exact
            z = (theta - mean) / (noise.sigma * math.sqrt(2.0 * spread))
        return (0.5 * _erfc(-z).astype(float), 0.5 * _erfc(z).astype(float),
                8.0 * _EPS)
    # A Poisson sample at level 0 is the noise-free 0.
    with np.errstate(over="ignore"):  # an infinite mean is refused below
        lam = noise.alpha * np.stack([x, np.zeros_like(x) if x_prev is None else x_prev])
    pairs, inverse = np.unique(lam, axis=1, return_inverse=True)
    means = np.unique(pairs).tolist()
    # Widths from the reaches, which do not cancel at a huge mean as hi - lo
    # does; 128 bytes a count cover the pmf kept and the arrays that build it.
    _count_under_cap(128 * sum(sum(_poisson_reach(v)) + 2.0 for v in means),
                     f"alpha = {noise.alpha:g}", "the table of Poisson windows")
    windows = {v: _poisson_window(v) for v in means}
    p0, p1, err = np.empty(pairs.shape[1]), np.empty(pairs.shape[1]), 0.0
    for j, (lam_y, lam_prev) in enumerate(pairs.T.tolist()):
        lo, pmf, err_y = windows[lam_y]
        lo_prev, pmf_prev, err_prev = windows[lam_prev]
        y_prev = np.arange(lo_prev, lo_prev + pmf_prev.size) / noise.alpha
        k = _first_counts(y_prev, theta, noise.alpha, lo, lo + pmf.size - 1)
        below = np.concatenate(([0.0], np.cumsum(pmf)))[k]
        above = np.concatenate((np.cumsum(pmf[::-1])[::-1], [0.0]))[k]
        p0[j], p1[j] = pmf_prev @ below, pmf_prev @ above
        err = max(err, err_y + err_prev)
    inverse = inverse.reshape(-1)
    return p0[inverse], p1[inverse], err


def exact_error_probability(
    cir: ChannelImpulseResponse,
    config: DetectorConfig,
    noise: NoiseModel,
    bits_per_frame: int,
) -> ExactBer:
    """Expected bit error rate and (sent, decided) probabilities of the
    threshold or difference detector on frames of bits_per_frame bits,
    each 1 with probability p1, as finite sums.

    A decision sees only a window of the last L bits (L + 1 for the
    difference rule), and bits before the frame are 0. So the table is a
    sum over frame positions and windows of each window's probability times
    the noise tail that decides it (the classical ISI error sum; Proakis,
    Digital Communications, ch. 9): an erfc tail under Gaussian noise, and
    under Poisson noise a Poisson tail, or for the difference rule a
    Skellam tail summed over the previous count. Decisions follow _decide:
    the difference rule's first bit is tested against a noise-free 0, and
    Poisson counts are compared as k / alpha - k' / alpha >= theta, so a
    count on the boundary decides as the detector does.
    """
    if bits_per_frame < 1:
        raise ValueError("bits_per_frame must be >= 1")
    mode, taps = config.mode, cir.taps
    if isinstance(mode, SymbolThreshold):
        theta = default_threshold(cir) if mode.theta is None else mode.theta
        width = taps.size
    elif isinstance(mode, NonCoherentDifference):
        theta, width = mode.theta_delta, taps.size + 1
    else:
        raise TypeError(f"no exact error probability for {mode!r}")
    # About a dozen float64 arrays over the 2^width windows live at once.
    _count_under_cap(96 << width, f"{cir.memory} taps", "the pattern table")
    # Window w holds bit b[i - l] of position i in its bit l.
    window = np.arange(1 << width)
    level = _levels(taps, window)
    first = _decision_tails(level, None, theta, noise)
    rest = first if width == taps.size else _decision_tails(
        level, _levels(taps, window >> 1), theta, noise)
    sent = window & 1
    joint = np.zeros((2, 2))
    prior = np.ones(window.size)
    n_classes = min(bits_per_frame, width)
    for i in range(n_classes):
        # Position i has i + 1 bits of its own; the older window bits fall
        # before the frame and must be 0. Every position from width - 1 on
        # sees a full window.
        prior = prior * np.where((window >> i) & 1, config.p1, 1.0 - config.p1)
        weight = prior * ((window >> (i + 1)) == 0)
        count = bits_per_frame - i if i == width - 1 else 1
        p0, p1, _ = first if i == 0 else rest
        for s in (0, 1):
            w = weight * (sent == s)
            joint[s] += count * np.array([w @ p0, w @ p1])
    joint /= bits_per_frame
    # Rounding can lift the sum past 1 (by 1e-7 at a Poisson mean of 1e8).
    ber = min(float(joint[0, 1] + joint[1, 0]), 1.0)
    bound = max(first[2], rest[2]) + 2.0 * _EPS * n_classes * window.size
    return ExactBer(ber=ber, ci_low=max(0.0, ber - bound), ci_high=min(1.0, ber + bound),
                    joint=tuple(tuple(float(v) for v in row) for row in joint))


def mutual_information(joint_counts) -> float:
    """Plug-in mutual information (bits) from a joint count table.

    Rows index the sent symbol, columns the decided symbol; any rectangular
    table of non-negative counts is accepted.
    """
    counts = np.asarray(joint_counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("joint_counts must be a 2-D table")
    if (counts < 0).any():
        raise ValueError("counts must be >= 0")
    total = counts.sum()
    if total <= 0:
        raise EmptyObservation("mutual information needs at least one observation")
    p = counts / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    mask = p > 0
    # Where px py is below the normal floats (p near 1e-300), subtract logs.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_ratio = np.where(px * py >= np.finfo(float).tiny, np.log2(p / (px * py)),
                             np.log2(p) - np.log2(px) - np.log2(py))
    return float((p[mask] * log_ratio[mask]).sum())


def joint_counts(sent, decided) -> np.ndarray:
    """Tally (sent, decided) bit pairs into a 2 x 2 count table."""
    s = np.asarray(sent, dtype=int)
    d = np.asarray(decided, dtype=int)
    if s.shape != d.shape:
        raise ValueError("sent and decided must have matching shapes")
    if s.size and (min(s.min(), d.min()) < 0 or max(s.max(), d.max()) > 1):
        raise ValueError("symbols must lie in [0, 2)")
    return np.bincount((2 * s + d).ravel(), minlength=4).reshape(2, 2)


_SAMPLES_PER_SLOT = 8


def impulse_response_from_scenario(
    env,
    source_position,
    receiver_position,
    rate_kg_s: float,
    symbol_interval: float,
    n_taps: int,
) -> ChannelImpulseResponse:
    """Derive taps from the physical channel: tap l is the mean
    concentration at the receiver during slot l after a one-slot emission,
    one emission window of unit_continuous_kernel stopped after one slot.
    symbol_interval (s) sets the slot length; each slot's mean is the
    trapezoid rule over _SAMPLES_PER_SLOT + 1 equally spaced times. A source
    or receiver outside the region env's boundary declares raises
    OutOfDomain."""
    from .channel import check_inside, unit_continuous_kernel
    from .core import as_position

    r0, r = (as_position(p).as_array() for p in (source_position, receiver_position))
    check_inside(env.boundary, r0, "source point")
    check_inside(env.boundary, r, "receiver point")
    ts = symbol_interval * (np.arange(n_taps)[:, None]
                            + np.linspace(0.0, 1.0, _SAMPLES_PER_SLOT + 1))
    field = rate_kg_s * unit_continuous_kernel(
        env, r0, r, ts.ravel(), taus_end=np.maximum(ts - symbol_interval, 0.0).ravel())
    taps = np.trapezoid(field.reshape(ts.shape), ts, axis=1) / symbol_interval
    return ChannelImpulseResponse(taps=taps)
