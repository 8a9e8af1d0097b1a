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

Monte-Carlo error probability and a plug-in mutual-information estimator
round out the metrics; trials are partitioned into fixed chunks with one
random stream each, so an estimate depends only on its inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import rng_stream
from .errors import EmptyObservation, MissingChannelModel
from .parallel import chunk_slices


@dataclass(frozen=True)
class ChannelImpulseResponse:
    """Expected received concentration per emitted symbol, one tap per
    symbol interval of memory."""

    taps: np.ndarray          # (L,), kg/m^3 per unit symbol
    symbol_interval: float    # s

    def __post_init__(self):
        taps = np.atleast_1d(np.asarray(self.taps, dtype=float))
        if taps.size < 1 or (taps < 0).any() or not np.isfinite(taps).all():
            raise ValueError("taps must be >= 0, finite, and non-empty")
        if self.symbol_interval <= 0:
            raise ValueError("symbol_interval must be > 0")
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
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


@dataclass(frozen=True)
class PoissonNoise:
    """Particle-counting noise: the sensor counts k ~ Poisson(alpha * c) and
    reports k / alpha, with alpha particles per unit concentration."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


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
        if self.theta is not None and self.theta < 0:
            raise ValueError("theta must be >= 0")


@dataclass(frozen=True)
class SequenceML:
    """Maximum-likelihood sequence detection over the full frame."""


@dataclass(frozen=True)
class NonCoherentDifference:
    """Decide on the first difference of consecutive samples; needs no
    channel model."""

    theta_delta: float


DetectorMode = Union[SymbolThreshold, SequenceML, NonCoherentDifference]


@dataclass(frozen=True)
class DetectorConfig:
    mode: DetectorMode
    p1: float = 0.5  # prior probability of the "on" symbol (used by trials)

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

    Gaussian: -(y - x)^2 / 2 sigma^2. Poisson with k = rint(alpha y) counts
    and mean lam = alpha x: k log lam - lam - lgamma(k + 1), which is 0 for
    lam <= 0 and k = 0 and -inf for lam <= 0 and k != 0. log and lgamma are
    the exact math-module functions, applied elementwise.
    """
    if isinstance(noise, GaussianNoise):
        return -((y - x) ** 2) / (2.0 * noise.sigma**2)
    k = np.rint(noise.alpha * y)
    lam = noise.alpha * x
    live = lam > 0.0
    log_lam = np.zeros(lam.shape)
    log_lam[live] = _log(lam[live])
    ll = k * log_lam - lam - _lgamma(k + 1.0).astype(float)
    return np.where(live, ll, np.where(k != 0, -np.inf, 0.0))


def _sequence_loglik(y: np.ndarray, bits: np.ndarray,
                     cir: ChannelImpulseResponse, noise: NoiseModel) -> float:
    x = modulate(bits, cir)
    n = min(x.size, y.size)
    return float(_sample_loglik(y[:n], x[:n], noise).sum())


def _convolve_rows(bits: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Row-wise linear convolution: (C, n) bits -> (C, n + L - 1) samples."""
    c, n = bits.shape
    out = np.zeros((c, n + taps.size - 1))
    for l, tap in enumerate(taps):
        out[:, l:l + n] += tap * bits
    return out


def _viterbi(y: np.ndarray, n_bits: int, cir: ChannelImpulseResponse,
             noise: NoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood bits behind each received frame (Forney 1973).

    y holds F frames of n_bits + L - 1 samples; returns the (F, n_bits) bits
    and each frame's log-likelihood. A state is the last L - 1 bits, the
    newest in bit 0, and the history before a frame is all zeros. Tail
    samples pin the bit to 0. On equal metrics the predecessor whose
    dropped (oldest) bit is 0 wins, then the lowest end state.
    """
    taps = cir.taps
    mem = taps.size - 1
    n_frames, n_samples = y.shape
    # Branch (next state s, dropped bit d): the L-bit window w = s | d << mem,
    # newest bit in bit 0, comes from state w >> 1 and expects sample x[w].
    window = np.arange(1 << mem)[:, None] | (np.arange(2) << mem)
    newest = window & 1
    x = newest * taps[0]
    for l in range(1, mem + 1):
        x = x + taps[l] * ((window >> l) & 1)
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


def detect(frame: ReceivedFrame, cir: ChannelImpulseResponse | None,
           config: DetectorConfig) -> DetectionResult:
    """Decide the transmitted bits behind a received frame.

    With a channel model, the decided frame length is
    len(samples) - (L - 1); without one, every sample yields a decision.
    """
    y = frame.samples
    mode = config.mode
    if isinstance(mode, SymbolThreshold):
        if mode.theta is None:
            if cir is None:
                raise MissingChannelModel(
                    "default threshold needs a channel impulse response"
                )
            theta = default_threshold(cir)
        else:
            theta = mode.theta
        n = y.size - (cir.memory - 1) if cir is not None else y.size
        n = max(n, 0)
        bits = (y[:n] >= theta).astype(int)
        ll = (_sequence_loglik(y, bits, cir, frame.noise)
              if cir is not None else 0.0)
        return DetectionResult(bits=bits, log_likelihood=ll)
    if isinstance(mode, NonCoherentDifference):
        n = y.size - (cir.memory - 1) if cir is not None else y.size
        n = max(n, 0)
        prev = np.concatenate([[0.0], y[: n - 1]]) if n else np.zeros(0)
        bits = ((y[:n] - prev) >= mode.theta_delta).astype(int)
        return DetectionResult(bits=bits, log_likelihood=0.0)
    if isinstance(mode, SequenceML):
        if cir is None:
            raise MissingChannelModel("sequence detection needs a channel model")
        n_bits = y.size - (cir.memory - 1)
        if n_bits <= 0:
            return DetectionResult(bits=np.zeros(0, dtype=int), log_likelihood=0.0)
        bits, ll = _viterbi(y[None, :], n_bits, cir, frame.noise)
        return DetectionResult(bits=bits[0], log_likelihood=float(ll[0]))
    raise TypeError(f"unknown detector mode: {mode!r}")


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


def wilson_interval(errors: int, total: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
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
    """Empirical bit error rate over seeded Monte-Carlo trials.

    Each chunk of _FRAMES_PER_STREAM trials draws from its own
    (seed, chunk) stream, so the estimate depends only on the inputs and
    the seed. Returns the point estimate with a 95% Wilson interval.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if bits_per_frame < 1:
        raise ValueError("bits_per_frame must be >= 1")
    if not isinstance(config.mode, (SymbolThreshold, SequenceML, NonCoherentDifference)):
        raise TypeError(f"unknown detector mode: {config.mode!r}")

    def worker(chunk_idx: int, sl: slice) -> tuple[int, int, np.ndarray]:
        stream = rng_stream(seed, chunk_idx)
        n_frames = sl.stop - sl.start
        n = bits_per_frame
        if isinstance(config.mode, SequenceML):
            # Per frame, in stream order: its bits, then its noise.
            bits = np.empty((n_frames, n), dtype=int)
            noisy = np.empty((n_frames, n + cir.memory - 1))
            for f in range(n_frames):
                bits[f] = stream.uniform(size=n) < config.p1
                noisy[f] = apply_noise(modulate(bits[f], cir), noise, stream)
            decided, _ = _viterbi(noisy, n, cir, noise)
        else:
            bits = (stream.uniform(size=(n_frames, n)) < config.p1).astype(int)
            clean = _convolve_rows(bits.astype(float), cir.taps)
            noisy = apply_noise(clean, noise, stream)
            if isinstance(config.mode, SymbolThreshold):
                theta = (default_threshold(cir) if config.mode.theta is None
                         else config.mode.theta)
                decided = (noisy[:, :n] >= theta).astype(int)
            else:
                prev = np.concatenate([np.zeros((n_frames, 1)), noisy[:, :n - 1]],
                                      axis=1)
                decided = ((noisy[:, :n] - prev)
                           >= config.mode.theta_delta).astype(int)
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
    ratio = np.where(mask, p / (px * py), 1.0)
    return float((p[mask] * np.log2(ratio[mask])).sum())


def joint_counts(sent, decided, n_symbols: int = 2) -> np.ndarray:
    """Tally (sent, decided) pairs into an n x n count table."""
    s = np.asarray(sent, dtype=int)
    d = np.asarray(decided, dtype=int)
    if s.shape != d.shape:
        raise ValueError("sent and decided must have matching shapes")
    if s.size and (min(s.min(), d.min()) < 0 or max(s.max(), d.max()) >= n_symbols):
        raise ValueError(f"symbols must lie in [0, {n_symbols})")
    return np.bincount((n_symbols * s + d).ravel(),
                       minlength=n_symbols * n_symbols).reshape(n_symbols, n_symbols)


def impulse_response_from_scenario(
    env,
    source_position,
    receiver_position,
    rate_kg_s: float,
    symbol_interval: float,
    n_taps: int,
    samples_per_slot: int = 8,
) -> ChannelImpulseResponse:
    """Derive taps from the physical channel: tap l is the mean
    concentration at the receiver during slot l after a one-slot emission,
    whose field is the constant-rate field minus itself delayed one slot."""
    from .channel import unit_continuous_kernel
    from .core import as_position

    r0, r = (as_position(p).as_array() for p in (source_position, receiver_position))
    ts = symbol_interval * (np.arange(n_taps)[:, None]
                            + np.linspace(0.0, 1.0, samples_per_slot + 1))

    def field(taus: np.ndarray) -> np.ndarray:
        return rate_kg_s * unit_continuous_kernel(env, r0, r, taus.ravel()).reshape(taus.shape)

    taps = np.trapezoid(field(ts) - field(ts - symbol_interval), ts, axis=1) / symbol_interval
    return ChannelImpulseResponse(taps=taps, symbol_interval=symbol_interval)
