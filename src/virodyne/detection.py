"""On-off-keying detection of infection status from receiver samples.

An infected individual emitting aerosol maps to the "on" symbol; a healthy
one to "off". The receiver samples ambient concentration once per symbol
interval; channel memory (taps of the impulse response) smears past symbols
into the current sample. Three detectors are provided:

* symbol threshold: y[n] >= theta decides 1 (the threshold is the
  receiver-side sensitivity knob, exposed as a plain parameter);
* sequence maximum likelihood: exhaustive search for short frames, a
  dynamic-programming trellis beyond, identical results where both apply;
* non-coherent first difference: decides on y[n] - y[n-1] without any
  channel model.

Monte-Carlo error probability and a plug-in mutual-information estimator
round out the metrics; trials are partitioned into fixed chunks with one
random stream each, so estimates are reproducible for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Union

import numpy as np

from . import parallel
from .core import rng_stream
from .errors import EmptyObservation, MissingChannelModel

_EXHAUSTIVE_LIMIT = 20  # frames up to this many bits may use brute-force ML


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


def _gaussian_loglik(y: np.ndarray, x: np.ndarray, sigma: float) -> float:
    # Constant terms dropped; only differences matter for detection.
    return float(-((y - x) ** 2).sum() / (2.0 * sigma**2))


def _poisson_loglik(y: np.ndarray, x: np.ndarray, alpha: float) -> float:
    k = np.rint(alpha * y)
    lam = alpha * x
    ll = 0.0
    for ki, li in zip(k, lam):
        if li <= 0.0:
            if ki > 0:
                return -math.inf
            continue
        ll += ki * math.log(li) - li - math.lgamma(ki + 1.0)
    return float(ll)


def _sequence_loglik(y: np.ndarray, bits: np.ndarray,
                     cir: ChannelImpulseResponse, noise: NoiseModel) -> float:
    x = modulate(bits, cir)
    n = min(x.size, y.size)
    if isinstance(noise, GaussianNoise):
        return _gaussian_loglik(y[:n], x[:n], noise.sigma)
    return _poisson_loglik(y[:n], x[:n], noise.alpha)


@lru_cache(maxsize=8)
def _candidate_bits_cached(n_bits: int) -> np.ndarray:
    return np.array(list(product((0, 1), repeat=n_bits)), dtype=float)


def _candidate_bits(n_bits: int) -> np.ndarray:
    # Keep only small tables resident; a 20-bit table alone is ~170 MB.
    if n_bits <= 14:
        return _candidate_bits_cached(n_bits)
    return np.array(list(product((0, 1), repeat=n_bits)), dtype=float)


def _convolve_rows(bits: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Row-wise linear convolution: (C, n) bits -> (C, n + L - 1) samples."""
    c, n = bits.shape
    out = np.zeros((c, n + taps.size - 1))
    for l, tap in enumerate(taps):
        out[:, l:l + n] += tap * bits
    return out


def _detect_sequence_exhaustive(y: np.ndarray, n_bits: int,
                                cir: ChannelImpulseResponse,
                                noise: NoiseModel) -> tuple[np.ndarray, float]:
    cands = _candidate_bits(n_bits)
    clean = _convolve_rows(cands, cir.taps)
    m = min(clean.shape[1], y.size)
    if isinstance(noise, GaussianNoise):
        ll = -((y[None, :m] - clean[:, :m]) ** 2).sum(axis=1) / (2 * noise.sigma**2)
    else:
        k = np.rint(noise.alpha * y[:m])
        lam = noise.alpha * clean[:, :m]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(lam > 0, k[None, :] * np.log(lam) - lam,
                             np.where(k[None, :] > 0, -np.inf, 0.0))
        ll = terms.sum(axis=1) - sum(math.lgamma(ki + 1.0) for ki in k)
    best = int(np.argmax(ll))
    return cands[best].astype(int), float(ll[best])


def _sample_metric(y_i: float, x_i: float, noise: NoiseModel) -> float:
    if isinstance(noise, GaussianNoise):
        return -((y_i - x_i) ** 2) / (2.0 * noise.sigma**2)
    k = round(noise.alpha * y_i)
    lam = noise.alpha * x_i
    if lam <= 0.0:
        return 0.0 if k == 0 else -math.inf
    return k * math.log(lam) - lam - math.lgamma(k + 1.0)


def _detect_sequence_viterbi(y: np.ndarray, n_bits: int,
                             cir: ChannelImpulseResponse,
                             noise: NoiseModel) -> tuple[np.ndarray, float]:
    """Trellis over the last (L-1) bits; processes all n_bits + L - 1
    samples, with the tail bits pinned to 0."""
    taps = cir.taps
    L = taps.size
    mem = L - 1
    n_states = 1 << mem
    n_samples = min(y.size, n_bits + mem)

    metric = np.full(n_states, -math.inf)
    metric[0] = 0.0  # history before the frame is all zeros
    back: list[np.ndarray] = []
    for i in range(n_samples):
        new_metric = np.full(n_states, -math.inf)
        choice = np.full(n_states, -1, dtype=int)
        allowed_bits = (0, 1) if i < n_bits else (0,)
        for state in range(n_states):
            if metric[state] == -math.inf:
                continue
            # state encodes bits b[i-1] ... b[i-mem], LSB = most recent.
            for b in allowed_bits:
                x_i = b * taps[0]
                for l in range(1, min(L, i + 1)):
                    x_i += taps[l] * ((state >> (l - 1)) & 1)
                m = metric[state] + _sample_metric(float(y[i]), float(x_i), noise)
                nxt = ((state << 1) | b) & (n_states - 1) if mem else 0
                if m > new_metric[nxt]:
                    new_metric[nxt] = m
                    choice[nxt] = (state << 1) | b
        back.append(choice)
        metric = new_metric
    end_state = int(np.argmax(metric))
    best_ll = float(metric[end_state])
    bits_rev = []
    state = end_state
    for i in range(n_samples - 1, -1, -1):
        full = back[i][state if mem else 0]
        b = full & 1
        if i < n_bits:
            bits_rev.append(int(b))
        state = (full >> 1) & (n_states - 1) if mem else 0
    bits = np.array(bits_rev[::-1], dtype=int)
    return bits, best_ll


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
        if n_bits <= _EXHAUSTIVE_LIMIT:
            bits, ll = _detect_sequence_exhaustive(y, n_bits, cir, frame.noise)
        else:
            bits, ll = _detect_sequence_viterbi(y, n_bits, cir, frame.noise)
        return DetectionResult(bits=bits, log_likelihood=ll)
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


def error_probability(
    cir: ChannelImpulseResponse,
    config: DetectorConfig,
    noise: NoiseModel,
    bits_per_frame: int,
    trials: int,
    seed: int,
    chunk_size: int = 1024,
) -> BerEstimate:
    """Empirical bit error rate over seeded Monte-Carlo trials.

    Each chunk of trials draws from its own (seed, chunk) stream and chunk
    boundaries are fixed, so the estimate is identical under any thread
    count. Returns the point estimate with a 95% Wilson interval.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if bits_per_frame < 1:
        raise ValueError("bits_per_frame must be >= 1")

    vector_mode = isinstance(config.mode, (SymbolThreshold, NonCoherentDifference))

    def worker(chunk_idx: int, sl: slice) -> tuple[int, int, np.ndarray]:
        stream = rng_stream(seed, chunk_idx)
        n_frames = sl.stop - sl.start
        table = np.zeros((2, 2), dtype=np.int64)
        if vector_mode:
            bits = (stream.uniform(size=(n_frames, bits_per_frame))
                    < config.p1).astype(int)
            clean = _convolve_rows(bits.astype(float), cir.taps)
            noisy = apply_noise(clean, noise, stream)
            n = bits_per_frame
            if isinstance(config.mode, SymbolThreshold):
                theta = (default_threshold(cir) if config.mode.theta is None
                         else config.mode.theta)
                decided = (noisy[:, :n] >= theta).astype(int)
            else:
                prev = np.concatenate([np.zeros((n_frames, 1)), noisy[:, :n - 1]],
                                      axis=1)
                decided = ((noisy[:, :n] - prev)
                           >= config.mode.theta_delta).astype(int)
            errors = int((decided != bits).sum())
            total = bits.size
            np.add.at(table, (bits.ravel(), decided.ravel()), 1)
            return errors, total, table
        errors = 0
        total = 0
        for _ in range(n_frames):
            bits = (stream.uniform(size=bits_per_frame) < config.p1).astype(int)
            clean = modulate(bits, cir)
            noisy = apply_noise(clean, noise, stream)
            decided = detect(ReceivedFrame(noisy, noise), cir, config).bits
            errors += int((decided != bits).sum())
            total += bits_per_frame
            np.add.at(table, (bits, decided), 1)
        return errors, total, table

    parts = parallel.map_chunks(worker, trials, chunk_size)
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
    table = np.zeros((n_symbols, n_symbols), dtype=np.int64)
    np.add.at(table, (s.ravel(), d.ravel()), 1)
    return table


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
