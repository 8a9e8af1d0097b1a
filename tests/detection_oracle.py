"""Monte-Carlo bit error rate of the per-sample detectors: the independent
route for `detection.exact_error_probability`.

This is the sampler that once scored the threshold and difference rules in
`detection.error_probability`. It draws each chunk of frames from its own
(seed, chunk) stream, bits first and noise second, passes the noisy frames
through the detector's own `_decide`, and counts the (sent, decided) pairs.
"""

import numpy as np

from virodyne.core import rng_stream
from virodyne.detection import (
    _FRAMES_PER_STREAM,
    BerEstimate,
    _decide,
    apply_noise,
    joint_counts,
    wilson_interval,
)
from virodyne.parallel import chunk_slices


def convolve_rows(bits: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Row-wise linear convolution: (C, n) bits -> (C, n + L - 1) samples."""
    c, n = bits.shape
    out = np.zeros((c, n + taps.size - 1))
    for l, tap in enumerate(taps):
        out[:, l:l + n] += tap * bits
    return out


def monte_carlo_error_probability(cir, config, noise, bits_per_frame: int,
                                  trials: int, seed: int) -> BerEstimate:
    """Empirical BER of a per-sample detector over seeded trials, with a 95%
    Wilson interval and the (sent, decided) counts."""
    n = bits_per_frame
    errors, total = 0, 0
    joint = np.zeros((2, 2), dtype=np.int64)
    for chunk, sl in enumerate(chunk_slices(trials, _FRAMES_PER_STREAM)):
        stream = rng_stream(seed, chunk)
        bits = (stream.uniform(size=(sl.stop - sl.start, n)) < config.p1).astype(int)
        noisy = apply_noise(convolve_rows(bits.astype(float), cir.taps), noise, stream)
        decided, _ = _decide(noisy, n, cir, config.mode, noise)
        errors += int((decided != bits).sum())
        total += bits.size
        joint += joint_counts(bits, decided)
    lo, hi = wilson_interval(errors, total)
    return BerEstimate(ber=errors / total, ci_low=lo, ci_high=hi, bit_errors=errors,
                       bits_total=total, trials=trials, seed=seed,
                       joint=tuple(tuple(int(v) for v in row) for row in joint))
