"""Exception hierarchy shared across the package.

Domain errors derive from :class:`VirodyneError` so callers (and the CLI,
which maps them to exit code 1) can catch one base class.
"""

from __future__ import annotations


class VirodyneError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidResidue(VirodyneError):
    """A nucleotide or amino-acid symbol outside the accepted alphabet."""


class SingularPoint(VirodyneError):
    """Field evaluation requested at a singular point (e.g. on the source)."""


class UnstableTimeStep(VirodyneError, ValueError):
    """An explicit time step breaks the solver's stability bound."""


class QuadratureFailure(VirodyneError):
    """Adaptive quadrature did not converge within the refinement budget.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class OutOfDomain(VirodyneError):
    """A position lies outside the configured domain box."""


class MissingChannelModel(VirodyneError):
    """A detector that requires a channel impulse response got none."""


class EmptyObservation(VirodyneError):
    """An estimator was handed zero observations."""


class Unidentifiable(VirodyneError):
    """Measurement geometry or data cannot pin down the unknowns."""


class ParseError(VirodyneError):
    """Malformed sequence input; records the offending line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class EmptyInput(VirodyneError):
    """An input stream contained no records."""


class LengthMismatch(VirodyneError):
    """Sequences of unequal length in strict alignment mode."""

    def __init__(self, message: str, offenders: list[str]):
        super().__init__(message)
        self.offenders = offenders


class InvalidParams(VirodyneError):
    """Substitution-model parameters violate their validity constraints."""


class InvalidWeights(VirodyneError):
    """Codon weights do not form a distribution within each synonym class."""


class NoData(VirodyneError):
    """An alignment column holds no usable (unmasked) residues."""


class FieldEvaluationError(VirodyneError):
    """One or more points of a batch evaluation failed.

    Carries (query index, underlying error) pairs so callers can pinpoint
    the offending points.
    """

    def __init__(self, failures: list[tuple[int, Exception]]):
        preview = "; ".join(f"[{i}] {exc}" for i, exc in failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(f"{len(failures)} query point(s) failed: {preview}{more}")
        self.failures = failures


class ConfigError(VirodyneError):
    """Invalid scenario configuration; names the key and line when known."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        loc = []
        if key is not None:
            loc.append(f"key '{key}'")
        if line is not None:
            loc.append(f"line {line}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.key = key
        self.line = line
