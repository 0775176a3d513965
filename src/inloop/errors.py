"""Exception types shared across the package, and the one home of each
parameter domain.  Every check raises `ParameterError`, and NaN and +-inf fail
each by construction: `positive` (every value in (0, inf)), `fraction` ((0, 1],
or [0, 1] with `zero`), `feedback_strength` (lam in (-eta, inf)) and `count`
(an integer, not a bool, of at least 1, or 0 with `zero`)."""

import math
import numbers


class ParameterError(ValueError):
    """A physical parameter or argument is outside its admissible domain."""


class InstabilityError(RuntimeError):
    """The feedback loop is unstable, or a runtime divergence guard tripped."""


class ConfigError(ValueError):
    """A run configuration file is malformed or incomplete."""


def positive(name: str, *values) -> None:
    if not all(0.0 < v < math.inf for v in values):
        got = ", ".join(str(v) for v in values)
        raise ParameterError(f"{name} must be positive and finite, got {got}")


def fraction(name: str, value, zero: bool = False) -> None:
    if not (0.0 <= value <= 1.0 if zero else 0.0 < value <= 1.0):
        raise ParameterError(f"{name} must be in {'[' if zero else '('}0, 1], got {value}")


def feedback_strength(lam, eta) -> None:
    """lam = g eta / (1 - g) maps the gains g < 1 onto (-eta, inf)."""
    if not -eta < lam < math.inf:
        raise ParameterError(f"feedback strength lam must be finite and exceed -eta = {-eta}, "
                             f"got {lam}")


def count(name: str, value, zero: bool = False) -> None:
    low = 0 if zero else 1
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        kind = "non-negative" if zero else "positive"
        raise ParameterError(f"{name} must be a {kind} integer, got {value!r}")
