"""Power-law parameter schedules for the learning iteration.

Step size gamma_t = G / t^g, regularization eps_t = E / t^e, and sampling
spread sigma_t = S / t^s, with the conditions s + g > 1, g + e < 1, g > 1/2,
G > 0, E > 0 under which the iteration provably converges, and the derived
rate exponent for the mean squared distance to the equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _EXPORTS
from .games import _nonnegative, _positive

__all__ = [*_EXPORTS["schedules"]]


class ScheduleError(ValueError):
    """Schedules fail the validity conditions and were not overridden."""


@dataclass(frozen=True)
class Schedules:
    """Coefficients and exponents of the three decaying parameter families.

    Each is a finite number >= 0 (games._nonnegative) and S is positive
    (games._positive), else ValueError; the values are stored as given.
    """

    G: float = 1.0
    g: float = 4.0 / 7.0
    E: float = 1.0
    e: float = 2.0 / 7.0
    S: float = 1.0
    s: float = 4.0 / 7.0

    def __post_init__(self):
        for field in ("G", "g", "E", "e", "S", "s"):
            _nonnegative(field, getattr(self, field))
        _positive("S", self.S)  # the sampling spread cannot vanish

    def gamma(self, t: int) -> float:
        return self.G / t**self.g

    def eps(self, t: int) -> float:
        return self.E / t**self.e

    def sigma(self, t: int) -> float:
        return self.S / t**self.s

    def validate(self) -> "ScheduleReport":
        return validate_schedules(self)


@dataclass(frozen=True)
class ScheduleReport:
    """Per-condition validity plus the derived balance and rate exponents."""

    conditions: tuple[tuple[str, bool], ...]
    valid: bool
    h: float
    exponent: float

    def failing(self) -> list[str]:
        return [name for name, ok in self.conditions if not ok]

    def __str__(self) -> str:
        lines = [f"  {name}: {'ok' if ok else 'FAIL'}" for name, ok in self.conditions]
        lines.append(f"  h = {self.h:.6g}")
        lines.append(f"  predicted squared-error exponent = {self.exponent:.6g}")
        status = "valid" if self.valid else "invalid"
        return f"schedules {status}\n" + "\n".join(lines)


def validate_schedules(sched: Schedules) -> ScheduleReport:
    """Check the validity conditions and derive the predicted rate exponent.

    The balance exponent is h = min(2 - g - e, g + s, 2 g) and the predicted
    decay of the mean squared primal error is t^(-min(2 e, h - g)).
    """
    G, g, E, e, s = sched.G, sched.g, sched.E, sched.e, sched.s
    conditions = (
        (f"s+g>1 (s+g={s + g:.6g})", s + g > 1.0),
        (f"g+e<1 (g+e={g + e:.6g})", g + e < 1.0),
        (f"g>1/2 (g={g:.6g})", g > 0.5),
        (f"G>0 (G={G:.6g})", G > 0.0),
        (f"E>0 (E={E:.6g})", E > 0.0),
    )
    h = min(2.0 - g - e, g + s, 2.0 * g)
    exponent = min(2.0 * e, h - g)
    return ScheduleReport(
        conditions=conditions,
        valid=all(ok for _, ok in conditions),
        h=h,
        exponent=exponent,
    )
