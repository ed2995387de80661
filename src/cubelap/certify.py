"""Contraction certificate: when is the fixed-point map provably contractive.

For kernel strength q, Lipschitz constant l, window length T and linear
coefficients a >= 0, b, the fixed-point map on a window of length T is a
strict contraction whenever

    C(q, l, T, a, b) = q * l * sqrt(T^2 * e^{2aT} * (1 + 2(a + |b| + 1)^2) + 2)

is below one. C is strictly increasing in T (and in q, l, a, |b|), and its
T -> 0 limit is q*l*sqrt(2): if that already reaches one, no window length
works at all. Otherwise the supremal admissible window is the unique root of
C(T) = 1, in closed form through the Lambert W function, and a global solve
marches windows of a safety-scaled length; the constant does not depend on
the initial state, so one certificate covers every window of the march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import lambertw


class NoAdmissibleWindow(ValueError):
    """q*l*sqrt(2) >= 1: the contraction condition fails for every T > 0."""

    def __init__(self, q: float, l: float):
        self.q = q
        self.l = l
        self.product = q * l * math.sqrt(2.0)
        super().__init__(
            f"q*l*sqrt(2) = {self.product:.6g} >= 1 (q={q:g}, l={l:g}); "
            "no window length satisfies the contraction condition"
        )


def contraction_constant(q: float, l: float, T: float, a: float, b: float) -> float:
    """The certified Lipschitz constant of the fixed-point map on [0, T]."""
    if q <= 0 or l <= 0 or T <= 0:
        raise ValueError(f"q, l, T must be positive (got q={q}, l={l}, T={T})")
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    drift = (a + abs(b) + 1.0) ** 2
    return q * l * math.sqrt(T * T * math.exp(2.0 * a * T) * (1.0 + 2.0 * drift) + 2.0)


def max_window(q: float, l: float, a: float, b: float) -> float:
    """Supremal T with contraction_constant(q, l, T, a, b) < 1.

    C(T) = 1 is equivalent to T e^{aT} = sqrt(R) with
    R = (1/(ql)^2 - 2) / (1 + 2(a + |b| + 1)^2), so the root is
    W0(a sqrt(R)) / a (principal branch of the Lambert W function), or
    sqrt(R) when a = 0. Requires q*l*sqrt(2) < 1, the T -> 0 limit, else
    NoAdmissibleWindow.
    """
    if q <= 0 or l <= 0:
        raise ValueError(f"q, l must be positive (got q={q}, l={l})")
    if q * l * math.sqrt(2.0) >= 1.0:
        raise NoAdmissibleWindow(q, l)
    root = math.sqrt((1.0 / (q * l) ** 2 - 2.0) / (1.0 + 2.0 * (a + abs(b) + 1.0) ** 2))
    if a == 0:
        return root
    return float(lambertw(a * root).real) / a


@dataclass(frozen=True)
class Certificate:
    """Inputs and verdict of the contraction check for one window length."""

    q: float
    l: float
    a: float
    b: float
    T: float
    constant: float
    valid: bool
    t_max: float | None

    @classmethod
    def for_window(
        cls, q: float, l: float, a: float, b: float, T: float
    ) -> "Certificate":
        c = contraction_constant(q, l, T, a, b)
        try:
            t_max = max_window(q, l, a, b)
        except NoAdmissibleWindow:
            t_max = None
        return cls(q=q, l=l, a=a, b=b, T=T, constant=c, valid=c < 1.0, t_max=t_max)


@dataclass(frozen=True)
class WindowSchedule:
    """Partition of a total horizon into certified windows.

    t_w is the certified cap safety * t_max; the march actually uses the
    uniform length t_total / count, which is <= t_w, so every window of the
    march carries a valid certificate.
    """

    t_total: float
    t_w: float
    count: int
    safety: float

    @property
    def window_length(self) -> float:
        return self.t_total / self.count


def window_schedule(
    t_total: float,
    q: float,
    l: float,
    a: float,
    b: float,
    safety: float = 0.9,
    max_window_length: float | None = None,
) -> WindowSchedule:
    """Plan the global march: window cap safety*t_max, count = ceil(total/cap).

    ``max_window_length`` optionally lowers the cap below the certified one
    (useful to force several windows on problems whose admissible window is
    enormous); it can only shrink windows, so certification is unaffected.
    """
    if not 0 < safety < 1:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety}")
    if t_total <= 0:
        raise ValueError(f"total horizon must be positive, got {t_total}")
    t_w = safety * max_window(q, l, a, b)
    if max_window_length is not None:
        if max_window_length <= 0:
            raise ValueError("max_window_length must be positive")
        t_w = min(t_w, max_window_length)
    count = max(1, math.ceil(t_total / t_w))
    return WindowSchedule(t_total=float(t_total), t_w=t_w, count=count, safety=safety)


def certificate_report(cert: Certificate) -> str:
    """Flat key=value text with everything needed to recompute C by hand."""
    lines = [
        f"q={cert.q!r}",
        f"l={cert.l!r}",
        f"a={cert.a!r}",
        f"b={cert.b!r}",
        f"T={cert.T!r}",
        f"C={cert.constant!r}",
        f"valid={str(cert.valid).lower()}",
        f"T_max={cert.t_max!r}",
    ]
    return "\n".join(lines) + "\n"
