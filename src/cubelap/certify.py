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
``window_schedule`` plans a march: window count, length and that certificate.
Lambert W is evaluated here by Newton steps in ``math`` (``lambert_w0``).
``certificate_report`` and, for a run with no certificate,
``partial_certificate_report`` are the two layouts of ``certificate.txt``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass


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
    """The certified Lipschitz constant of the fixed-point map on [0, T].

    Where a square of the plain form leaves the float range, the same C is
    formed as q*l*hypot(X, sqrt(2)) with X = T e^{aT} hypot(1, sqrt(2)(a + |b|
    + 1)); where X does too (e^{2aT} overflows once a*T is above about 354),
    C is q*l*X, formed in logs, and +inf only if C itself is past the float
    range."""
    if q <= 0 or l <= 0 or T <= 0:
        raise ValueError(f"q, l, T must be positive (got q={q}, l={l}, T={T})")
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    try:
        growth = math.exp(2.0 * a * T)
    except OverflowError:
        growth = math.inf
    try:
        c = q * l * math.sqrt(T * T * growth * (1.0 + 2.0 * (a + abs(b) + 1.0) ** 2) + 2.0)
    except OverflowError:
        c = math.inf
    if c < math.inf:
        return c
    spread = math.hypot(1.0, math.sqrt(2.0) * (a + abs(b) + 1.0))
    root = math.hypot(T * math.sqrt(growth) * spread, math.sqrt(2.0))
    if root < math.inf:
        return q * l * root
    # X > 1e308 >> sqrt(2) here, so hypot(X, sqrt(2)) rounds to X
    try:
        return math.exp(math.log(q) + math.log(l) + math.log(T) + a * T + math.log(spread))
    except OverflowError:
        return math.inf


#: Far above the five Newton steps that any positive float needs; the cap only
#: ends the loop on a NaN input, whose steps never shrink.
_LAMBERT_MAX_STEPS = 50


def _w_newton(w: float, excess) -> float:
    """Newton steps on f(w) = w + excess(w) with f' = 1 + 1/w, from w until
    a step is at most 4 eps relative: the root of w + ln w = ln x when
    excess(w) is ln(w/x) or ln w - ln x."""
    for _ in range(_LAMBERT_MAX_STEPS):
        step = (w + excess(w)) * w / (1.0 + w)
        w -= step
        if abs(step) <= 4.0 * sys.float_info.epsilon * w:
            break
    return w


def lambert_w0(x: float) -> float:
    """Principal branch W0(x) for x > 0: the root w of w + ln w = ln x.

    Newton steps on f(w) = w + ln(w/x), f' = 1 + 1/w, start at log1p(x) and
    stop once a step is at most 4 eps relative. A step from w lands at
    w (1 - ln(w/x)) / (1 + w), which is positive while w < e x: the start
    log1p(x) <= x is, and since f is concave and increasing every later
    iterate lies below the root W0(x) <= x and climbs to it. Writing ln(w/x)
    rather than ln w - ln x keeps the residual accurate where W0(x) ~ x.
    W0(0) = 0 and W0(inf) = inf.
    """
    if x == 0.0 or x == math.inf:
        return x
    return _w_newton(math.log1p(x), lambda w: math.log(w / x))


def max_window(q: float, l: float, a: float, b: float) -> float:
    """Supremal T with contraction_constant(q, l, T, a, b) < 1.

    C(T) = 1 is equivalent to T e^{aT} = sqrt(R) with
    R = (1/(ql)^2 - 2) / (1 + 2(a + |b| + 1)^2), so the root is
    W0(a sqrt(R)) / a (principal branch of the Lambert W function,
    ``lambert_w0``), or sqrt(R) when a = 0. Requires q*l*sqrt(2) < 1, the
    T -> 0 limit, else NoAdmissibleWindow. Where a square of that form
    leaves the float range, sqrt(R) is formed as
    sqrt(1 - 2(ql)^2) / q / l / hypot(1, sqrt(2)(a + |b| + 1)); where
    a sqrt(R) does too, W0 is taken of its logarithm y, as the root of
    w + ln w = y.
    """
    if q <= 0 or l <= 0:
        raise ValueError(f"q, l must be positive (got q={q}, l={l})")
    if q * l * math.sqrt(2.0) >= 1.0:
        raise NoAdmissibleWindow(q, l)
    try:
        root = math.sqrt((1.0 / (q * l) ** 2 - 2.0) / (1.0 + 2.0 * (a + abs(b) + 1.0) ** 2))
    except (ZeroDivisionError, OverflowError):
        root = 0.0
    spread = math.hypot(1.0, math.sqrt(2.0) * (a + abs(b) + 1.0))
    if not 0 < root < math.inf:
        root = math.sqrt(1.0 - 2.0 * (q * l) ** 2) / q / l / spread
    if a == 0:
        return root
    if a * root < math.inf:
        return lambert_w0(a * root) / a
    # in logs: W0(e^y) solves w + ln w = y, and from w = y, above that root,
    # the first step lands below it and the next ones climb
    y = (math.log(a) + 0.5 * math.log1p(-2.0 * (q * l) ** 2) - math.log(q) - math.log(l)
         - math.log(spread))
    return _w_newton(y, lambda w: math.log(w) - y) / a


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


#: The share of the supremal certified window a march's windows may take.
DEFAULT_SAFETY = 0.9


@dataclass(frozen=True)
class WindowSchedule:
    """The plan of a global march: ``count`` windows of one length under one
    certificate.

    t_w is the window cap: safety * t_max for the ``safety`` passed to
    ``window_schedule``, lowered to ``max_window_length`` if given. The
    march's uniform length is t_total / count <= t_w; ``certificate`` is
    ``Certificate.for_window`` at it, invalid only on the override path.
    """

    t_total: float
    t_w: float
    count: int
    certificate: Certificate

    @property
    def window_length(self) -> float:
        return self.t_total / self.count


def window_schedule(
    t_total: float,
    q: float,
    l: float,
    a: float,
    b: float,
    safety: float = DEFAULT_SAFETY,
    max_window_length: float | None = None,
    override_certificate: bool = False,
) -> WindowSchedule:
    """Plan the global march: window cap safety*t_max, count = ceil(total/cap).

    ``max_window_length`` optionally lowers the cap below the certified one
    (useful to force several windows on problems whose admissible window is
    enormous); it can only shrink windows, so certification is unaffected.
    When no certified window exists (q*l*sqrt(2) >= 1), the plan is uniform
    windows of at most ``max_window_length`` under an invalid certificate
    if the caller overrides the certificate and gives that length;
    otherwise ``NoAdmissibleWindow`` is raised. A cap with no finite window
    count (T_max is 0 once a + |b| passes the float range) is a ValueError.
    """
    if not 0 < safety < 1:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety}")
    if not 0 < t_total < math.inf:
        raise ValueError(f"total horizon t_total must be positive and finite, got {t_total}")
    if max_window_length is not None and not 0 < max_window_length < math.inf:
        raise ValueError(f"max_window_length must be positive and finite, got {max_window_length}")
    for name, value in (("q", q), ("l", l), ("a", a), ("b", b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    try:
        t_w = safety * max_window(q, l, a, b)
    except NoAdmissibleWindow:
        if not (override_certificate and max_window_length is not None):
            raise
        # experimental path: no certified window exists, but the caller
        # insists and supplies a window length of their own
        t_w = math.inf
    if max_window_length is not None:
        t_w = min(t_w, max_window_length)
    if not (t_w > 0 and t_total / t_w < math.inf):
        raise ValueError(f"the window cap {t_w!r} leaves no finite window count for the horizon "
                         f"{t_total!r} (q={q!r}, l={l!r}, a={a!r}, b={b!r})")
    count = max(1, math.ceil(t_total / t_w))
    cert = Certificate.for_window(q, l, a, b, float(t_total) / count)
    return WindowSchedule(
        t_total=float(t_total), t_w=t_w, count=count, certificate=cert
    )


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


def partial_certificate_report(q, l, a, b) -> str:
    """The certificate trail of a run that has no certificate of its own.

    The keys of ``certificate_report``, with C replaced by its T -> 0 limit
    C_small_T_limit = q*l*sqrt(2). A value the run never reached is nan;
    every value is None when the configuration itself was rejected.
    """
    limit = None if q is None or l is None else q * l * math.sqrt(2.0)
    lines = [
        f"q={q!r}",
        f"l={l!r}",
        f"a={a!r}",
        f"b={b!r}",
        "T=None",
        f"C_small_T_limit={limit!r}",
        "valid=false",
        "T_max=None",
    ]
    return "\n".join(lines) + "\n"
