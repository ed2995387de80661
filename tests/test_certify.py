import math

import numpy as np
import pytest

import cubelap as cl


def test_constant_closed_form_case():
    # (0+0+1)^2 = 1, 1 + 2 = 3, 1*3 + 2 = 5
    assert abs(cl.contraction_constant(1.0, 0.1, 1.0, 0.0, 0.0) - math.sqrt(5) / 10) <= 1e-14


def test_constant_high_precision_case():
    # frozen from a 40-digit independent evaluation of the same expression
    expected = 0.7907598384911505
    assert abs(cl.contraction_constant(0.8, 0.2, 0.5, 1.0, -2.0) - expected) <= 1e-12


def test_constant_small_window_limit():
    # T -> 0 kills the first term under the radical, leaving q*l*sqrt(2)
    val = cl.contraction_constant(1.0, 0.5, 1e-12, 3.0, -7.0)
    assert abs(val - 0.5 * math.sqrt(2.0)) <= 1e-10


@pytest.mark.parametrize("q,l,T,a", [(0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, -1)])
def test_constant_rejects_bad_inputs(q, l, T, a):
    with pytest.raises(ValueError):
        cl.contraction_constant(q, l, T, a, 0.0)


def test_constant_even_in_drift():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q, l, T, a, b = rng.uniform(0.01, 1, 5)
        assert cl.contraction_constant(q, l, T, a, b) == cl.contraction_constant(
            q, l, T, a, -b
        )


def test_constant_strictly_increasing_in_each_argument():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.uniform(0.05, 0.5)
        l = rng.uniform(0.05, 0.5)
        T = rng.uniform(0.1, 3.0)
        a = rng.uniform(0.0, 2.0)
        b = rng.uniform(-3.0, 3.0)
        base = cl.contraction_constant(q, l, T, a, b)
        bump = 1.07
        assert cl.contraction_constant(q * bump, l, T, a, b) > base
        assert cl.contraction_constant(q, l * bump, T, a, b) > base
        assert cl.contraction_constant(q, l, T * bump, a, b) > base
        assert cl.contraction_constant(q, l, T, a + 0.1, b) > base
        assert cl.contraction_constant(q, l, T, a, np.sign(b or 1) * (abs(b) + 0.1)) > base


def test_max_window_closed_form_at_zero_growth():
    # a = 0: 0.1*sqrt(3 T^2 + 2) = 1  =>  T = sqrt(98/3)
    t = cl.max_window(1.0, 0.1, 0.0, 0.0)
    assert abs(t - math.sqrt(98.0 / 3.0)) <= 1e-10


def test_max_window_refuses_when_limit_exceeds_one():
    with pytest.raises(cl.NoAdmissibleWindow) as exc:
        cl.max_window(1.0, 1.0, 0.0, 0.0)
    assert exc.value.product >= 1.0


@pytest.mark.parametrize("q, l", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.1)])
def test_max_window_refuses_nonpositive_constants(q, l):
    with pytest.raises(ValueError) as exc:
        cl.max_window(q, l, 0.0, 0.0)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"q, l must be positive (got q={q}, l={l})"


def test_max_window_root_quality_random():
    rng = np.random.default_rng(2)
    tol = 1e-12
    for _ in range(40):
        q = 10.0 ** rng.uniform(-2, 0.5)
        margin = rng.uniform(0.05, 0.95)
        l = margin / (q * math.sqrt(2.0))
        a = rng.uniform(0.0, 2.0)
        b = rng.uniform(-3.0, 3.0)
        t_max = cl.max_window(q, l, a, b)
        assert abs(cl.contraction_constant(q, l, t_max, a, b) - 1.0) <= 10 * tol


def test_max_window_shrinks_with_harder_parameters():
    rng = np.random.default_rng(3)
    for _ in range(30):
        q = 10.0 ** rng.uniform(-2, 0)
        l = rng.uniform(0.05, 0.9) / (q * math.sqrt(2.0))
        a = rng.uniform(0.0, 1.5)
        b = rng.uniform(-2.0, 2.0)
        t = cl.max_window(q, l, a, b)
        assert cl.max_window(q * 1.1, l, a, b) < t
        assert cl.max_window(q, l * 1.1, a, b) < t
        assert cl.max_window(q, l, a + 0.2, b) < t
        assert cl.max_window(q, l, a, np.sign(b or 1) * (abs(b) + 0.3)) < t


def test_certificate_recompute_and_validity():
    cert = cl.Certificate.for_window(0.3, 0.4, 0.7, -1.2, 0.8)
    again = cl.contraction_constant(cert.q, cert.l, cert.T, cert.a, cert.b)
    assert abs(again - cert.constant) <= 1e-14 * cert.constant
    assert cert.valid == (cert.constant < 1.0)
    assert abs(cl.contraction_constant(cert.q, cert.l, cert.t_max, cert.a, cert.b) - 1.0) <= 1e-10


def test_certificate_report_contains_all_inputs():
    cert = cl.Certificate.for_window(0.3, 0.4, 0.7, -1.2, 0.8)
    text = cl.certificate_report(cert)
    fields = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert set(fields) == {"q", "l", "a", "b", "T", "C", "valid", "T_max"}
    re_c = cl.contraction_constant(
        float(fields["q"]), float(fields["l"]), float(fields["T"]),
        float(fields["a"]), float(fields["b"]),
    )
    assert abs(re_c - float(fields["C"])) <= 1e-14


def test_window_schedule_two_windows():
    # T_max = sqrt(98/3) ~ 5.7155, cap 0.9*T_max ~ 5.1439 -> two windows
    sched = cl.window_schedule(10.0, 1.0, 0.1, 0.0, 0.0, safety=0.9)
    assert sched.count == 2
    assert abs(sched.t_w - 0.9 * math.sqrt(98.0 / 3.0)) <= 1e-9
    assert sched.count * sched.t_w >= sched.t_total
    assert sched.window_length <= sched.t_w
    # every marched window is itself certified
    c = cl.contraction_constant(1.0, 0.1, sched.window_length, 0.0, 0.0)
    assert c < 1.0


def test_window_schedule_single_window():
    sched = cl.window_schedule(1.0, 1.0, 0.1, 0.0, 0.0)
    assert sched.count == 1
    assert sched.window_length == 1.0


def test_window_schedule_rejects_bad_safety():
    for s in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            cl.window_schedule(1.0, 1.0, 0.1, 0.0, 0.0, safety=s)


def test_window_schedule_cap():
    sched = cl.window_schedule(1.0, 1.0, 0.1, 0.0, 0.0, max_window_length=0.25)
    assert sched.count == 4
    assert sched.window_length == 0.25


@pytest.mark.parametrize("kwargs", [
    {},
    {"safety": 0.5},
    {"max_window_length": 0.25},
    {"max_window_length": 100.0},
])
def test_every_schedule_carries_its_window_certificate(kwargs):
    args = (10.0, 1.0, 0.1, 0.3, -1.2)
    sched = cl.window_schedule(*args, **kwargs)
    assert sched.certificate == cl.Certificate.for_window(*args[1:], sched.window_length)
    assert sched.certificate.valid


def test_override_schedule_is_uniform_windows_of_the_cap():
    # q*l*sqrt(2) = sqrt(2) >= 1: no certified window exists; the parent's
    # override fallback gave ceil(1.0 / 0.3) = 4 windows of 1.0 / 4
    q, l, a, b = 1.0, 1.0, 0.2, 0.5
    sched = cl.window_schedule(1.0, q, l, a, b, max_window_length=0.3, override_certificate=True)
    assert (sched.count, sched.window_length, sched.t_w) == (4, 0.25, 0.3)
    assert sched.certificate == cl.Certificate.for_window(q, l, a, b, 0.25)
    assert not sched.certificate.valid and sched.certificate.t_max is None


def _decimal_constant(q, l, T, a, b):
    """C(q, l, T, a, b) in 40-digit decimal arithmetic, whose exponent range
    has room for e^{2aT} at any a*T of these tests."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        q, l, T, a, b = map(Decimal, (q, l, T, a, b))
        s = 1 + 2 * (a + abs(b) + 1) ** 2
        return float(q * l * (T * T * (2 * a * T).exp() * s + 2).sqrt())


def test_constant_is_taken_in_logs_once_the_growth_factor_overflows():
    # a*T = 400: e^{2aT} = e^800 is past the float range, e^600 is not
    q, l, a, b = 0.0707, 12.0, 400.0, 1.0
    assert cl.contraction_constant(q, l, 0.75, a, b) < math.inf
    cert = cl.Certificate.for_window(q, l, a, b, 1.0)
    assert cert.constant == pytest.approx(_decimal_constant(q, l, 1.0, a, b), rel=1e-12)
    assert cert.constant == pytest.approx(2.518e176, rel=1e-3)
    assert not cert.valid and cert.t_max is None
    # C itself is past the float range at a*T = 1000
    assert cl.contraction_constant(q, l, 1.0, 1000.0, b) == math.inf
    # q*l underflows to 0 while T e^{aT} hypot(...) overflows: C is not 0 * inf
    args = (1e-312, 1e-200, 1e280, 0.0, 1e33)
    assert cl.contraction_constant(*args) == pytest.approx(_decimal_constant(*args), rel=1e-12)
    # the override plan of such a window is made, under that certificate
    sched = cl.window_schedule(2.0, q, l, a, b, max_window_length=1.0,
                               override_certificate=True)
    assert (sched.count, sched.window_length) == (2, 1.0)
    assert sched.certificate == cert


def test_windows_whose_growth_factor_overflows_are_certified():
    # l = 1e-300 certifies windows of up to 685: at T = 500, e^{2aT} = e^1000
    # is past the float range, but C is far below one
    sched = cl.window_schedule(1000.0, 0.07, 1e-300, 1.0, 1.0)
    assert (sched.count, sched.window_length) == (2, 500.0)
    cert = sched.certificate
    assert cert.valid
    assert cert.constant == pytest.approx(_decimal_constant(0.07, 1e-300, 500.0, 1.0, 1.0),
                                          rel=1e-12)
    assert cert.constant == pytest.approx(2.14e-81, rel=1e-3)


@pytest.mark.parametrize("kwargs", [
    {},
    {"override_certificate": True},
    {"max_window_length": 0.3},
])
def test_no_admissible_window_without_override_and_cap(kwargs):
    with pytest.raises(cl.NoAdmissibleWindow):
        cl.window_schedule(1.0, 1.0, 1.0, 0.0, 0.0, **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"t_total": math.nan}, "t_total"),
    ({"t_total": math.inf}, "t_total"),
    ({"max_window_length": math.nan}, "max_window_length"),
    ({"max_window_length": math.inf}, "max_window_length"),
    ({"q": math.nan}, "q"),
    ({"q": math.inf}, "q"),
    ({"l": math.nan}, "l"),
    ({"l": math.inf}, "l"),
    ({"a": math.nan}, "a"),
    ({"a": math.inf}, "a"),
    ({"b": math.nan}, "b"),
    ({"b": -math.inf}, "b"),
])
def test_window_schedule_rejects_non_finite_inputs(kwargs, name):
    args = dict(t_total=1.0, q=1.0, l=0.1, a=0.0, b=0.0) | kwargs
    # the horizon and the cap must also be positive; the model numbers only finite
    with pytest.raises(ValueError, match=rf"^(total horizon )?{name} must be (positive and )?finite"):
        cl.window_schedule(**args)


# q of the gaussian kernel (0.01, 2) and l = 3.8 unless named
_EXTREME = {
    "l_tiny": (0.0707, 1e-300, 0.0, 1.0),
    "l_tiny_with_growth": (0.0707, 1e-300, 1.0, 1.0),
    "l_subnormal_with_growth": (0.07, 1e-310, 1.0, 1.0),
    "l_smallest_with_growth": (0.0707, 5e-324, 1e300, 1e300),
    "a_huge": (0.0707, 3.8, 1e300, 1.0),
    "b_huge": (0.0707, 3.8, 0.0, 1e300),
    "b_huge_negative": (0.0707, 3.8, 0.5, -1e300),
}


@pytest.mark.parametrize("case", list(_EXTREME))
def test_extreme_finite_constants_give_a_window_without_arithmetic_errors(case):
    # (q*l)^2 underflows or (a + |b| + 1)^2 overflows: the root and C are
    # formed without those squares, and in logs where a sqrt(R) or e^{2a T_max}
    # is past the float range (a tiny l with growth); C(T_max) is still one
    q, l, a, b = _EXTREME[case]
    t_max = cl.max_window(q, l, a, b)
    assert 0 < t_max < math.inf
    assert cl.contraction_constant(q, l, t_max, a, b) == pytest.approx(1.0, rel=1e-9)
    assert cl.contraction_constant(q, l, 0.5 * t_max, a, b) < 1.0


def test_square_free_forms_continue_the_plain_ones_past_the_overflow():
    # (a + |b| + 1)^2 overflows between b = 1.3e154 and 1.4e154: on both
    # sides T_max * sqrt(1 + 2 s^2) is sqrt(1/(ql)^2 - 2), and C(T_max) is one
    q, l = 0.0707, 3.8
    assert (1.3e154 + 1.0) ** 2 < math.inf
    with pytest.raises(OverflowError):
        (1.4e154 + 1.0) ** 2
    for b in (1.3e154, 1.4e154):
        t_max = cl.max_window(q, l, 0.0, b)
        assert t_max * math.hypot(1.0, math.sqrt(2.0) * b) == pytest.approx(
            math.sqrt(1.0 / (q * l) ** 2 - 2.0), rel=1e-14)
        assert cl.contraction_constant(q, l, t_max, 0.0, b) == pytest.approx(1.0, rel=1e-14)


def test_schedule_whose_window_underflows_to_zero_names_the_count():
    # a + |b| is past the float range, so the certified window is 0
    assert cl.max_window(0.0707, 3.8, 1e308, 1e308) == 0.0
    with pytest.raises(ValueError, match=r"^the window cap 0\.0 leaves no finite window count"):
        cl.window_schedule(0.4, 0.0707, 3.8, 1e308, 1e308)
