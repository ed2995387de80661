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
])
def test_window_schedule_rejects_non_finite_inputs(kwargs, name):
    args = dict(t_total=1.0, q=1.0, l=0.1, a=0.0, b=0.0) | kwargs
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        cl.window_schedule(**args)
