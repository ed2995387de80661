"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them); a FAIL line is
accompanied by the pytest failure itself.
"""

import json
import math

import numpy as np
import pytest

import cubelap as cl
from cubelap.evolve import _window
from cubelap.grid import unitary_spectrum
from cubelap.runner import (
    EXIT_ASSUMPTION_VIOLATION,
    EXIT_CERTIFICATE_REFUSED,
    EXIT_OK,
)

from conftest import random_smooth_field


def _report(number, label):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[ACCEPTANCE {number}] {label}: {verdict}")
            return False

    return _Reporter()


def test_criterion_1_certificate_arithmetic():
    with _report(1, "certificate arithmetic"):
        assert abs(cl.contraction_constant(1.0, 0.1, 1.0, 0.0, 0.0) - math.sqrt(5) / 10) <= 1e-14
        # frozen 40-digit independent evaluation of the same closed form
        assert abs(cl.contraction_constant(0.8, 0.2, 0.5, 1.0, -2.0) - 0.7907598384911505) <= 1e-12
        assert abs(cl.max_window(1.0, 0.1, 0.0, 0.0) - math.sqrt(98.0 / 3.0)) <= 1e-10


def test_criterion_2_transform_fidelity():
    with _report(2, "transform fidelity and sup bounds"):
        g = cl.make_grid(20.0, 512)
        f = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
        fh = cl.forward_transform(f)
        assert np.max(np.abs(fh.values - np.exp(-(g.wavenumbers**2) / 2.0))) <= 1e-10
        rng = np.random.default_rng(2024)
        for _ in range(50):
            w = random_smooth_field(g, rng)
            a = cl.l2_norm(w)
            assert abs(a - cl.l2_norm(cl.forward_transform(w))) <= 1e-12 * a
            lhs, rhs = cl.transform_linf_bound(w)
            assert lhs <= rhs * (1 + 1e-10)
            d6 = cl.spectral_derivative(w, 6)
            lhs6 = np.max(np.abs(d6.values))
            rhs6 = cl.l1_norm(cl.to_physical(d6)) / np.sqrt(2.0 * np.pi)
            assert lhs6 <= rhs6 * (1 + 1e-10)


def test_criterion_3_linear_exactness():
    with _report(3, "linear exactness and semigroup march"):
        g = cl.make_grid(np.pi, 64)
        kernel = cl.gaussian_kernel(1.0, 1.0)
        free = cl.linear_plus_source(0.0)
        for p0 in (1.0, 2.0):
            # keep the total decay within e^{-12} so a 1e-6 relative
            # comparison stays above the double-precision noise floor
            T = min(0.5, 12.0 / p0**6)
            u0 = cl.field_from_function(g, lambda x: np.cos(p0 * x))
            norm0 = cl.l2_norm(u0)
            for a in (0.0, 0.5):
                for b in (0.0, 1.0):
                    prob = cl.ProblemSpec(
                        a=a, b=b, kernel=kernel, nonlinearity=free, u0=u0, grid=g
                    )
                    rep = cl.global_march(prob, T, n_frames=16, max_window_length=T)[0]
                    expect = np.exp((a - p0**6) * rep.field.time_grid) * norm0
                    assert np.max(np.abs(rep.l2_per_frame - expect) / expect) <= 1e-6
                    two = cl.global_march(prob, T, n_frames=16, max_window_length=T / 2)
                    assert len(two) == 2
                    lam = cl.build_symbol(g, a, b)
                    oneshot = cl.propagate(cl.to_spectral(u0), lam, T)
                    diff = two[-1].final_state.values - oneshot.values
                    rel = cl.l2_norm(cl.Field(g, diff, "spectral")) / cl.l2_norm(oneshot)
                    assert rel <= 1e-10


def test_criterion_4_source_only_closed_form():
    with _report(4, "source-only closed form, second-order marcher"):
        g = cl.make_grid(20.0, 256)
        kernel = cl.gaussian_kernel(0.01, 2.0)
        src = cl.source_gaussian(0.1, 1.0)
        nl = cl.linear_plus_source(0.0, src)  # F = h, the l -> 0 limit entry
        u0 = cl.field_from_function(g, lambda x: np.exp(-(x**2) / 2.0))
        prob = cl.ProblemSpec(a=0.0, b=1.0, kernel=kernel, nonlinearity=nl, u0=u0, grid=g)
        T = 0.4
        lam = cl.build_symbol(g, 0.0, 1.0)
        g_hat = kernel.spectrum_on(g)
        h_hat = cl.forward_transform(cl.Field(g, src(g.x), "physical")).values
        closed = np.exp(T * lam) * cl.to_spectral(u0).values + np.sqrt(
            2.0 * np.pi
        ) * g_hat * h_hat * T * cl.phi1(T * lam)

        def endpoint_error(substeps):
            ref = cl.etd_reference_solve(prob, T, substeps=substeps, n_frames=8)
            return cl.l2_norm(cl.Field(g, ref.frames[-1] - closed, "spectral"))

        e_coarse = endpoint_error(32)
        e_fine = endpoint_error(64)
        ratio = e_coarse / e_fine
        assert 3.5 <= ratio <= 4.5
        # the phi-weighted quadrature is exact on this problem, on every
        # mode: the band map leaves 0 where the closed form is below its floor
        tg = np.linspace(0.0, T, 9)
        w = _window(prob, float(tg[1] - tg[0]))
        v = np.exp(np.outer(tg, w.lam)) * w.u0[: w.band]
        out = unitary_spectrum(g, cl.duhamel_map(v, prob, w)[0])
        assert np.max(np.abs(out[-1] - closed)) <= 1e-12 * np.max(np.abs(closed))


def _certified_fixture():
    grid = cl.make_grid(20.0, 256)
    kernel = cl.gaussian_kernel(0.01, 2.0)
    q = cl.kernel_strength(kernel)
    T = 0.4
    ell = 0.5 / (q * math.sqrt(9.0 * T * T + 2.0))  # C(T) = 0.5 at a=0, |b|=1
    nl = cl.saturating(ell, cl.source_gaussian(0.1, 1.0))
    u0 = cl.field_from_function(grid, lambda x: np.exp(-(x**2) / 2.0))
    prob = cl.ProblemSpec(a=0.0, b=1.0, kernel=kernel, nonlinearity=nl, u0=u0, grid=grid)
    cert = cl.Certificate.for_window(q, ell, 0.0, 1.0, T)
    return prob, cert, T


def test_criterion_5_contraction_realized():
    with _report(5, "measured contraction below the certificate"):
        prob, cert, T = _certified_fixture()
        assert cert.valid and abs(cert.constant - 0.5) <= 1e-12
        tol = 1e-10
        rep = cl.picard_solve(prob, T, cert, tol_fix=tol)
        ratios = rep.trace.reported_ratios()
        assert ratios.size >= 2
        assert np.max(ratios) <= cert.constant * 1.05
        bound = math.ceil(math.log(tol) / math.log(cert.constant)) + 5
        assert rep.trace.iterations <= bound


def test_criterion_6_oracle_equivalence():
    with _report(6, "fixed point agrees with the independent marcher"):
        prob, cert, T = _certified_fixture()
        rep = cl.picard_solve(prob, T, cert)
        ref = cl.etd_reference_solve(prob, T, substeps=4 * 64, n_frames=64)
        diff = cl.Field(prob.grid, rep.field.frames[-1] - ref.frames[-1], "spectral")
        assert cl.l2_norm(diff) / cl.l2_norm(rep.final_state) <= 1e-4


def test_criterion_7_nontriviality():
    with _report(7, "support-overlap criterion"):
        # (a) exactly disjoint spectral bands: overlap 0 and the zero-start
        # solution never leaves zero
        g = cl.make_grid(20.0, 256)
        kernel = cl.bandlimited_kernel(g, 1.0, 1.0)
        nl = cl.linear_plus_source(0.0, cl.source_bandlimited(g, 1.0, 2.0, 3.0))
        u0 = cl.Field(g, np.zeros(256), "physical")
        prob = cl.ProblemSpec(a=0.0, b=0.0, kernel=kernel, nonlinearity=nl, u0=u0, grid=g)
        assert cl.nontriviality_overlap(kernel, nl, g) == 0.0
        reports = cl.global_march(prob, 0.5, n_frames=16, max_window_length=0.5)
        assert np.max(np.abs(reports[-1].field.frames)) <= 1e-12
        # (b) gaussian kernel and gaussian source overlap on the full band and
        # force a nontrivial solution from the same zero start
        kernel_g = cl.gaussian_kernel(0.01, 2.0)
        q = cl.kernel_strength(kernel_g)
        nl_g = cl.saturating(
            0.3 / (q * math.sqrt(2.0)), cl.source_gaussian(0.1, 1.0)
        )
        prob_g = cl.ProblemSpec(
            a=0.0, b=0.0, kernel=kernel_g, nonlinearity=nl_g, u0=u0, grid=g
        )
        assert cl.nontriviality_overlap(kernel_g, nl_g, g) > 0.0
        reports_g = cl.global_march(prob_g, 0.5, n_frames=16, max_window_length=0.5)
        assert reports_g[-1].l2_per_frame[-1] > 1e-6


def test_criterion_8_refusal_paths(tmp_path):
    with _report(8, "refusal exit codes"):
        base = {
            "grid": {"L": 20.0, "N": 128},
            "model": {"a": 0.0, "b": 0.0},
            "kernel": {"name": "gaussian", "amplitude": 1.0, "width": 1.0},
            "nonlinearity": {"name": "saturating", "lipschitz": 1.0},
            "initial_condition": {"name": "zero"},
            "horizon": 0.5,
            "solver": {"frames": 16},
        }

        def run_with(name, **patch):
            cfg = json.loads(json.dumps(base))
            cfg.update(patch)
            cfg["output_dir"] = str(tmp_path / name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            return cl.run(cl.parse_config(path))

        # q*l*sqrt(2) >= 1: no admissible window
        refused = run_with("refused")
        assert refused.exit_code == EXIT_CERTIFICATE_REFUSED
        # identically zero kernel: structural assumption fails
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("0.0,0.0\n1.0,0.0\n2.0,0.0\n")
        zerok = run_with("zerok", kernel={"name": "tabulated", "path": str(zeros)})
        assert zerok.exit_code == EXIT_ASSUMPTION_VIOLATION
        # wrong Lipschitz declaration is falsified by sampling
        lied = run_with(
            "lied",
            nonlinearity={"name": "linear_plus_source", "kappa": 2.0, "lipschitz": 0.5},
        )
        assert lied.exit_code == EXIT_ASSUMPTION_VIOLATION
        # and the certified fixture still exits 0
        good = run_with(
            "good",
            model={"a": 0.0, "b": 1.0},
            kernel={"name": "gaussian", "amplitude": 0.01, "width": 2.0},
            nonlinearity={
                "name": "saturating",
                "lipschitz": 3.8,
                "source": {"name": "gaussian", "amplitude": 0.1, "width": 1.0},
            },
            initial_condition={"name": "gaussian", "amplitude": 1.0, "width": 1.5},
            horizon=0.4,
            grid={"L": 20.0, "N": 256},
        )
        assert good.exit_code == EXIT_OK
