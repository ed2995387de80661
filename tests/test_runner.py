import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cubelap as cl
from cubelap.runner import (
    EXIT_ASSUMPTION_VIOLATION,
    EXIT_CERTIFICATE_REFUSED,
    EXIT_OK,
    EXIT_SOLVER_FAILURE,
    TRACE_HEADER,
)


def _certified_config(out_dir, **overrides):
    cfg = {
        "grid": {"L": 20.0, "N": 256},
        "model": {"a": 0.0, "b": 1.0},
        "kernel": {"name": "gaussian", "amplitude": 0.01, "width": 2.0},
        "nonlinearity": {
            "name": "saturating",
            "lipschitz": 3.8,
            "source": {"name": "gaussian", "amplitude": 0.1, "width": 1.0},
        },
        "initial_condition": {"name": "gaussian", "amplitude": 1.0, "width": 1.5},
        "horizon": 0.4,
        "solver": {"frames": 32},
        "output_dir": str(out_dir),
        "flags": {},
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# --------------------------------------------------------------------------
# configuration parsing
# --------------------------------------------------------------------------


def test_defaults_are_materialized(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    del cfg["solver"]
    del cfg["flags"]
    config = cl.parse_config(_write(tmp_path, cfg))
    echo = config.echo()
    assert echo["solver"]["safety"] == 0.9
    assert echo["solver"]["frames"] == 64
    assert echo["solver"]["tol_fix"] is None
    assert echo["solver"]["max_iter"] == 200
    assert echo["flags"] == {"run_oracle": False, "override_certificate": False}


def test_negative_a_rejected_with_constraint(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    cfg["model"]["a"] = -1.0
    with pytest.raises(cl.ConfigError, match="a >= 0"):
        cl.parse_config(_write(tmp_path, cfg))


def test_unknown_key_rejected(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    cfg["alpha"] = 1.0
    with pytest.raises(cl.ConfigError, match="alpha"):
        cl.parse_config(_write(tmp_path, cfg))
    cfg = _certified_config(tmp_path / "out")
    cfg["solver"]["turbo"] = True
    with pytest.raises(cl.ConfigError, match="turbo"):
        cl.parse_config(_write(tmp_path, cfg))


def test_unknown_catalog_names_rejected(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    cfg["kernel"] = {"name": "mystery"}
    with pytest.raises(cl.ConfigError, match="mystery"):
        cl.parse_config(_write(tmp_path, cfg))


def test_missing_config_file():
    with pytest.raises(cl.ConfigError, match="does not exist"):
        cl.parse_config("/nonexistent/run.json")


# --------------------------------------------------------------------------
# pipeline and exit codes
# --------------------------------------------------------------------------


def test_certified_run_artifacts(tmp_path):
    out = tmp_path / "out"
    config = cl.parse_config(_write(tmp_path, _certified_config(out)))
    artifacts = cl.run(config)
    assert artifacts.exit_code == EXIT_OK
    # trace CSV: exact header, ratios below the certified constant
    trace = (out / "trace_w0.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    rows = [line.split(",") for line in trace[1:]]
    c = float(rows[0][3])
    ratios = [float(r[2]) for r in rows if r[2]]
    assert ratios and max(ratios) <= c * 1.05
    # certificate file is self-sufficient to recompute C
    cert = dict(
        line.split("=", 1) for line in (out / "certificate.txt").read_text().splitlines()
    )
    re_c = cl.contraction_constant(
        float(cert["q"]), float(cert["l"]), float(cert["T"]),
        float(cert["a"]), float(cert["b"]),
    )
    assert abs(re_c - float(cert["C"])) <= 1e-14
    assert cert["valid"] == "true"
    assert (out / "final_field.sxd").exists()
    assert (out / "norms_w0.csv").exists()
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["solver"]["safety"] == 0.9


def test_run_is_deterministic(tmp_path, monkeypatch):
    for sub in ("r1", "r2"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        cfg = _certified_config("out")
        config = cl.parse_config(_write(d, cfg))
        artifacts = cl.run(config)
        assert artifacts.exit_code == EXIT_OK
        cl.emit_plot_data(artifacts, "decay")
        cl.emit_plot_data(artifacts, "trace")
    for name in (
        "trace_w0.csv", "norms_w0.csv", "certificate.txt", "summary.txt",
        "decay.csv", "trace.csv", "final_field.sxd", "config_echo.json",
    ):
        a = (tmp_path / "r1" / "out" / name).read_bytes()
        b = (tmp_path / "r2" / "out" / name).read_bytes()
        assert a == b, f"nondeterministic artifact {name}"


def test_refusal_exit_code(tmp_path):
    # at horizon 1e6 the refusal still comes first: with no certified window
    # there is no window count for the report-memory bound to check
    for horizon in (0.4, 1e6):
        out = tmp_path / f"out_{horizon:g}"
        cfg = _certified_config(out, horizon=horizon)
        cfg["kernel"] = {"name": "gaussian", "amplitude": 1.0, "width": 1.0}
        cfg["nonlinearity"] = {"name": "saturating", "lipschitz": 1.0}
        config = cl.parse_config(_write(tmp_path, cfg))
        artifacts = cl.run(config)
        assert artifacts.exit_code == EXIT_CERTIFICATE_REFUSED
        assert "no window length satisfies" in artifacts.summary["error"]
        # the certificate trail exists even on refusal
        text = (out / "certificate.txt").read_text()
        assert "valid=false" in text


def test_zero_kernel_exit_code(tmp_path):
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0.0,0.0\n1.0,0.0\n2.0,0.0\n")
    out = tmp_path / "out"
    cfg = _certified_config(out)
    cfg["kernel"] = {"name": "tabulated", "path": str(zeros)}
    config = cl.parse_config(_write(tmp_path, cfg))
    artifacts = cl.run(config)
    assert artifacts.exit_code == EXIT_ASSUMPTION_VIOLATION
    assert "vanishes identically" in artifacts.summary["error"]


def test_wrong_lipschitz_declaration_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = _certified_config(out)
    cfg["nonlinearity"] = {
        "name": "linear_plus_source",
        "kappa": 2.0,
        "lipschitz": 0.5,
        "source": {"name": "gaussian", "amplitude": 0.1, "width": 1.0},
    }
    config = cl.parse_config(_write(tmp_path, cfg))
    artifacts = cl.run(config)
    assert artifacts.exit_code == EXIT_ASSUMPTION_VIOLATION
    assert "Lipschitz" in artifacts.summary["error"]


def test_solver_failure_exit_code(tmp_path):
    out = tmp_path / "out"
    cfg = _certified_config(out)
    cfg["solver"] = {"frames": 32, "max_iter": 1}
    config = cl.parse_config(_write(tmp_path, cfg))
    artifacts = cl.run(config)
    assert artifacts.exit_code == EXIT_SOLVER_FAILURE
    assert "no fixed point" in artifacts.summary["error"]


def test_oracle_flag_records_deviation(tmp_path):
    out = tmp_path / "out"
    cfg = _certified_config(out)
    cfg["flags"] = {"run_oracle": True}
    config = cl.parse_config(_write(tmp_path, cfg))
    artifacts = cl.run(config)
    assert artifacts.exit_code == EXIT_OK
    assert artifacts.summary["oracle_rel_deviation"] <= 1e-4


# --------------------------------------------------------------------------
# plot data
# --------------------------------------------------------------------------


def test_decay_csv_slope_for_free_mode(tmp_path):
    # F == 0, single mode k=1 on an L=pi grid: log ||u(t)|| has slope a - 1
    out = tmp_path / "out"
    cfg = {
        "grid": {"L": np.pi, "N": 32},
        "model": {"a": 0.0, "b": 0.0},
        "kernel": {"name": "gaussian", "amplitude": 1.0, "width": 1.0},
        "nonlinearity": {"name": "linear_plus_source", "kappa": 0.0},
        "initial_condition": {"name": "mode", "amplitude": 1.0, "k": 1},
        "horizon": 0.5,
        "solver": {"frames": 32},
        "output_dir": str(out),
    }
    config = cl.parse_config(_write(tmp_path, cfg))
    artifacts = cl.run(config)
    assert artifacts.exit_code == EXIT_OK
    paths = cl.emit_plot_data(artifacts, "decay")
    rows = paths[0].read_text().splitlines()
    assert rows[0] == "t,l2"
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    slope = np.polyfit(data[:, 0], np.log(data[:, 1]), 1)[0]
    assert abs(slope - (0.0 - 1.0)) <= 1e-4


def test_snapshot_at_t0_matches_initial_condition(tmp_path):
    out = tmp_path / "out"
    config = cl.parse_config(_write(tmp_path, _certified_config(out)))
    artifacts = cl.run(config)
    paths = cl.emit_plot_data(artifacts, "snapshot", frames=[0])
    rows = paths[0].read_text().splitlines()
    assert rows[0] == "x,re_u"
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    expected = 1.0 * np.exp(-((data[:, 0]) / 1.5) ** 2)
    assert np.max(np.abs(data[:, 1] - expected)) <= 1e-10


def test_unknown_plot_selector(tmp_path):
    out = tmp_path / "out"
    config = cl.parse_config(_write(tmp_path, _certified_config(out)))
    artifacts = cl.run(config)
    with pytest.raises(ValueError, match="selector"):
        cl.emit_plot_data(artifacts, "spectrogram")


@pytest.mark.parametrize("frames", [[0, -1], [0, 33], [0, 1.0], [0, True], [0, "1"]],
                         ids=["negative", "past_M", "float", "bool", "string"])
def test_snapshot_refuses_a_frame_index_outside_0_to_M_before_writing(tmp_path, frames):
    out = tmp_path / "out"
    config = cl.parse_config(_write(tmp_path, _certified_config(out)))
    artifacts = cl.run(config)
    before = sorted(out.iterdir())
    with pytest.raises(ValueError, match=r"^snapshot frames must be integers in 0\.\.32, got "):
        cl.emit_plot_data(artifacts, "snapshot", frames=frames)
    assert sorted(out.iterdir()) == before
    # numpy integers name frames as ints do
    paths = cl.emit_plot_data(artifacts, "snapshot", frames=[np.int64(32)])
    assert [p.name for p in paths] == ["snapshot_f32.csv"]


@pytest.mark.parametrize("exit_code", [EXIT_CERTIFICATE_REFUSED, EXIT_OK])
def test_plot_data_refuses_a_run_without_reports(tmp_path, exit_code):
    # a refused run, and a run that reads exit 0 but kept no report
    artifacts = cl.RunArtifacts(exit_code=exit_code, output_dir=tmp_path, summary={})
    with pytest.raises(ValueError) as exc:
        cl.emit_plot_data(artifacts, "decay")
    assert type(exc.value) is ValueError
    assert str(exc.value) == "plot data requires a completed successful run"
    assert not list(tmp_path.iterdir())


# --------------------------------------------------------------------------
# command line entry
# --------------------------------------------------------------------------


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write(tmp_path, _certified_config(out))
    from cubelap.runner import main

    assert main(["--config", str(path)]) == EXIT_OK
    assert "status=ok" in capsys.readouterr().out
    # --out overrides the configured directory
    alt = tmp_path / "alt"
    assert main(["--config", str(path), "--out", str(alt)]) == EXIT_OK
    assert (alt / "certificate.txt").exists()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == EXIT_ASSUMPTION_VIOLATION


# --------------------------------------------------------------------------
# input contract and the catalog registry
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(horizon=float("nan")),
        lambda c: c.update(horizon=float("inf")),
        lambda c: c["solver"].update(max_iter=2.5),
        lambda c: c["solver"].update(tol_fix="tiny"),
        lambda c: c["solver"].update(max_window_length=-1),
        lambda c: c["model"].update(b=float("nan")),
        lambda c: c["nonlinearity"].update(lipschitz=True),
    ],
    ids=[
        "horizon_nan", "horizon_inf", "max_iter_fraction", "tol_fix_string",
        "max_window_negative", "b_nan", "lipschitz_bool",
    ],
)
def test_mistyped_config_exits_4(tmp_path, capsys, edit):
    from cubelap.runner import main

    cfg = _certified_config(tmp_path / "out")
    edit(cfg)
    assert main(["--config", str(_write(tmp_path, cfg))]) == EXIT_ASSUMPTION_VIOLATION
    assert "configuration rejected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [lambda c: c["grid"].update(N=255), lambda c: c["model"].update(a=-1.0)],
    ids=["n_odd", "a_negative"],
)
def test_parse_rejection_writes_artifacts_only_with_out(tmp_path, monkeypatch, capsys, edit):
    from cubelap.runner import main

    monkeypatch.chdir(tmp_path)
    cfg = _certified_config("configured_out")
    edit(cfg)
    path = _write(tmp_path, cfg)
    # without --out a config that cannot be parsed names no directory to trust
    assert main(["--config", str(path)]) == EXIT_ASSUMPTION_VIOLATION
    assert not (tmp_path / "configured_out").exists()

    out = tmp_path / "rejected"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_ASSUMPTION_VIOLATION
    cert = dict(
        line.split("=", 1) for line in (out / "certificate.txt").read_text().splitlines()
    )
    assert cert["valid"] == "false"
    for key in ("q", "l", "a", "b", "T", "C_small_T_limit", "T_max"):
        assert cert[key] == "None"
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[:2] == ["status=config_rejected", f"exit_code={EXIT_ASSUMPTION_VIOLATION}"]
    assert summary[2].startswith("error=") and "violates the constraint" in summary[2]
    assert len(summary) == 3
    assert sorted(f.name for f in out.iterdir()) == ["certificate.txt", "summary.txt"]


def _gaussian_csv(path, x):
    path.write_text("".join(f"{float(v)!r},{float(np.exp(-v * v))!r}\n" for v in x))


# (section, required-only section, its echo at the parent of the registry,
#  expected physical samples for sources and initial conditions)
CATALOG_CASES = [
    ("kernel", {"name": "gaussian"},
     {"amplitude": 1.0, "width": 1.0, "name": "gaussian"}, None),
    ("kernel", {"name": "sech"},
     {"amplitude": 1.0, "width": 1.0, "name": "sech"}, None),
    ("kernel", {"name": "bandlimited", "cutoff": 1.0},
     {"amplitude": 1.0, "name": "bandlimited", "cutoff": 1.0}, None),
    ("kernel", {"name": "tabulated", "path": "k.csv"},
     {"name": "tabulated", "path": "k.csv"}, None),
    ("source", {"name": "zero"}, {"name": "zero"}, lambda g: 0.0 * g.x),
    ("source", {"name": "gaussian"},
     {"amplitude": 1.0, "width": 1.0, "center": 0.0, "name": "gaussian"},
     lambda g: np.exp(-(g.x**2))),
    ("source", {"name": "bandlimited", "p_lo": 0.3, "p_hi": 1.0},
     {"amplitude": 1.0, "name": "bandlimited", "p_lo": 0.3, "p_hi": 1.0},
     lambda g: cl.source_bandlimited(g, 1.0, 0.3, 1.0)(g.x)),
    ("nonlinearity", {"name": "linear_plus_source", "kappa": 0.5},
     {"lipschitz": None, "source": {"name": "zero"}, "name": "linear_plus_source",
      "kappa": 0.5}, None),
    ("nonlinearity", {"name": "saturating", "lipschitz": 0.3},
     {"source": {"name": "zero"}, "name": "saturating", "lipschitz": 0.3}, None),
    ("nonlinearity", {"name": "logistic_clip", "lipschitz": 0.3, "u_max": 1.5},
     {"source": {"name": "zero"}, "name": "logistic_clip", "lipschitz": 0.3,
      "u_max": 1.5}, None),
    ("initial_condition", {"name": "zero"}, {"name": "zero"}, lambda g: 0.0 * g.x),
    ("initial_condition", {"name": "gaussian"},
     {"amplitude": 1.0, "width": 1.0, "center": 0.0, "name": "gaussian"},
     lambda g: np.exp(-(g.x**2))),
    ("initial_condition", {"name": "mode", "k": 2},
     {"amplitude": 1.0, "name": "mode", "k": 2},
     lambda g: np.cos(2 * np.pi * g.x / g.half_length)),
    ("initial_condition", {"name": "csv", "path": "u0.csv"},
     {"name": "csv", "path": "u0.csv"},
     lambda g: np.interp(g.x, np.linspace(-5, 5, 101), np.exp(-np.linspace(-5, 5, 101) ** 2),
                         left=0.0, right=0.0)),
]


def test_catalog_cases_cover_every_entry():
    from cubelap.model import KERNELS, NONLINEARITIES, SOURCES
    from cubelap.runner import INITIAL_CONDITIONS

    catalogs = {"kernel": KERNELS, "source": SOURCES, "nonlinearity": NONLINEARITIES,
                "initial_condition": INITIAL_CONDITIONS}
    covered = {(sec, given["name"]) for sec, given, _, _ in CATALOG_CASES}
    assert covered == {(sec, name) for sec, cat in catalogs.items() for name in cat}


@pytest.mark.parametrize(
    "section,given,echo,expected", CATALOG_CASES,
    ids=[f"{c[0]}-{c[1]['name']}" for c in CATALOG_CASES],
)
def test_catalog_entry_parses_and_builds(tmp_path, monkeypatch, section, given, echo, expected):
    monkeypatch.chdir(tmp_path)
    _gaussian_csv(tmp_path / "k.csv", np.linspace(-8, 8, 161))
    _gaussian_csv(tmp_path / "u0.csv", np.linspace(-5, 5, 101))
    cfg = {
        "grid": {"L": 20.0, "N": 256},
        "model": {"a": 0.0, "b": 1.0},
        "kernel": {"name": "gaussian"},
        "nonlinearity": {"name": "saturating", "lipschitz": 0.3},
        "initial_condition": {"name": "zero"},
        "horizon": 0.4,
    }
    if section == "source":
        cfg["nonlinearity"]["source"] = given
    else:
        cfg[section] = given
    config = cl.parse_config(_write(tmp_path, cfg))
    out = config.echo()
    got = out["nonlinearity"]["source"] if section == "source" else out[section]
    # key order is part of config_echo.json
    assert list(got.items()) == list(echo.items())

    prob = cl.build_problem(config)
    grid = prob.grid
    if section in ("kernel", "nonlinearity"):
        spec = getattr(prob, section)
        assert spec.name == given["name"]
        assert all(echo[k] == v for k, v in spec.params.items() if k in echo)
    elif section == "source":
        assert np.allclose(prob.nonlinearity.source(grid.x), expected(grid), rtol=0, atol=1e-14)
    else:
        assert np.allclose(prob.u0.values.real, expected(grid), rtol=0, atol=1e-14)


# --------------------------------------------------------------------------
# gates and the exit-code contract through the front door
# --------------------------------------------------------------------------


def _main_artifacts(tmp_path, cfg):
    """Run the config through main with --out; the exit code and both artifacts."""
    from cubelap.runner import main

    out = tmp_path / "main_out"
    code = main(["--config", str(_write(tmp_path, cfg)), "--out", str(out)])
    cert = dict(
        line.split("=", 1) for line in (out / "certificate.txt").read_text().splitlines()
        if not line.startswith("#")
    )
    summary = dict(line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines())
    return code, cert, summary


def test_ratio_gate_exits_3_through_main(tmp_path, monkeypatch):
    # F = 3.8 u declared 40 times flatter: C = 0.0125 while the measured ratio
    # is about 40 times that. The sampled Lipschitz check would reject the
    # declaration first, so it is stubbed out: the ratio gate is what must
    # catch a constant that sampling missed.
    import cubelap.runner as runner

    monkeypatch.setattr(runner, "check_lipschitz_sampling", lambda *a, **kw: 0.0)
    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"] = {"name": "linear_plus_source", "kappa": 3.8, "lipschitz": 3.8 / 40}
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_SOLVER_FAILURE
    assert summary["status"] == "solver_failure"
    assert summary["error"].startswith("window 0 failed (picard): measured ratio")
    assert "exceeds C * 1.05" in summary["error"]
    assert cert["valid"] == "false" and float(cert["l"]) == 3.8 / 40


def test_oracle_blowup_exits_3_through_main(tmp_path):
    # a = 40 makes the cos(x) start grow like e^{39 t}; the weak kernel keeps
    # the certificate valid on the 0.7-long window, so the Picard solve passes
    # and the Heun oracle's blowup check is what fails the run
    cfg = _certified_config(tmp_path / "out")
    cfg.update(
        grid={"L": np.pi, "N": 32},
        model={"a": 40.0, "b": 0.0},
        kernel={"name": "gaussian", "amplitude": 1e-6, "width": 1.0},
        nonlinearity={"name": "linear_plus_source", "kappa": 0.0},
        initial_condition={"name": "mode", "k": 1},
        horizon=0.7,
        solver={"frames": 16, "max_window_length": 0.7, "oracle_substeps_factor": 16},
        flags={"run_oracle": True},
    )
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_SOLVER_FAILURE
    assert summary["status"] == "solver_failure"
    assert summary["error"].startswith(
        "window 0 failed (oracle): reference marcher unstable at step 174:"
    )
    assert cert["valid"] == "false"


def test_non_finite_forcing_exits_3_through_main(tmp_path):
    # from the zero start, F(0) = h is a gaussian of peak 1e308: every sample
    # is finite and the growth check passes (both norms overflow to inf), but
    # the transform of F sums the samples past the largest float
    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"] = {
        "name": "linear_plus_source", "kappa": 1.0,
        "source": {"name": "gaussian", "amplitude": 1e308, "width": 1.0},
    }
    cfg["initial_condition"] = {"name": "zero"}
    with np.errstate(over="ignore"):  # the Lipschitz sampler's F overflows too
        code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_SOLVER_FAILURE
    assert summary["status"] == "solver_failure"
    assert summary["error"] == (
        "window 0 failed (picard): forcing history contains non-finite values"
    )
    assert cert["valid"] == "false" and float(cert["l"]) == 1.0


def test_lipschitz_underdeclaration_near_the_float_limit_exits_2_through_main(tmp_path):
    # F = 1e300 u + h(x), h ~ 1e308 on the sampled x, declared l = 1 (the
    # probe of test_model): rejected at the sampling check, with no overflow
    import warnings

    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"] = {
        "name": "linear_plus_source", "kappa": 1e300, "lipschitz": 1.0,
        "source": {"name": "gaussian", "amplitude": 1e308, "width": 1e6},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "assumption_violation"
    assert summary["error"].startswith("declared Lipschitz constant 1 is wrong")
    assert cert["valid"] == "false"


def test_growth_bound_exits_3_through_main(tmp_path, monkeypatch):
    # F = 3.8 u declared with growth constant 3.8/40. No catalog entry
    # understates its growth constant, so the built problem is edited
    import dataclasses

    import cubelap.runner as runner

    build = runner.build_problem

    def understated(config):
        prob = build(config)
        nl = dataclasses.replace(prob.nonlinearity, growth_k=3.8 / 40)
        return dataclasses.replace(prob, nonlinearity=nl)

    monkeypatch.setattr(runner, "build_problem", understated)
    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"] = {"name": "linear_plus_source", "kappa": 3.8}
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_SOLVER_FAILURE
    assert summary["status"] == "solver_failure"
    assert summary["error"].startswith("window 0 failed (picard): growth bound violated: "
                                        "||F(u)|| = ")
    assert summary["error"].endswith(" in frame 0")
    assert cert["valid"] == "false" and float(cert["l"]) == 3.8


def test_report_memory_beyond_the_budget_exits_4_through_main(tmp_path):
    # horizon 1e6 at the certified window length is 968,800 windows, whose
    # reports would take 132 GB: refused once q and l fix the schedule,
    # before any window is solved
    import time

    from cubelap.runner import MEMORY_BUDGET_BYTES

    cfg = _certified_config(tmp_path / "out")
    cfg["horizon"] = 1e6
    t0 = time.perf_counter()
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "assumption_violation"
    count, n_half = 968_800, 129
    assert summary["error"] == (
        f"the schedule's {count} windows would keep {2 * count * 33 * n_half * 16} bytes "
        "of reports, more than the 2 GiB memory budget"
    )
    assert 2 * count * 33 * n_half * 16 > MEMORY_BUDGET_BYTES
    assert cert["valid"] == "false" and float(cert["l"]) == 3.8
    assert not list((tmp_path / "main_out").glob("trace_w*.csv"))


def test_a_run_plans_its_march_once(tmp_path, monkeypatch):
    # global_march makes the run's one plan and the runner marches once,
    # reporting the certificate of that plan
    import cubelap.evolve as evolve
    import cubelap.runner as runner

    def counting(calls, f):
        def wrapper(*args, **kwargs):
            calls.append(f(*args, **kwargs))
            return calls[-1]

        return wrapper

    plans, marches = [], []
    for module in (runner, evolve):
        if hasattr(module, "window_schedule"):
            monkeypatch.setattr(module, "window_schedule",
                                counting(plans, module.window_schedule))
    monkeypatch.setattr(runner, "global_march", counting(marches, runner.global_march))
    cfg = _certified_config(tmp_path / "out", solver={"frames": 32, "max_window_length": 0.2})
    artifacts = runner.run(cl.parse_config(_write(tmp_path, cfg)))
    assert artifacts.exit_code == EXIT_OK and len(artifacts.reports) == 2
    assert len(plans) == 1 and len(marches) == 1
    (schedule,) = plans
    assert all(rep.certificate is schedule.certificate for rep in artifacts.reports)
    assert (tmp_path / "out" / "certificate.txt").read_text() == (
        cl.certificate_report(schedule.certificate))
    assert artifacts.summary["window_length"] == schedule.window_length


def test_tail_warning_reaches_summary(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    # a bump near the right edge of the box [-20, 20)
    cfg["initial_condition"] = {"name": "gaussian", "amplitude": 1.0, "width": 1.0,
                                "center": 18.0}
    code, _, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_OK
    assert summary["tail_warnings"].startswith("tail mass fraction")
    assert "box truncation is suspect" in summary["tail_warnings"]


@pytest.mark.parametrize(
    "edit,key",
    [
        (lambda c: c["grid"].update(N=2**30), "grid.N * (solver.frames + 1)"),
        (lambda c: c["solver"].update(frames=10**7), "grid.N * (solver.frames + 1)"),
        (lambda c: c["solver"].update(lipschitz_trials=10**10), "solver.lipschitz_trials"),
    ],
    ids=["n_huge", "frames_huge", "trials_huge"],
)
def test_sizes_beyond_the_memory_budget_exit_4_at_parse(tmp_path, edit, key):
    cfg = _certified_config(tmp_path / "out")
    edit(cfg)
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "config_rejected"
    assert summary["error"].startswith(key) and "memory budget" in summary["error"]
    assert cert["valid"] == "false"


def test_memory_bounds_admit_the_grid_ladder(tmp_path):
    from cubelap.runner import MAX_LIPSCHITZ_TRIALS, MAX_TRAJECTORY_VALUES

    for n in (256, 1024, 4096, 16384):
        for frames in (64, 256):
            cfg = _certified_config(tmp_path / "out")
            cfg["grid"]["N"] = n
            cfg["solver"] = {"frames": frames, "lipschitz_trials": 2000}
            cl.parse_config(_write(tmp_path, cfg))
    assert 16384 * 257 <= MAX_TRAJECTORY_VALUES and 2000 <= MAX_LIPSCHITZ_TRIALS


def test_a_run_of_many_frames_writes_its_field(tmp_path):
    # 16384 frames of N = 16: the time grid's spacings spread past 1e-12 of
    # the spacing, yet the run exits 0 and its field loads back
    cfg = _certified_config(tmp_path / "out", grid={"L": 20.0, "N": 16},
                            solver={"frames": 16384})
    code, _, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_OK and summary["status"] == "ok"
    field = cl.load_spacetime_field(tmp_path / "main_out" / "final_field.sxd")
    assert field.frames.shape == (16385, 16) and field.horizon == 0.4


@pytest.mark.parametrize("horizon, spacing", [(1e-310, "6.25e-312"), (5e-324, "0")])
def test_a_subnormal_frame_spacing_exits_4_before_window_0(tmp_path, horizon, spacing):
    # 16 frames over a subnormal horizon: no uniform time grid has that
    # spacing, so the march refuses it before solving, with no window CSV
    cfg = _certified_config(tmp_path / "out", grid={"L": 20.0, "N": 64}, horizon=horizon,
                            solver={"frames": 16})
    cfg["nonlinearity"] = {"name": "saturating", "lipschitz": 2.0}
    code, _, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "assumption_violation"
    assert summary["error"] == (f"frame spacing window_length / n_frames = {spacing} is below "
                                "the smallest normal float 2.22507e-308")
    out = tmp_path / "main_out"
    assert not list(out.glob("*_w*.csv")) and not (out / "final_field.sxd").exists()


def test_unforeseen_solver_exception_exits_3_with_artifacts(tmp_path, monkeypatch):
    import cubelap.runner as runner

    def out_of_memory(*args, **kwargs):
        raise MemoryError("stand-in: no memory left")

    monkeypatch.setattr(runner, "global_march", out_of_memory)
    code, cert, summary = _main_artifacts(tmp_path, _certified_config(tmp_path / "out"))
    assert code == EXIT_SOLVER_FAILURE
    assert summary["status"] == "solver_failure"
    assert summary["error"] == "MemoryError: stand-in: no memory left"
    assert cert["valid"] == "false" and cert["T"] == "None"


def test_failure_while_writing_results_exits_3_and_keeps_the_certificate(tmp_path, monkeypatch):
    import cubelap.runner as runner

    def out_of_memory(*args, **kwargs):
        raise MemoryError("stand-in: no memory for the dump")

    monkeypatch.setattr(runner, "dump_spacetime_field", out_of_memory)
    code, cert, summary = _main_artifacts(tmp_path, _certified_config(tmp_path / "out"))
    assert code == EXIT_SOLVER_FAILURE
    assert summary["error"] == "MemoryError: stand-in: no memory for the dump"
    # the run's own certificate was written before the failure and stays
    assert cert["valid"] == "true" and cert["T"] != "None"


@pytest.mark.parametrize("valid", [True, False], ids=["valid_config", "rejected_config"])
def test_out_naming_a_file_exits_4_without_traceback(tmp_path, capsys, valid):
    from cubelap.runner import main

    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    if valid:
        path = _write(tmp_path, _certified_config(tmp_path / "out"))
    else:
        path = tmp_path / "bad.json"
        path.write_text("{not json")
    assert main(["--config", str(path), "--out", str(taken)]) == EXIT_ASSUMPTION_VIOLATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    # a rejected config says so first; either way one line names the directory
    assert len(err) == (1 if valid else 2)
    assert err[-1].startswith(f"{taken} cannot be written: ")
    assert taken.read_text() == "not a directory\n"
    if valid:
        # the run reports the directory as an artifact it cannot write
        assert captured.out.startswith("status=assumption_violation exit=4 (")
        config = cl.parse_config(path)
        config.output_dir = str(taken)
        artifacts = cl.run(config)
        assert artifacts.exit_code == EXIT_ASSUMPTION_VIOLATION
        assert artifacts.summary["status"] == "assumption_violation"
        assert str(taken) in artifacts.summary["error"]
        assert taken.read_text() == "not a directory\n"


def test_missing_csv_exits_4_with_artifacts(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    cfg["initial_condition"] = {"name": "csv", "path": str(tmp_path / "absent.csv")}
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "assumption_violation"
    assert cert["valid"] == "false"


def test_config_echo_that_cannot_be_written_exits_4_with_artifacts(tmp_path):
    # config_echo.json is the run's first artifact: a directory in its place
    # ends the run before set-up, as an artifact that cannot be written
    (tmp_path / "main_out" / "config_echo.json").mkdir(parents=True)
    code, cert, summary = _main_artifacts(tmp_path, _certified_config(tmp_path / "out"))
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "assumption_violation"
    assert summary["error"].endswith("config_echo.json'")
    assert cert["valid"] == "false" and cert["q"] == cert["l"] == "nan"


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(nonlinearity={"name": "linear_plus_source", "kappa": 0.0,
                                         "lipschitz": 0.0}),
        lambda c: c["nonlinearity"]["source"].update(width=0.0),
        lambda c: c["nonlinearity"]["source"].update(width=-1.0),
        lambda c: c.update(initial_condition={"name": "gaussian", "width": 0.0}),
        lambda c: c.update(initial_condition={"name": "gaussian", "width": -1.0}),
    ],
    ids=["lipschitz_zero", "source_width_zero", "source_width_negative",
         "initial_width_zero", "initial_width_negative"],
)
def test_non_positive_catalog_constants_exit_4_at_build(tmp_path, edit):
    cfg = _certified_config(tmp_path / "out", grid={"L": 20.0, "N": 64})
    edit(cfg)
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "assumption_violation"
    assert summary["error"].endswith("must be positive")
    assert cert["valid"] == "false" and cert["q"] == "nan"


_PARTIAL_KEYS = ["q", "l", "a", "b", "T", "C_small_T_limit", "valid", "T_max"]
_OWN_KEYS = ["q", "l", "a", "b", "T", "C", "valid", "T_max"]


def _missing_kernel_csv(cfg, tmp_path):
    cfg["kernel"] = {"name": "tabulated", "path": str(tmp_path / "absent.csv")}


def _refused(cfg, tmp_path):
    cfg["kernel"] = {"name": "gaussian", "amplitude": 1.0, "width": 1.0}
    cfg["nonlinearity"] = {"name": "saturating", "lipschitz": 1.0}


def _raises_memory_error(*args, **kwargs):
    raise MemoryError("stand-in: no memory left")


def _raises_value_error(*args, **kwargs):
    raise ValueError("stand-in: a bare value error")


def _raises_os_error(*args, **kwargs):
    raise OSError(errno.ENOSPC, "stand-in: no space left on device")


# id: (config edit, (module, global, stand-in that raises) or None, exit
#      code, status, C_small_T_limit: "None", "nan", the limit of q and l, or
#      absent because the run's own certificate was written)
TRAIL_CASES = {
    "rejected_config": (lambda c, d: c["model"].update(a=-1.0), None,
                        EXIT_ASSUMPTION_VIOLATION, "config_rejected", "None"),
    "missing_kernel_csv": (_missing_kernel_csv, None,
                           EXIT_ASSUMPTION_VIOLATION, "assumption_violation", "nan"),
    "underdeclared_lipschitz": (
        lambda c, d: c.update(nonlinearity={"name": "linear_plus_source", "kappa": 2.0,
                                            "lipschitz": 0.5}),
        None, EXIT_ASSUMPTION_VIOLATION, "assumption_violation", "limit"),
    "refusal": (_refused, None, EXIT_CERTIFICATE_REFUSED, "certificate_refused", "limit"),
    "report_budget": (lambda c, d: c.update(horizon=1e6), None,
                      EXIT_ASSUMPTION_VIOLATION, "assumption_violation", "limit"),
    "max_iter_one": (lambda c, d: c["solver"].update(max_iter=1), None,
                     EXIT_SOLVER_FAILURE, "solver_failure", "limit"),
    "memory_error": (None, (cl.runner, "global_march", _raises_memory_error),
                     EXIT_SOLVER_FAILURE, "solver_failure", "limit"),
    # a bare ValueError inside window 0 reaches the runner as window 0's
    # failure, MarchWindowError, which is a solver failure by its type
    "value_error_in_window_0": (None, (cl.evolve, "picard_solve", _raises_value_error),
                                EXIT_SOLVER_FAILURE, "solver_failure", "limit"),
    "failure_after_certificate": (None, (cl.runner, "dump_spacetime_field", _raises_memory_error),
                                  EXIT_SOLVER_FAILURE, "solver_failure", None),
    # an artifact that cannot be written is exit 4, whenever it happens
    "os_error_after_certificate": (None, (cl.runner, "dump_spacetime_field", _raises_os_error),
                                   EXIT_ASSUMPTION_VIOLATION, "assumption_violation", None),
}


@pytest.mark.parametrize("case", list(TRAIL_CASES))
def test_certificate_trail_on_every_exit_path(tmp_path, monkeypatch, case):
    import math

    import cubelap.runner as runner

    edit, stubbed, code, status, limit = TRAIL_CASES[case]
    cfg = _certified_config(tmp_path / "out")
    if edit is not None:
        edit(cfg, tmp_path)
    if stubbed is not None:
        monkeypatch.setattr(*stubbed)
    out = tmp_path / "main_out"
    assert runner.main(["--config", str(_write(tmp_path, cfg)), "--out", str(out)]) == code
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[:2] == [f"status={status}", f"exit_code={code}"]
    lines = (out / "certificate.txt").read_text().splitlines()
    cert = dict(line.split("=", 1) for line in lines)
    assert [line.split("=", 1)[0] for line in lines] == (_PARTIAL_KEYS if limit else _OWN_KEYS)
    assert cert["valid"] == ("true" if limit is None else "false")
    if limit == "limit":
        q, ell = float(cert["q"]), float(cert["l"])
        assert math.isfinite(q) and math.isfinite(ell)
        assert cert["C_small_T_limit"] == repr(q * ell * math.sqrt(2.0))
    elif limit is not None:
        assert cert["C_small_T_limit"] == limit
        assert cert["q"] == cert["l"] == limit


# id: the config edit of a run whose every write is made to fail in turn
WRITE_FAILURE_CASES = {
    "two_windows": lambda c, d: c["solver"].update(max_window_length=0.2),
    "refusal": TRAIL_CASES["refusal"][0],
    "max_iter_one": TRAIL_CASES["max_iter_one"][0],
    "rejected_config": TRAIL_CASES["rejected_config"][0],
}


@pytest.mark.parametrize("case", list(WRITE_FAILURE_CASES))
def test_a_write_failure_at_every_write_index_exits_4_without_traceback(
        tmp_path, monkeypatch, capsys, case):
    import cubelap.runner as runner

    cfg = _certified_config(tmp_path / "out", grid={"L": 20.0, "N": 64})
    WRITE_FAILURE_CASES[case](cfg, tmp_path)
    config = str(_write(tmp_path, cfg))
    written: list[Path] = []
    fail_at = None  # the 1-based index of the first write that fails

    def failing(write):
        def stand_in(path, *args, **kwargs):
            written.append(Path(path))
            if fail_at is not None and len(written) >= fail_at:
                raise OSError(errno.ENOSPC, "stand-in: no space left on device")
            return write(path, *args, **kwargs)
        return stand_in

    monkeypatch.setattr(Path, "write_text", failing(Path.write_text))
    monkeypatch.setattr(runner, "dump_spacetime_field", failing(runner.dump_spacetime_field))

    def main(out):
        written.clear()
        code = runner.main(["--config", config, "--out", str(out)])
        return code, capsys.readouterr()

    clean_code, _ = main(tmp_path / "clean")
    names = [path.name for path in written]
    assert names[-1] == "summary.txt"
    if case == "two_windows":
        assert clean_code == EXIT_OK and "norms_w1.csv" in names and "final_field.sxd" in names
    for fail_at in range(1, len(names) + 1):
        out = tmp_path / f"fail_at_{fail_at}"
        code, captured = main(out)
        assert code == EXIT_ASSUMPTION_VIOLATION, fail_at
        # every later write fails too, so the trail is lost and stderr names it
        assert not (out / "summary.txt").exists()
        lines = [line for line in captured.err.splitlines() if "stand-in" in line]
        assert len(lines) == 1, (fail_at, captured.err)
        assert lines[0].startswith(f"{out}{os.sep}")
        assert lines[0].endswith(" cannot be written: stand-in: no space left on device")
        if case != "rejected_config":
            assert captured.out.startswith("status=assumption_violation exit=4 (")


@pytest.mark.parametrize("valid", [True, False], ids=["valid_config", "rejected_config"])
def test_summary_that_cannot_be_written_exits_4_without_traceback(tmp_path, capsys, valid):
    from cubelap.runner import main

    out = tmp_path / "out"
    (out / "summary.txt").mkdir(parents=True)
    if valid:
        path = _write(tmp_path, _certified_config(tmp_path / "configured"))
    else:
        path = tmp_path / "bad.json"
        path.write_text("{not json")
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_ASSUMPTION_VIOLATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    # a rejected config says so first, then the write that failed
    assert len(err) == (1 if valid else 2)
    assert err[-1].startswith(f"{out / 'summary.txt'} cannot be written: ")
    if valid:
        assert captured.out.startswith("status=assumption_violation exit=4 (")
        assert (out / "certificate.txt").read_text().startswith("q=")


def _not_utf8(cfg, path):
    path.write_bytes(json.dumps(cfg).encode("utf-16"))


def _three_column_csv(cfg, path):
    table = path.parent / "ic.csv"
    table.write_text("".join(f"{v},{v},0\n" for v in range(-5, 6)))
    cfg["initial_condition"] = {"name": "csv", "path": str(table)}


def _csv_rows(rows):
    def edit(cfg, path):
        table = path.parent / "ic.csv"
        table.write_text("".join(f"{x},{u}\n" for x, u in rows))
        cfg["initial_condition"] = {"name": "csv", "path": str(table)}

    return edit


_GAUSSIAN_ROWS = [(x, np.exp(-x * x)) for x in np.linspace(-5.0, 5.0, 201)]


def _edit(section, **values):
    return lambda cfg, path: cfg[section].update(values)


# id: (edit of the config, or a write of the file at the path in its place;
#      a part of the error; False for a rejection while the problem is built)
REJECTION_CASES = {
    "not_utf8": (_not_utf8, "cannot be read", True),
    "top_level_not_object": (lambda c, p: p.write_text("[1, 2]"),
                             "top-level config must be an object", True),
    "section_not_object": (lambda c, p: c.update(model=[0.0, 1.0]),
                           "section 'model' must be an object", True),
    "L_zero": (_edit("grid", L=0.0), "grid.L violates", True),
    "horizon_zero": (lambda c, p: c.update(horizon=0.0), "horizon violates", True),
    "frames_one": (_edit("solver", frames=1), "solver.frames violates", True),
    "safety_one": (_edit("solver", safety=1.0), "solver.safety violates", True),
    "max_iter_zero": (_edit("solver", max_iter=0), "solver.max_iter violates", True),
    "lipschitz_trials_zero": (_edit("solver", lipschitz_trials=0),
                              "solver.lipschitz_trials violates", True),
    "seed_negative": (_edit("solver", seed=-1), "solver.seed violates", True),
    "oracle_factor_three": (_edit("solver", oracle_substeps_factor=3),
                            "solver.oracle_substeps_factor violates", True),
    "flag_not_boolean": (_edit("flags", run_oracle=1), "flags.run_oracle must be a boolean",
                         True),
    "output_dir_empty": (lambda c, p: c.update(output_dir=""),
                         "output_dir must be a nonempty string", True),
    "subsection_without_name": (lambda c, p: c["nonlinearity"].update(source={"width": 1.0}),
                                "nonlinearity.source needs a 'name'", True),
    "path_not_string": (lambda c, p: c.update(initial_condition={"name": "csv", "path": 3}),
                        "initial_condition.path must be a string", True),
    "csv_three_columns": (_three_column_csv, "expected two columns", False),
    "csv_one_row": (_csv_rows([(0.0, 1.0)]), "needs two rows or more, got 1", False),
    "csv_x_decreasing": (_csv_rows(_GAUSSIAN_ROWS[::-1]),
                         "x samples must be strictly increasing", False),
}


@pytest.mark.parametrize("case", list(REJECTION_CASES))
def test_rejected_configs_exit_4_through_main(tmp_path, capsys, case):
    import cubelap.runner as runner

    edit, error, at_parse = REJECTION_CASES[case]
    cfg = _certified_config(tmp_path / "out")
    path = tmp_path / "run.json"
    edit(cfg, path)
    if not path.exists():  # the edit changed the config, not the file
        path.write_text(json.dumps(cfg))
    out = tmp_path / "main_out"
    assert runner.main(["--config", str(path), "--out", str(out)]) == EXIT_ASSUMPTION_VIOLATION
    summary = (out / "summary.txt").read_text().splitlines()
    status = "config_rejected" if at_parse else "assumption_violation"
    assert summary[:2] == [f"status={status}", f"exit_code={EXIT_ASSUMPTION_VIOLATION}"]
    assert error in dict(line.split("=", 1) for line in summary)["error"]
    lines = (out / "certificate.txt").read_text().splitlines()
    assert [line.split("=", 1)[0] for line in lines] == _PARTIAL_KEYS
    cert = dict(line.split("=", 1) for line in lines)
    assert cert["valid"] == "false"
    if at_parse:
        assert all(cert[key] == "None" for key in _PARTIAL_KEYS if key != "valid")
        assert "configuration rejected: " in capsys.readouterr().err


_MAIN_SCRIPT = """
import sys
from cubelap.runner import main
sys.exit(main(sys.argv[1:]))
"""


def test_empty_csv_exits_4_with_its_one_line_error_only(tmp_path):
    # in a fresh interpreter, so that numpy's warnings reach stderr as they
    # would on the command line, not pytest's warning capture
    table = tmp_path / "ic.csv"
    table.write_text("")
    cfg = _certified_config(tmp_path / "out")
    cfg["initial_condition"] = {"name": "csv", "path": str(table)}
    path = _write(tmp_path, cfg)
    src = str(Path(cl.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_SCRIPT, "--config", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
        cwd=tmp_path,
    )
    assert proc.returncode == EXIT_ASSUMPTION_VIOLATION
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("status=assumption_violation exit=4 (")
    assert "needs two rows or more, got 0" in lines[0]


# --------------------------------------------------------------------------
# summary diagnostics of the contraction
# --------------------------------------------------------------------------


def _trace_columns(out, windows):
    """(last distance, reported ratios, C) of each window's trace CSV."""
    cols = []
    for k in range(windows):
        rows = [line.split(",") for line in (out / f"trace_w{k}.csv").read_text().splitlines()[1:]]
        cols.append((float(rows[-1][1]), [float(r[2]) for r in rows if r[2]], float(rows[0][3])))
    return cols


def test_summary_reports_certificate_slack_and_picard_error_bound(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    cfg["horizon"] = 0.9
    cfg["solver"] = {"frames": 32, "max_window_length": 0.3}  # three windows
    code, _, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_OK
    out = tmp_path / "main_out"
    cols = _trace_columns(out, int(summary["windows"]))
    assert len(cols) == 3
    c = float(summary["C"])
    max_ratio = max(r for _, ratios, _ in cols for r in ratios)
    assert float(summary["max_picard_ratio"]) == max_ratio
    slack = float(summary["certificate_slack"])
    assert slack == max_ratio / c
    assert 0.0 < slack <= 1.05
    bound = float(summary["picard_error_bound"])
    assert bound == c / (1.0 - c) * max(d_last for d_last, _, _ in cols)
    assert bound > 0.0


def test_summary_diagnostics_read_none_without_a_ratio(tmp_path):
    # F == 0: the first iterate is the fixed point, so no ratio is measured
    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"] = {"name": "linear_plus_source", "kappa": 0.0}
    code, _, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_OK
    assert summary["max_picard_ratio"] == "none"
    assert summary["oracle_rel_deviation"] == "none"
    assert summary["certificate_slack"] == "none"
    assert summary["picard_error_bound"] == "none"


_ZERO_F0 = "F(0, .) is identically zero: the nontriviality hypothesis cannot hold"


def test_runner_measures_the_overlap_among_its_runtime_warnings(tmp_path):
    # F(0, .) = 0: overlap 0.0, and the warning of nontriviality_overlap is
    # one of the run's runtime warnings, listed once
    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"] = {"name": "saturating", "lipschitz": 3.8}
    code, _, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_OK
    assert summary["overlap"] == "0.0"
    assert summary["runtime_warnings"].split("; ").count(_ZERO_F0) == 1
    # a gaussian source: the problem's own overlap, bit for bit
    config = cl.parse_config(_write(tmp_path, _certified_config(tmp_path / "g_out"), "g.json"))
    artifacts = cl.run(config)
    prob = cl.build_problem(config)
    overlap = cl.nontriviality_overlap(prob.kernel, prob.nonlinearity, prob.grid)
    assert overlap > 0.0
    assert artifacts.summary["overlap"].hex() == overlap.hex()
    assert f"overlap={overlap!r}" in (tmp_path / "g_out" / "summary.txt").read_text()


def test_records_keep_only_what_they_measured():
    from dataclasses import fields

    def names(record):
        return {f.name for f in fields(record)}

    assert "overlap" not in names(cl.SolveReport)
    assert names(cl.KernelValidationReport) == {"tail_fraction", "spectral_tail_fraction", "notes"}
    assert names(cl.WindowSchedule) == {"t_total", "t_w", "count", "certificate"}
    assert names(cl.RunArtifacts) == {"exit_code", "output_dir", "summary", "reports"}


def test_summary_diagnostics_read_none_when_c_is_not_below_one(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"]["lipschitz"] = 12.0  # q*l*sqrt(2) > 1: no certified window
    cfg["solver"] = {"frames": 32, "max_window_length": 0.2}
    cfg["flags"] = {"override_certificate": True}
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_OK
    assert float(cert["C"]) >= 1.0
    assert float(summary["max_picard_ratio"]) > 0.0
    assert summary["certificate_slack"] == "none"
    assert summary["picard_error_bound"] == "none"


def test_override_certificate_flag_watermarks_every_text_artifact(tmp_path):
    from cubelap.runner import main

    cfg = _certified_config(tmp_path / "out")
    cfg["nonlinearity"]["lipschitz"] = 12.0  # q*l*sqrt(2) > 1: no certified window
    cfg["solver"] = {"frames": 32, "max_window_length": 0.2}
    out = tmp_path / "main_out"
    path = str(_write(tmp_path, cfg))
    assert main(["--config", path, "--out", str(out), "--override-certificate"]) == EXIT_OK
    texts = sorted(f for f in out.iterdir() if f.suffix in (".txt", ".csv"))
    assert [f.name for f in texts] == [
        "certificate.txt", "norms_w0.csv", "norms_w1.csv", "summary.txt",
        "trace_w0.csv", "trace_w1.csv",
    ]
    for f in texts:
        assert f.read_text().startswith("# OVERRIDE: certificate invalid (C="), f.name
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["flags"] == {"run_oracle": False, "override_certificate": True}
    # the plot CSVs of the same run carry the watermark too
    config = cl.parse_config(path)
    config.output_dir = str(tmp_path / "lib_out")
    config.flags["override_certificate"] = True
    artifacts = cl.run(config)
    assert artifacts.exit_code == EXIT_OK
    plots = [p for which in ("decay", "trace", "snapshot")
             for p in cl.emit_plot_data(artifacts, which)]
    assert [p.name for p in plots] == ["decay.csv", "trace.csv", "snapshot_f0.csv",
                                       "snapshot_f32.csv"]
    for p in plots:
        assert p.read_text().startswith("# OVERRIDE: certificate invalid (C="), p.name


def _override_run(tmp_path, horizon, max_window_length, a=0.0, **solver):
    """(exit code, summary keys) of an override run: q*l*sqrt(2) > 1, so no
    certified window exists."""
    from cubelap.runner import main

    cfg = _certified_config(tmp_path / "out", horizon=horizon)
    cfg["model"]["a"] = a
    cfg["nonlinearity"]["lipschitz"] = 12.0
    cfg["solver"] = {"frames": 32, "max_window_length": max_window_length, **solver}
    out = tmp_path / "main_out"
    code = main(["--config", str(_write(tmp_path, cfg)), "--out", str(out),
                 "--override-certificate"])
    assert (out / "certificate.txt").exists()
    lines = (out / "summary.txt").read_text().splitlines()
    return code, dict(line.split("=", 1) for line in lines if not line.startswith("#"))


def test_override_run_lists_each_runtime_warning_once(tmp_path):
    # every window warns that it iterates without a certificate
    code, summary = _override_run(tmp_path, 0.6, 0.2)
    assert code == EXIT_OK and summary["windows"] == "3"
    assert summary["runtime_warnings"].count("OVERRIDE") == 1
    assert summary["runtime_warnings"].startswith("OVERRIDE: iterating without")


def test_override_run_whose_constant_overflows_names_the_norm(tmp_path):
    # a*T = 400: C = 2.5e176, and the first image's norm leaves the float range
    code, summary = _override_run(tmp_path, 1.0, 1.0, a=400.0)
    assert code == EXIT_SOLVER_FAILURE
    assert summary["error"] == (
        "window 0 failed (picard): the first Picard image has a non-finite norm (inf); "
        "no default tolerance can be set from it"
    )


def test_override_run_with_a_tolerance_stops_at_the_first_non_finite_distance(tmp_path):
    # the run above with tol_fix given: its first distance is already inf
    code, summary = _override_run(tmp_path, 1.0, 1.0, a=400.0, tol_fix=1e-8)
    assert code == EXIT_SOLVER_FAILURE
    assert summary["error"] == (
        "window 0 failed (picard): the Picard distance of iteration 1 is not finite "
        "(last distance inf, tol 1.000e-08)"
    )


def _box_case(half_length):
    def edit(cfg):
        cfg.update(grid={"L": half_length, "N": 64}, initial_condition={"name": "zero"})

    return edit, EXIT_ASSUMPTION_VIOLATION, f"the box L = {half_length!r} with N = 64 "


# id: (config edit, exit code, the start of error=) of finite constants at
# which the kernel's L1 sizes or the certificate arithmetic leave the floats
EXTREME_CASES = {
    "kernel_width_tiny": (lambda c: c["kernel"].update(width=1e-300), EXIT_ASSUMPTION_VIOLATION,
                          "gaussian kernel width 1e-300 is out of range"),
    "kernel_width_huge": (lambda c: c["kernel"].update(width=1e300), EXIT_ASSUMPTION_VIOLATION,
                          "gaussian kernel width 1e+300 is out of range"),
    # windows of about 1e-300: the schedule's count exceeds the memory budget
    "a_huge": (lambda c: c["model"].update(a=1e300), EXIT_ASSUMPTION_VIOLATION,
               "the schedule's "),
    "b_huge": (lambda c: c["model"].update(b=1e300), EXIT_ASSUMPTION_VIOLATION,
               "the schedule's "),
    # the certified window underflows to 0
    "a_and_b_near_the_float_limit": (lambda c: c["model"].update(a=1e308, b=1e308),
                                     EXIT_ASSUMPTION_VIOLATION,
                                     "the window cap 0.0 leaves no finite window count"),
    "lipschitz_tiny": (lambda c: c["nonlinearity"].update(lipschitz=1e-300), EXIT_OK, None),
    # (dx/sqrt(2 pi))^2 or p^12 leaves the floats: the grid refuses the box
    # while the problem is built (with a zero start, L = 1e160 exited 3 at the
    # first Picard image, 1e308 and 1e-25 blamed the start's Sobolev norm)
    "box_L_1e160": _box_case(1e160),
    "box_L_1e308": _box_case(1e308),
    "box_L_1e-25": _box_case(1e-25),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", list(EXTREME_CASES))
def test_extreme_finite_constants_exit_without_arithmetic_errors(tmp_path, case):
    edit, code, error = EXTREME_CASES[case]
    cfg = _certified_config(tmp_path / "out")
    edit(cfg)
    got, cert, summary = _main_artifacts(tmp_path, cfg)
    assert got == code
    assert summary.get("error", "").startswith(error or "")
    assert not any(name in summary.get("error", "")
                   for name in ("OverflowError", "ZeroDivisionError"))
    if code == EXIT_OK:  # one certified window covers the horizon
        assert summary["windows"] == "1" and cert["valid"] == "true"
        assert float(cert["T_max"]) > 1e300


def test_report_memory_refusal_rounds_counts_past_15_digits(tmp_path):
    # a = 1e300: windows of about 1e-300, a 300-digit count given to 4 digits
    from cubelap.evolve import _fmt_count

    assert [_fmt_count(n) for n in (968_800, 10**15 - 1, 10**15, 6378 * 10**296, 10**400)] == [
        "968800", "999999999999999", "1.000e+15", "6.378e+299", "1.000e+400"]
    cfg = _certified_config(tmp_path / "out")
    cfg["model"]["a"] = 1e300
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert re.fullmatch(r"the schedule's \d\.\d{3}e\+299 windows would keep \d\.\d{3}e\+30\d "
                        r"bytes of reports, more than the 2 GiB memory budget", summary["error"])


def test_windows_whose_growth_factor_overflows_are_certified_through_main(tmp_path):
    # lipschitz 1e-300 and a = 1 certify windows of up to T_max = 685, and one
    # window of 600: e^{2aT} is past the float range there, C is far below one
    cfg = _certified_config(tmp_path / "out", horizon=600.0)
    cfg["grid"]["N"] = 64
    cfg["model"]["a"] = 1.0
    cfg["nonlinearity"] = {"name": "saturating", "lipschitz": 1e-300}
    cfg["initial_condition"]["amplitude"] = 1e-250
    cfg["solver"]["frames"] = 8
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_OK and summary["windows"] == "1"
    assert cert["valid"] == "true" and float(cert["C"]) == pytest.approx(6.98e-38, rel=1e-3)
    assert float(cert["T_max"]) == pytest.approx(685.42, rel=1e-5)


# --------------------------------------------------------------------------
# import footprint
# --------------------------------------------------------------------------

_SCIPY_PROBE = """
import json, sys
import cubelap
from cubelap.runner import main
codes = [main(["--config", path, "--oracle"]) for path in sys.argv[1:]]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_scipy_module_is_loaded_by_import_or_run(tmp_path):
    """``import cubelap`` and full runs through ``main`` (a sech and a
    gaussian kernel, a > 0 so the Lambert W branch of the certificate runs,
    the oracle on) leave no scipy module in ``sys.modules``."""
    paths = []
    for kernel in ("sech", "gaussian"):
        cfg = _certified_config(tmp_path / f"out_{kernel}")
        cfg["kernel"]["name"] = kernel
        cfg["model"]["a"] = 0.2
        paths.append(str(_write(tmp_path, cfg, f"{kernel}.json")))
    src = str(Path(cl.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *paths],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [EXIT_OK, EXIT_OK]
    assert result["scipy"] == []
    for kernel in ("sech", "gaussian"):
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / f"out_{kernel}" / "summary.txt").read_text().splitlines()
        )
        assert 0.0 <= float(summary["oracle_rel_deviation"]) < 1e-4
        cert = (tmp_path / f"out_{kernel}" / "certificate.txt").read_text()
        assert "a=0.2\n" in cert
