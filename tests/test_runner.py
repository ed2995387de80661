import json

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
    out = tmp_path / "out"
    cfg = _certified_config(out)
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


@pytest.mark.filterwarnings("ignore:F\\(0, .\\) is identically zero")
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
    assert summary["error"].startswith("window 0 failed: measured ratio")
    assert "exceeds C * 1.05" in summary["error"]
    assert cert["valid"] == "false" and float(cert["l"]) == 3.8 / 40


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


def test_missing_csv_exits_4_with_artifacts(tmp_path):
    cfg = _certified_config(tmp_path / "out")
    cfg["initial_condition"] = {"name": "csv", "path": str(tmp_path / "absent.csv")}
    code, cert, summary = _main_artifacts(tmp_path, cfg)
    assert code == EXIT_ASSUMPTION_VIOLATION
    assert summary["status"] == "assumption_violation"
    assert cert["valid"] == "false"
