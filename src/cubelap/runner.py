"""Batch front door: declarative run configuration -> artifacts on disk.

A run is a single JSON file naming the grid, the model constants, a kernel
and a nonlinearity from the catalogs of ``model``, an initial condition (a
profile x -> u0(x), sampled once on the grid) and a horizon.
The pipeline validates the assumptions; ``global_march`` plans the windows
under one certificate, refuses by default when it is invalid or its reports
could pass the memory budget, and solves them; the runner measures the
support overlap and writes everything needed to audit the run:

    certificate.txt    the march's certificate, flat key=value, enough to
                       recompute C by hand; a run that ends before its march
                       returns writes certify's refusal trail (nan for a
                       value set-up never reached)
    config_echo.json   the configuration with every default materialized
    summary.txt        status, warnings, overlap measure, final norms,
                       certificate slack and Picard error bound
    trace_w<k>.csv     per-window Picard trace, header n,d_n,r_n,C
    norms_w<k>.csv     per-window frame norms, header t,l2,d6u_l2,dudt_l2
    final_field.sxd    binary dump of the last window's spectral frames

Exit codes: 0 success, 2 certificate refusal, 3 solver failure (a window's
``MarchWindowError`` among them), 4 assumption/configuration violation or an
artifact that cannot be written, the directory included; ``_exit_for`` maps a
failure to its code by its type alone. ``run`` raises for no I/O error: where
not even ``summary.txt`` can be written, one line on stderr says why.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .certify import (
    DEFAULT_SAFETY,
    NoAdmissibleWindow,
    certificate_report,
    partial_certificate_report,
)
from .evolve import (
    DEFAULT_FRAMES,
    DEFAULT_MAX_ITER,
    MEMORY_BUDGET_BYTES,
    MIN_ORACLE_SUBSTEPS_FACTOR,
    CertificateRefusedError,
    SolveReport,
    SolverError,
    global_march,
)
from .grid import field_from_function, inverse_transform, make_grid
from .model import (
    KERNELS,
    LIPSCHITZ_SEED,
    LIPSCHITZ_TRIALS,
    NONLINEARITIES,
    REQUIRED,
    SOURCES,
    CatalogEntry,
    ProblemSpec,
    Required,
    Subsection,
    check_lipschitz_sampling,
    kernel_strength,
    nontriviality_overlap,
    read_table,
    table_profile,
    validate_kernel,
)
from .storage import dump_spacetime_field

EXIT_OK = 0
EXIT_CERTIFICATE_REFUSED = 2
EXIT_SOLVER_FAILURE = 3
EXIT_ASSUMPTION_VIOLATION = 4

TRACE_HEADER = "n,d_n,r_n,C"
NORMS_HEADER = "t,l2,d6u_l2,dudt_l2"
DECAY_HEADER = "t,l2"
SNAPSHOT_HEADER = "x,re_u"


class ConfigError(ValueError):
    """Configuration file violates the documented schema."""


#: Sizes a config may ask for under the march's memory budget: 16 arrays of
#: (frames + 1) x N complex values, and per trial of the Lipschitz sampler,
#: which takes about 82 bytes, 16 floats of 8 bytes.
MAX_TRAJECTORY_VALUES = MEMORY_BUDGET_BYTES // (16 * 16)
MAX_LIPSCHITZ_TRIALS = MEMORY_BUDGET_BYTES // (16 * 8)


_SOLVER_DEFAULTS = {
    "frames": DEFAULT_FRAMES,
    "tol_fix": None,
    "max_iter": DEFAULT_MAX_ITER,
    "safety": DEFAULT_SAFETY,
    "oracle_substeps_factor": MIN_ORACLE_SUBSTEPS_FACTOR,
    "max_window_length": None,
    "seed": LIPSCHITZ_SEED,
    "lipschitz_trials": LIPSCHITZ_TRIALS,
}

_FLAG_DEFAULTS = {"run_oracle": False, "override_certificate": False}


@dataclass
class RunConfig:
    grid: dict
    model: dict
    kernel: dict
    nonlinearity: dict
    initial_condition: dict
    horizon: float
    solver: dict
    output_dir: str
    flags: dict

    def echo(self) -> dict:
        return asdict(self)


@dataclass
class RunArtifacts:
    exit_code: int
    output_dir: Path
    summary: dict
    reports: list[SolveReport] = field(default_factory=list)


def _require_keys(section: dict, name: str, known: dict):
    """Reject unknown and missing keys; defaults first, then the given keys."""
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object, got {section!r}")
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section {name!r}")
    for key, default in known.items():
        if isinstance(default, Required) and key not in section:
            raise ConfigError(f"missing key {key!r} in section {name!r}")
    merged = {k: v for k, v in known.items() if not isinstance(v, Required)}
    merged.update(section)
    return merged


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    # exact also for integers too large to convert to a float
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _as_integer(value, where: str):
    _as_number(value, where)
    if not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")


def parse_config(path) -> RunConfig:
    """Read, validate and default-materialize a run configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {p} cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")

    top_known = {
        "grid": REQUIRED,
        "model": REQUIRED,
        "kernel": REQUIRED,
        "nonlinearity": REQUIRED,
        "initial_condition": REQUIRED,
        "horizon": REQUIRED,
        "solver": {},
        "output_dir": "out",
        "flags": {},
    }
    top = _require_keys(raw, "<top>", top_known)

    grid = _require_keys(top["grid"], "grid", {"L": REQUIRED, "N": REQUIRED})
    L = _as_number(grid["L"], "grid.L")
    if L <= 0:
        raise ConfigError("grid.L violates the constraint L > 0")
    N = grid["N"]
    if not isinstance(N, int) or N % 2 != 0 or N < 8:
        raise ConfigError("grid.N violates the constraint: even integer, N >= 8")
    grid = {"L": L, "N": N}

    model = _require_keys(top["model"], "model", {"a": REQUIRED, "b": REQUIRED})
    a = _as_number(model["a"], "model.a")
    if a < 0:
        raise ConfigError("model.a violates the constraint a >= 0")
    model = {"a": a, "b": _as_number(model["b"], "model.b")}

    kernel = _parse_section(top["kernel"], "kernel", KERNELS)
    nonlinearity = _parse_section(top["nonlinearity"], "nonlinearity", NONLINEARITIES)
    ic = _parse_section(top["initial_condition"], "initial_condition", INITIAL_CONDITIONS)

    horizon = _as_number(top["horizon"], "horizon")
    if horizon <= 0:
        raise ConfigError("horizon violates the constraint horizon > 0")

    solver = _require_keys(top["solver"], "solver", dict(_SOLVER_DEFAULTS))
    if not isinstance(solver["frames"], int) or solver["frames"] < 2:
        raise ConfigError("solver.frames violates the constraint: integer >= 2")
    if not 0 < _as_number(solver["safety"], "solver.safety") < 1:
        raise ConfigError("solver.safety violates the constraint 0 < safety < 1")
    if _as_number(solver["max_iter"], "solver.max_iter") < 1:
        raise ConfigError("solver.max_iter violates the constraint max_iter >= 1")
    factor = _as_number(solver["oracle_substeps_factor"], "solver.oracle_substeps_factor")
    if factor < MIN_ORACLE_SUBSTEPS_FACTOR:
        raise ConfigError(
            "solver.oracle_substeps_factor violates the constraint "
            f"factor >= {MIN_ORACLE_SUBSTEPS_FACTOR}"
        )
    for key in ("frames", "max_iter", "oracle_substeps_factor", "seed", "lipschitz_trials"):
        _as_integer(solver[key], f"solver.{key}")
    if solver["lipschitz_trials"] < 1:
        raise ConfigError("solver.lipschitz_trials violates the constraint lipschitz_trials >= 1")
    if solver["seed"] < 0:
        raise ConfigError("solver.seed violates the constraint seed >= 0")
    values = N * (solver["frames"] + 1)
    if values > MAX_TRAJECTORY_VALUES:
        raise ConfigError(
            f"grid.N * (solver.frames + 1) = {values} exceeds {MAX_TRAJECTORY_VALUES}, "
            f"the trajectory size the {MEMORY_BUDGET_BYTES // 2**30} GiB memory budget allows"
        )
    if solver["lipschitz_trials"] > MAX_LIPSCHITZ_TRIALS:
        raise ConfigError(
            f"solver.lipschitz_trials = {solver['lipschitz_trials']} exceeds "
            f"{MAX_LIPSCHITZ_TRIALS}, the count the memory budget allows"
        )
    for key in ("tol_fix", "max_window_length"):
        value = solver[key]
        if value is not None and not _as_number(value, f"solver.{key}") > 0:
            raise ConfigError(f"solver.{key} must be null or a positive number, got {value!r}")

    flags = _require_keys(top["flags"], "flags", dict(_FLAG_DEFAULTS))
    for key, val in flags.items():
        if not isinstance(val, bool):
            raise ConfigError(f"flags.{key} must be a boolean, got {val!r}")

    out_dir = top["output_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output_dir must be a nonempty string")

    return RunConfig(
        grid=grid,
        model=model,
        kernel=kernel,
        nonlinearity=nonlinearity,
        initial_condition=ic,
        horizon=horizon,
        solver=solver,
        output_dir=out_dir,
        flags=flags,
    )


def _parse_section(section, where: str, catalog: dict) -> dict:
    """Check a section naming a catalog entry; materialize the entry's defaults.

    Values are type-checked only; range checks happen in the constructors.
    """
    if not isinstance(section, dict) or "name" not in section:
        raise ConfigError(f"{where} section needs a 'name'")
    name = section["name"]
    if not isinstance(name, str) or name not in catalog:
        raise ConfigError(f"{where}.name {name!r} is not in the catalog {sorted(catalog)}")
    params = catalog[name].params
    out = _require_keys(section, where, {"name": REQUIRED, **params})
    for key, spec in params.items():
        value, at = out[key], f"{where}.{key}"
        kind = spec.kind if isinstance(spec, Required) else float
        if isinstance(spec, Subsection):
            if value is None or value is spec:  # null or absent
                value = {"name": spec.default}
            elif not isinstance(value, dict) or "name" not in value:
                raise ConfigError(f"{at} needs a 'name'")
            out[key] = _parse_section(value, at, spec.catalog)
        elif kind is str:
            if not isinstance(value, str):
                raise ConfigError(f"{at} must be a string, got {value!r}")
        elif kind is int:
            _as_integer(value, at)
        elif value is not None or spec is not None:  # a None default allows null
            _as_number(value, at)
    return out


def _construct(catalog: dict, section: dict, grid):
    """Call the constructor a parsed section names, subsections first."""
    entry = catalog[section["name"]]
    kwargs = {
        key: _construct(spec.catalog, section[key], grid)
        if isinstance(spec, Subsection)
        else section[key]
        for key, spec in entry.params.items()
    }
    return entry.build(grid, **kwargs) if entry.takes_grid else entry.build(**kwargs)


def _ic_mode(grid, amplitude, k):
    p0 = k * np.pi / grid.half_length
    return lambda x: amplitude * np.cos(p0 * x)


#: Profiles x -> u0(x) that ``build_problem`` samples on the grid: ``model``'s
#: sources ``zero`` and ``gaussian``, its table reader for ``csv`` (x need not be
#: uniform), and ``mode``, the runner's own.
INITIAL_CONDITIONS = {
    "zero": SOURCES["zero"],
    "gaussian": SOURCES["gaussian"],
    "mode": CatalogEntry(_ic_mode, {"amplitude": 1.0, "k": Required(int)}, takes_grid=True),
    "csv": CatalogEntry(lambda path: table_profile(*read_table(path)), {"path": Required(str)}),
}


def build_problem(config: RunConfig) -> ProblemSpec:
    """Instantiate the typed model objects a validated configuration names."""
    grid = make_grid(config.grid["L"], config.grid["N"])
    return ProblemSpec(
        a=config.model["a"],
        b=config.model["b"],
        kernel=_construct(KERNELS, config.kernel, grid),
        nonlinearity=_construct(NONLINEARITIES, config.nonlinearity, grid),
        u0=field_from_function(
            grid, _construct(INITIAL_CONDITIONS, config.initial_condition, grid)),
        grid=grid,
    )


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _watermark(reports: list[SolveReport]) -> str:
    """The line that starts each text artifact of a run whose march ran under
    an invalid certificate, which only ``override_certificate`` allows."""
    if not reports or reports[0].certificate.valid:
        return ""
    c = reports[0].certificate.constant
    return f"# OVERRIDE: certificate invalid (C={c!r}); results are experimental\n"


def _write_lines(path: Path, lines: list[str], watermark: str):
    path.write_text(watermark + "\n".join(lines) + "\n")


def _write_trail(out: Path, summary: dict, watermark: str = "", refused=None):
    """Make ``out`` and write ``summary.txt``, one ``key=value`` line per entry
    of ``summary``; with ``refused = (q, l, a, b)``, first the ``certificate.txt``
    of a run that has no certificate of its own (``partial_certificate_report``).
    An ``OSError`` leaves one stderr line naming the path, and ``summary`` takes
    its exit code, status and error (``_exit_for``)."""
    path = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        if refused is not None:
            path = out / "certificate.txt"
            path.write_text(partial_certificate_report(*refused))
        path = out / "summary.txt"
        _write_lines(path, [f"{k}={_fmt(v)}" for k, v in summary.items()], watermark)
    except OSError as exc:
        print(f"{path} cannot be written: {exc.strerror or exc}", file=sys.stderr)
        summary["exit_code"], summary["status"], summary["error"] = _exit_for(exc)


def _trace_rows(report: SolveReport, first_n: int) -> list[str]:
    """One window's n,d_n,r_n,C rows, numbered from ``first_n``."""
    c = report.certificate.constant
    tr = report.trace
    return [
        f"{first_n + n},{_fmt(float(tr.distances[n]))},"
        f"{_fmt(float(tr.ratios[n])) if np.isfinite(tr.ratios[n]) else ''},{_fmt(c)}"
        for n in range(tr.iterations)
    ]


def _norm_rows(report: SolveReport) -> list[str]:
    tg = report.time_grid
    return [
        f"{_fmt(report.t_offset + float(tg[j]))},{_fmt(float(report.l2_per_frame[j]))},"
        f"{_fmt(float(report.d6_l2_per_frame[j]))},{_fmt(float(report.dudt_l2_per_frame[j]))}"
        for j in range(tg.size)
    ]


def run(config: RunConfig) -> RunArtifacts:
    """Execute the whole certified pipeline for one configuration; the
    certificate it reports is the one ``global_march`` planned and ran under.
    Every write, the directory's first, is in a handler: I/O failures exit 4."""
    out = Path(config.output_dir)
    summary: dict = {"status": "ok", "exit_code": EXIT_OK}
    reports: list[SolveReport] = []
    q = ell = float("nan")
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_echo.json").write_text(json.dumps(config.echo(), indent=2) + "\n")
        prob = build_problem(config)
        ell = prob.nonlinearity.lipschitz_l
        validate_kernel(prob.kernel, prob.grid)
        q = kernel_strength(prob.kernel)
        check_lipschitz_sampling(
            prob.nonlinearity,
            trials=config.solver["lipschitz_trials"],
            seed=config.solver["seed"],
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = global_march(
                prob,
                config.horizon,
                safety=config.solver["safety"],
                n_frames=config.solver["frames"],
                tol_fix=config.solver["tol_fix"],
                max_iter=config.solver["max_iter"],
                max_window_length=config.solver["max_window_length"],
                override_certificate=config.flags["override_certificate"],
                run_oracle=config.flags["run_oracle"],
                oracle_substeps_factor=config.solver["oracle_substeps_factor"],
            )
            # its F(0, .) warning is one of the run's runtime warnings
            overlap = nontriviality_overlap(prob.kernel, prob.nonlinearity, prob.grid)

        cert = reports[0].certificate
        watermark = _watermark(reports)
        (out / "certificate.txt").write_text(watermark + certificate_report(cert))
        for k, rep in enumerate(reports):
            _write_lines(out / f"trace_w{k}.csv", [TRACE_HEADER, *_trace_rows(rep, 1)], watermark)
            _write_lines(out / f"norms_w{k}.csv", [NORMS_HEADER, *_norm_rows(rep)], watermark)
        dump_spacetime_field(out / "final_field.sxd", reports[-1].field)

        tail_warnings = [w for rep in reports for w in rep.tail_warnings]
        runtime_warnings = list(dict.fromkeys(str(w.message) for w in caught))
        max_ratio = _max_ratio(reports)
        slack, error_bound = _picard_budget(reports, max_ratio, cert.constant)
        summary.update(
            {
                "windows": len(reports),
                "window_length": cert.T,
                "C": cert.constant,
                "q": cert.q,
                "l": cert.l,
                "T_max": cert.t_max,
                "overlap": overlap,
                "final_l2": float(reports[-1].l2_per_frame[-1]),
                "final_h6_part": float(reports[-1].d6_l2_per_frame[-1]),
                "max_picard_ratio": max_ratio,
                "certificate_slack": slack,
                "picard_error_bound": error_bound,
                "oracle_rel_deviation": _max_oracle_dev(reports),
                "tail_warnings": "; ".join(tail_warnings) if tail_warnings else "none",
                "runtime_warnings": "; ".join(runtime_warnings) if runtime_warnings else "none",
            }
        )
    except Exception as exc:
        summary["exit_code"], summary["status"], error = _exit_for(exc)
        if error:
            summary["error"] = error
    # the run's own certificate is written once the march returns
    refused = None if reports else (q, ell, config.model["a"], config.model["b"])
    _write_trail(out, summary, _watermark(reports), refused)
    return RunArtifacts(
        exit_code=summary["exit_code"], output_dir=out, summary=summary, reports=reports,
    )


def _exit_for(exc: Exception) -> tuple[int, str, str]:
    """(exit code, status, error) of a run that raised ``exc``, by its type
    alone: a certificate refusal, or a window failure it caused, exits 2; a
    ValueError or OSError (bad input, a table that cannot be read, an
    artifact that cannot be written) 4; a solver error, a window's failure
    among them, 3 with its message; anything else (out of memory) 3, named
    by its type."""
    refusals = (NoAdmissibleWindow, CertificateRefusedError)
    if isinstance(exc, refusals) or isinstance(exc.__cause__, refusals):
        return EXIT_CERTIFICATE_REFUSED, "certificate_refused", str(exc)
    if isinstance(exc, (ValueError, OSError)):
        return EXIT_ASSUMPTION_VIOLATION, "assumption_violation", str(exc)
    if isinstance(exc, SolverError):
        return EXIT_SOLVER_FAILURE, "solver_failure", str(exc)
    return EXIT_SOLVER_FAILURE, "solver_failure", f"{type(exc).__name__}: {exc}"


def _max_ratio(reports: list[SolveReport]):
    vals = [r for rep in reports for r in rep.trace.reported_ratios()]
    return float(max(vals)) if vals else None


def _picard_budget(reports: list[SolveReport], max_ratio: float | None, c: float):
    """(max_picard_ratio / C, the largest Banach bound C/(1-C) * d_last).

    d_last is a window's last Picard distance, so the bound caps the
    contraction-norm distance from the returned iterate to the window's fixed
    point. Both are None when no ratio is reported or C >= 1.
    """
    if max_ratio is None or c >= 1.0:
        return None, None
    d_last = max(float(rep.trace.distances[-1]) for rep in reports)
    return max_ratio / c, c / (1.0 - c) * d_last


def _max_oracle_dev(reports: list[SolveReport]):
    vals = [rep.oracle_rel_deviation for rep in reports if rep.oracle_rel_deviation is not None]
    return float(max(vals)) if vals else None


def emit_plot_data(artifacts: RunArtifacts, which: str, frames=None) -> list[Path]:
    """Write plot-ready CSVs from a completed run.

    which = 'decay'    -> decay.csv with (t, L2 norm) across all windows
            'trace'    -> trace.csv, all windows concatenated, global n
            'snapshot' -> snapshot_f<j>.csv with (x, Re u) per requested frame
                          j in 0..M of the final window (default: 0 and M);
                          any other index is refused before a file is written
    Each file starts with the run's override watermark, if it has one.
    """
    if artifacts.exit_code != EXIT_OK or not artifacts.reports:
        raise ValueError("plot data requires a completed successful run")
    if which == "decay":
        lines = [DECAY_HEADER]
        for k, rep in enumerate(artifacts.reports):
            start = 1 if k > 0 else 0  # window joints share a frame
            tg = rep.time_grid
            for j in range(start, tg.size):
                lines.append(
                    f"{_fmt(rep.t_offset + float(tg[j]))},{_fmt(float(rep.l2_per_frame[j]))}"
                )
        tables = [("decay.csv", lines)]
    elif which == "trace":
        lines = [TRACE_HEADER]
        for rep in artifacts.reports:
            lines += _trace_rows(rep, len(lines))  # after the header, len is the next n
        tables = [("trace.csv", lines)]
    elif which == "snapshot":
        field = artifacts.reports[-1].field
        last = field.n_frames - 1
        tables = []
        for j in frames if frames is not None else [0, last]:
            if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j <= last:
                raise ValueError(f"snapshot frames must be integers in 0..{last}, got {j!r}")
            phys = inverse_transform(field.frame(j))
            lines = [SNAPSHOT_HEADER]
            for xj, uj in zip(field.grid.x, phys.values.real):
                lines.append(f"{_fmt(float(xj))},{_fmt(float(uj))}")
            tables.append((f"snapshot_f{j}.csv", lines))
    else:
        raise ValueError(f"unknown plot selector {which!r}")
    watermark = _watermark(artifacts.reports)
    for name, lines in tables:
        _write_lines(artifacts.output_dir / name, lines, watermark)
    return [artifacts.output_dir / name for name, _ in tables]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cubelap",
        description="certified spectral solve of the sixth-order nonlocal model",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", help="override the configured output directory")
    parser.add_argument(
        "--oracle", action="store_true", help="also run the cross-validation marcher"
    )
    parser.add_argument(
        "--override-certificate",
        action="store_true",
        help="iterate even when the certificate is invalid (watermarks outputs)",
    )
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        # without --out there is no directory to write to
        if args.out:
            # nothing was parsed, so every number of the certificate is unknown
            summary = {"status": "config_rejected", "exit_code": EXIT_ASSUMPTION_VIOLATION,
                       "error": str(exc)}
            _write_trail(Path(args.out), summary, refused=(None,) * 4)
        return EXIT_ASSUMPTION_VIOLATION
    if args.out:
        config.output_dir = args.out
    config.flags["run_oracle"] |= args.oracle
    config.flags["override_certificate"] |= args.override_certificate
    artifacts = run(config)
    status = artifacts.summary.get("status")
    err = artifacts.summary.get("error")
    print(f"status={status} exit={artifacts.exit_code}" + (f" ({err})" if err else ""))
    return artifacts.exit_code
