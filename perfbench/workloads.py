"""The benchmark's workloads: inputs from a seed, the timed operation, checks.

Every workload is a class with ``build`` (set-up: everything the timed part
needs, generated from the seed) and ``run`` (the timed operations plus their
correctness checks). ``run`` returns a list of operation records

    {"name", "latency_s", "solve_s", "ok", "problems", ...}

and the worker turns them into one repetition's result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Measured Picard ratios may exceed C by this factor (cubelap.evolve.RATIO_SLACK).
RATIO_SLACK = 1.05
#: Agreement with the stored reference: final frame in relative L2, and each
#: Picard distance relative to the window's first distance d_1.
REFERENCE_RTOL = 1e-12
#: Largest accepted relative L2 gap between the Picard solve and the Heun
#: oracle at a window end. Measured values are about 1e-6 at N = 512, M = 64.
ORACLE_DEVIATION_BOUND = 1e-5
#: C = 0.5 on the 0.4-long windows of both marches.
TARGET_C = 0.5


# ---------------------------------------------------------------------------
# marches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarchSize:
    half_length: float
    n_points: int
    frames: int
    horizon: float
    window: float


class March:
    """One ``global_march`` on a seed-drawn problem of the fixture's family.

    Gaussian kernel (0.01, 2), saturating reaction with its Lipschitz constant
    set so that C = 0.5 on a 0.4-long window (a = 0, b = 1), a seed-drawn
    gaussian source, and a seed-drawn sum of gaussians in the core as the
    initial state.
    """

    def __init__(self, name: str, full: MarchSize, smoke: MarchSize, oracle: bool):
        self.name = name
        self.sizes = {False: full, True: smoke}
        self.oracle = oracle

    def build(self, cl, seed: int, smoke: bool, workdir: Path) -> dict:
        size = self.sizes[smoke]
        rng = np.random.default_rng(seed)
        grid = cl.make_grid(size.half_length, size.n_points)
        kernel = cl.gaussian_kernel(0.01, 2.0)
        q = cl.kernel_strength(kernel)
        # C = q*l*sqrt(T^2 (1 + 2(a+|b|+1)^2) + 2) = q*l*sqrt(9 T^2 + 2) at a=0, b=1
        ell = TARGET_C / (q * math.sqrt(9.0 * size.window**2 + 2.0))
        source = cl.source_gaussian(
            rng.uniform(0.05, 0.15), rng.uniform(0.8, 1.2), rng.uniform(-2.0, 2.0)
        )
        u0 = _bumps(rng, grid.x, size.half_length / 8.0)
        prob = cl.ProblemSpec(
            a=0.0, b=1.0, kernel=kernel, nonlinearity=cl.saturating(ell, source),
            u0=cl.Field(grid, u0, "physical"), grid=grid,
        )
        reference = None
        if seed == DEFAULT_SEED:
            path = reference_path(self.name, smoke)
            reference = dict(np.load(path)) if path.exists() else {}
        return {"prob": prob, "size": size, "reference": reference}

    def solve(self, cl, inputs: dict):
        size = inputs["size"]
        return cl.global_march(
            inputs["prob"], size.horizon, n_frames=size.frames,
            max_window_length=size.window, run_oracle=self.oracle,
        )

    def run(self, cl, inputs: dict) -> list[dict]:
        t0 = time.perf_counter()
        problems = []
        try:
            reports = self.solve(cl, inputs)
        except Exception as exc:  # a raising solve is a failed operation
            reports = None
            problems.append(f"global_march raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if reports is not None:
            problems += self.check(reports, inputs)
        return [{
            "name": self.name, "latency_s": elapsed, "solve_s": elapsed,
            "ok": not problems, "problems": problems,
            "reference_checked": inputs["reference"] is not None,
        }]

    def check(self, reports, inputs: dict) -> list[str]:
        size = inputs["size"]
        problems = []
        expected = round(size.horizon / size.window)
        if len(reports) != expected:
            problems.append(f"{len(reports)} windows, expected {expected}")
        c = reports[0].certificate.constant
        if not (reports[0].certificate.valid and abs(c - TARGET_C) < 1e-9):
            problems.append(f"certificate C = {c!r}, expected a valid {TARGET_C}")
        for k, rep in enumerate(reports):
            if not rep.trace.converged:
                problems.append(f"window {k} did not converge")
            ratios = rep.trace.reported_ratios()
            if ratios.size and ratios.max() > c * RATIO_SLACK:
                problems.append(f"window {k}: ratio {ratios.max():.6g} > C*{RATIO_SLACK}")
            if rep.tail_warnings:
                problems.append(f"window {k}: {'; '.join(rep.tail_warnings)}")
            if not np.all(np.isfinite(rep.field.frames[-1])):
                problems.append(f"window {k}: non-finite final frame")
            if self.oracle:
                dev = rep.oracle_rel_deviation
                if dev is None or not dev < ORACLE_DEVIATION_BOUND:
                    problems.append(
                        f"window {k}: oracle deviation {dev!r} >= {ORACLE_DEVIATION_BOUND:g}"
                    )
        if inputs["reference"] is not None:
            problems += compare_reference(reports, inputs["reference"])
        return problems


def _bumps(rng, x: np.ndarray, max_center: float, n_bumps: int = 4) -> np.ndarray:
    """Sum of gaussians with seed-drawn signs, widths and centers, peak 1."""
    vals = np.zeros_like(x)
    for _ in range(n_bumps):
        amp = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0)
        width = rng.uniform(1.0, 2.0)
        center = rng.uniform(-max_center, max_center)
        vals += amp * np.exp(-(((x - center) / width) ** 2))
    return vals / np.max(np.abs(vals))


def reference_path(name: str, smoke: bool) -> Path:
    return REFERENCE_DIR / f"{name}{'-smoke' if smoke else ''}.npz"


def reference_arrays(reports) -> dict:
    """What the reference stores: the final frame and every Picard distance."""
    return {
        "final": reports[-1].field.frames[-1],
        "iterations": np.array([rep.trace.iterations for rep in reports]),
        "distances": np.concatenate([rep.trace.distances for rep in reports]),
    }


def compare_reference(reports, ref: dict) -> list[str]:
    if not ref:
        return ["reference file for the default seed is missing"]
    got = reference_arrays(reports)
    if not np.array_equal(got["iterations"], ref["iterations"]):
        return [f"Picard iterations {got['iterations'].tolist()} != "
                f"reference {ref['iterations'].tolist()}"]
    problems = []
    rel = np.linalg.norm(got["final"] - ref["final"]) / np.linalg.norm(ref["final"])
    if not rel <= REFERENCE_RTOL:
        problems.append(f"final frame differs from the reference by {rel:.3e} relative")
    start = 0
    for k, its in enumerate(ref["iterations"]):
        d_ref = ref["distances"][start:start + its]
        gap = np.max(np.abs(got["distances"][start:start + its] - d_ref)) / d_ref[0]
        if not gap <= REFERENCE_RTOL:
            problems.append(f"window {k}: Picard distances differ by {gap:.3e} of d_1")
        start += its
    return problems


# ---------------------------------------------------------------------------
# batch runs through the command-line entry point
# ---------------------------------------------------------------------------

KERNELS = ("gaussian", "sech", "bandlimited", "tabulated")
NONLINEARITIES = ("linear_plus_source", "saturating", "logistic_clip")
INITIAL = ("gaussian", "mode", "csv")
N_SOLVED = 24
#: Solved configs that also run the Heun oracle: a quarter of them, every
#: kernel, both grid sizes and both frame counts.
ORACLE_INDICES = (0, 5, 10, 15, 20, 23)
#: The solved config with a band-limited source. The source is re-evaluated as
#: an N x N trigonometric sum on every reaction call, so it gets N = 256,
#: 32 frames, one window and no oracle.
BANDLIMITED_SOURCE = 19
BATCH_L = 20.0
BATCH_HORIZON = 0.8
BATCH_WINDOW = 0.4
#: The kernel CSV shares its sample spacing with every batch grid, so the
#: tabulated kernel is sampled exactly and its spectral fallback stays smooth.
TABLE_DX = 2.0 * BATCH_L / 512


class Batch:
    """Seed-generated configs, each run in-process via ``runner.main``."""

    def build(self, cl, seed: int, smoke: bool, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        configs = batch_configs(rng, smoke)
        for cfg in configs:
            for fname, text in cfg.pop("files").items():
                (workdir / fname).write_text(text)
            (workdir / f"{cfg['name']}.json").write_text(json.dumps(cfg["config"]))
        probe = known_defect_configs(rng)
        for cfg in probe:
            (workdir / f"{cfg['name']}.json").write_text(json.dumps(cfg["config"]))
        return {"configs": configs, "probe": probe}

    def run(self, cl, inputs: dict) -> list[dict]:
        with _timed_binding(cl.runner, "global_march") as solve_times:
            return [self.run_one(cl, cfg, solve_times) for cfg in inputs["configs"]]

    def run_one(self, cl, cfg: dict, solve_times: list | None = None) -> dict:
        name, out = cfg["name"], Path("out") / cfg["name"]
        marks = len(solve_times) if solve_times is not None else 0
        problems, code, field = [], None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cl.runner.main(["--config", f"{name}.json", "--out", str(out)])
            texts = {f: (out / f).read_bytes() for f in ("certificate.txt", "summary.txt")
                     if (out / f).exists()}
            if code == 0 and (out / "final_field.sxd").exists():
                field = cl.load_spacetime_field(out / "final_field.sxd")
        except Exception as exc:  # a raising run is a failed operation
            problems.append(f"raised {type(exc).__name__}: {exc}")
            texts = {}
        latency = time.perf_counter() - t0
        if code != cfg["expect"] and not problems:
            problems.append(f"exit code {code}, built for {cfg['expect']}")
        for fname in ("certificate.txt", "summary.txt"):
            if fname not in texts and code is not None:
                problems.append(f"{fname} not written")
        if code == 0 and cfg["expect"] == 0:
            problems += _check_dump(field, cfg["config"])
        summary = texts.get("summary.txt")
        return {
            "name": name, "latency_s": latency,
            "solve_s": sum(solve_times[marks:]) if solve_times is not None else 0.0,
            "ok": not problems, "problems": problems,
            "exit": "raised" if code is None else code,
            "summary_sha256": hashlib.sha256(summary).hexdigest() if summary else None,
        }

    def probe(self, cl, inputs: dict) -> list[dict]:
        """Known defects, run untimed and outside attempted/failed."""
        return [self.run_one(cl, cfg) for cfg in inputs["probe"]]


@contextlib.contextmanager
def _timed_binding(module, name: str):
    """Time every call of ``module.name`` while the block runs."""
    inner = getattr(module, name)
    times: list[float] = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)

    setattr(module, name, timed)
    try:
        yield times
    finally:
        setattr(module, name, inner)


def _check_dump(field, config: dict) -> list[str]:
    if field is None:
        return ["final_field.sxd not written"]
    problems = []
    header = (field.grid.n_points, field.grid.half_length, field.n_frames - 1)
    want = (config["grid"]["N"], config["grid"]["L"], config["solver"]["frames"])
    if header != want:
        problems.append(f"dump header (N, L, M) = {header}, expected {want}")
    if abs(field.horizon - BATCH_WINDOW) > 1e-12 * BATCH_WINDOW:
        problems.append(f"dump horizon {field.horizon!r}, expected {BATCH_WINDOW}")
    if not np.all(np.isfinite(field.frames)):
        problems.append("dump holds non-finite frames")
    return problems


def _kernel(name: str, rng, files: dict, tag: str) -> dict:
    amp, width = rng.uniform(0.008, 0.012), rng.uniform(1.8, 2.2)
    if name == "gaussian" or name == "sech":
        return {"name": name, "amplitude": amp, "width": width}
    if name == "bandlimited":
        return {"name": name, "amplitude": 2 * amp, "cutoff": rng.uniform(0.8, 1.2)}
    x = -12.5 + TABLE_DX * np.arange(321)
    files[f"kernel_{tag}.csv"] = _csv(x, amp * np.exp(-((x / width) ** 2)))
    return {"name": "tabulated", "path": f"kernel_{tag}.csv"}


def _source(name: str, rng) -> dict:
    amp = rng.uniform(0.08, 0.12)
    if name == "zero":
        return {"name": "zero"}
    if name == "gaussian":
        return {"name": name, "amplitude": amp, "width": rng.uniform(0.8, 1.2),
                "center": rng.uniform(-2.0, 2.0)}
    return {"name": name, "amplitude": amp, "p_lo": rng.uniform(0.2, 0.4),
            "p_hi": rng.uniform(0.8, 1.2)}


def _nonlinearity(name: str, rng, source: dict) -> dict:
    ell = rng.uniform(1.5, 2.0)
    if name == "linear_plus_source":
        return {"name": name, "kappa": rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1.5),
                "source": source}
    if name == "saturating":
        return {"name": name, "lipschitz": ell, "source": source}
    return {"name": name, "lipschitz": ell, "u_max": rng.uniform(1.0, 2.0), "source": source}


def _initial(name: str, rng, files: dict, tag: str) -> dict:
    amp, width, center = rng.uniform(0.8, 1.2), rng.uniform(1.0, 2.0), rng.uniform(-2.0, 2.0)
    if name == "gaussian":
        return {"name": name, "amplitude": amp, "width": width, "center": center}
    if name == "mode":
        return {"name": name, "amplitude": amp, "k": int(rng.integers(1, 5))}
    x = np.linspace(-10.0, 10.0, 201)
    files[f"u0_{tag}.csv"] = _csv(x, amp * np.exp(-(((x - center) / width) ** 2)))
    return {"name": "csv", "path": f"u0_{tag}.csv"}


def _csv(*columns) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns))


def _config(rng, i: int, kernel: str, nonlinearity: str, source: str, initial: str,
            files: dict, oracle: bool = False) -> dict:
    tag = f"{i:02d}"
    return {
        "grid": {"L": BATCH_L, "N": 512 if (i // 4) % 2 else 256},
        "model": {"a": 0.0, "b": rng.uniform(0.8, 1.2)},
        "kernel": _kernel(kernel, rng, files, tag),
        "nonlinearity": _nonlinearity(nonlinearity, rng, _source(source, rng)),
        "initial_condition": _initial(initial, rng, files, tag),
        "horizon": BATCH_HORIZON,
        "solver": {"frames": 64 if (i // 8) % 2 else 32, "max_window_length": BATCH_WINDOW},
        "flags": {"run_oracle": oracle},
    }


def _solved_source(i: int, nonlinearity: str) -> str:
    # linear_plus_source keeps the zero source: with a source, the sampled
    # Lipschitz check can reject its exact constant (see known_defect_configs)
    if nonlinearity == "linear_plus_source":
        return "zero"
    if i == BANDLIMITED_SOURCE:
        return "bandlimited"
    return "gaussian" if (i // 3) % 2 else "zero"


def batch_configs(rng, smoke: bool) -> list[dict]:
    """Configs built to exit 0, 2, 3 and 4; the smoke set keeps a few of each.

    The solved configs pair every kernel with every nonlinearity twice, and
    every kernel meets both grid sizes, both frame counts and every initial
    condition.
    """
    out = []

    def add(i, expect, kernel, nonlinearity, source, initial, edit=None, oracle=False):
        files: dict = {}
        cfg = _config(rng, i, kernel, nonlinearity, source, initial, files, oracle)
        if edit is not None:
            edit(cfg, files)
        out.append({"name": f"c{i:02d}_exit{expect}", "expect": expect,
                    "config": cfg, "files": files})

    for i in range(4 if smoke else N_SOLVED):
        nonlinearity = NONLINEARITIES[i % 3]
        add(i, 0, KERNELS[i % 4], nonlinearity, _solved_source(i, nonlinearity),
            INITIAL[(i // 2) % 3], oracle=i in ORACLE_INDICES)
    if not smoke:
        out[BANDLIMITED_SOURCE]["config"]["horizon"] = BATCH_WINDOW

    def lipschitz(value):
        def edit(cfg, files):
            cfg["nonlinearity"]["lipschitz"] = value
        return edit

    def max_iter_one(cfg, files):
        cfg["solver"]["max_iter"] = 1

    def underdeclared(cfg, files):
        cfg["nonlinearity"]["lipschitz"] = abs(cfg["nonlinearity"]["kappa"]) / 4.0

    def vanishing_table(cfg, files):
        x = -12.5 + TABLE_DX * np.arange(321)
        files[cfg["kernel"]["path"]] = _csv(x, np.zeros_like(x))

    def cutoff_out_of_band(cfg, files):
        cfg["kernel"]["cutoff"] = rng.uniform(50.0, 60.0)

    def negative_width(cfg, files):
        cfg["kernel"]["width"] = -rng.uniform(0.5, 2.0)

    def three_columns(cfg, files):
        path = cfg["initial_condition"]["path"]
        x = np.linspace(-10.0, 10.0, 201)
        files[path] = _csv(x, np.exp(-x * x), np.zeros_like(x))

    # q*l*sqrt(2) >= 1: q is about 0.07 for these kernels
    add(30, 2, "gaussian", "saturating", "gaussian", "gaussian", lipschitz(rng.uniform(15, 25)))
    add(31, 2, "sech", "logistic_clip", "zero", "mode", lipschitz(rng.uniform(20, 30)),
        oracle=True)
    add(32, 3, "bandlimited", "saturating", "gaussian", "gaussian", max_iter_one)
    add(33, 3, "tabulated", "logistic_clip", "bandlimited", "mode", max_iter_one, oracle=True)
    add(34, 4, "gaussian", "linear_plus_source", "gaussian", "gaussian", underdeclared)
    add(35, 4, "tabulated", "saturating", "gaussian", "mode", vanishing_table)
    if not smoke:
        add(36, 4, "bandlimited", "logistic_clip", "zero", "gaussian", cutoff_out_of_band)
        add(37, 4, "gaussian", "saturating", "bandlimited", "mode", negative_width)
        add(38, 4, "sech", "saturating", "gaussian", "csv", three_columns)
    return out


def known_defect_configs(rng) -> list[dict]:
    """Inputs on which the runner breaks its documented contract.

    Each should end in the exit code given, with ``certificate.txt`` and
    ``summary.txt`` written. At the commit that added the benchmark every one
    fails: the first five raise, the next two exit with the wrong code, the
    next two are rejected while parsing, before either artifact is written,
    and the last has its exact Lipschitz constant rejected by the sampled
    check, whose tolerance ignores the roundoff of adding the source.
    """

    def exact_lipschitz_with_source(c):
        c["nonlinearity"] = {
            "name": "linear_plus_source", "kappa": 1.0,
            "source": {"name": "bandlimited", "amplitude": 1.0, "p_lo": 0.3, "p_hi": 1.0},
        }

    edits = {
        "horizon_nan": (4, lambda c: c.update(horizon=float("nan"))),
        "horizon_inf": (4, lambda c: c.update(horizon=float("inf"))),
        "max_iter_fraction": (4, lambda c: c["solver"].update(max_iter=2.5)),
        "tol_fix_string": (4, lambda c: c["solver"].update(tol_fix="tiny")),
        "max_window_negative": (4, lambda c: c["solver"].update(max_window_length=-1)),
        "b_nan": (4, lambda c: c["model"].update(b=float("nan"))),
        "lipschitz_bool": (4, lambda c: c["nonlinearity"].update(lipschitz=True)),
        "a_negative": (4, lambda c: c["model"].update(a=-1.0)),
        "n_odd": (4, lambda c: c["grid"].update(N=255)),
        "exact_lipschitz_with_source": (0, exact_lipschitz_with_source),
    }
    out = []
    for name, (expect, edit) in edits.items():
        cfg = _config(rng, 0, "gaussian", "saturating", "gaussian", "gaussian", {})
        edit(cfg)
        out.append({"name": f"defect_{name}", "expect": expect, "config": cfg})
    return out


WORKLOADS = {
    "march_wide": March(
        "march_wide",
        full=MarchSize(40.0, 8192, 256, 1.2, 0.4),
        smoke=MarchSize(40.0, 512, 16, 1.2, 0.4),
        oracle=False,
    ),
    "march_oracle": March(
        "march_oracle",
        full=MarchSize(40.0, 512, 64, 4.0, 0.4),
        smoke=MarchSize(40.0, 256, 16, 1.2, 0.4),
        oracle=True,
    ),
    "batch_cli": Batch(),
}
