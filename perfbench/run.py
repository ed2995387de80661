"""Run one workload of the cubelap benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. Each repetition is a fresh Python process
(``worker.py``) started one at a time, a closed loop with a single caller;
a run makes as many as fill ``--seconds`` at the typical speed. With
``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` traced and
untraced repetitions alternate and it holds every per-layer metric. The
line before it is a JSON record of the machine, the samples and every check
that failed.

``--smoke`` shrinks every problem and fixes the repetitions (two untraced,
or one untraced and two traced), so a run takes seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("march_wide", "march_oracle", "batch_cli")
MARCHES = ("march_wide", "march_oracle")
#: Every run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 165.0
#: Seconds budgeted per repetition, near its wall time on a 2-core 2.1 GHz
#: Xeon. A run makes --seconds / NOMINAL_S repetitions, a count fixed before
#: it starts, so the sample count (and the rank of run_tail_s) does not move
#: with the speed of the code or the load of the machine.
NOMINAL_S = {"march_wide": 10.0, "march_oracle": 2.5, "batch_cli": 5.0}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
#: Outcomes of runner.main counted as runner.exit.<code> in a traced run.
EXIT_CODES = (0, 2, 3, 4, "raised")
#: Per-layer counts that must repeat exactly across traced repetitions.
EXACT = ("calls", "constructions", "iterations", "windows", "mode_updates", "substeps")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if sys.flags.optimize or not __debug__:
        return fail("refusing to run under python -O: it drops cubelap's growth check")
    if not (SRC / "cubelap" / "__init__.py").is_file():
        return fail(f"no cubelap sources under {SRC}; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    load_start = os.getloadavg()
    run_dir = TMP / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        reps = repetitions(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()
    done = [r for r in reps if "result" in r]
    if not done:
        for r in reps:
            print(r.get("error", ""), file=sys.stderr)
        return fail("no repetition produced a result")

    record, metrics, attempted, failed = aggregate(args, reps)
    record["machine"] = machine(done[0]["result"], load_start)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            record["absent"].setdefault(m["name"], "not measured on this workload")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out,
    }))
    return 0


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = str(SRC)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    return env


def plan(args) -> list[tuple[bool, bool]]:
    """(traced, probe) for each repetition; traced ones alternate with --trace 1."""
    if args.smoke:
        traced = [False, True, True] if args.trace else [False, False]
    else:
        count = max(1 + 2 * args.trace, round(args.seconds / NOMINAL_S[args.workload]))
        # traced first, so an odd count still gives two traced repetitions
        traced = [bool(args.trace and i % 2 == 0) for i in range(count)]
    probe = args.workload == "batch_cli"
    return [(t, probe and i == 0) for i, t in enumerate(traced)]


def repetitions(args, run_dir: Path) -> list[dict]:
    env = worker_env()
    start = time.perf_counter()
    # untimed: compiles bytecode and warms the file cache for the first setup
    subprocess.run([sys.executable, "-c", "import cubelap"], env=env, cwd=run_dir,
                   capture_output=True, timeout=RUN_LIMIT_S)
    reps = []
    for i, (traced, probe) in enumerate(plan(args)):
        elapsed = time.perf_counter() - start
        if elapsed > RUN_LIMIT_S - 1.0:
            reps.append({"traced": traced, "error": f"no time left for repetition {i}"})
            break
        workdir = run_dir / f"rep{i}"
        workdir.mkdir()
        result_path = run_dir / f"rep{i}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", str(workdir),
               "--result", str(result_path)]
        cmd += ["--traced"] * traced + ["--smoke"] * args.smoke + ["--probe"] * probe
        rep = {"traced": traced}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                                  timeout=RUN_LIMIT_S - elapsed)
        except subprocess.TimeoutExpired:
            rep["error"] = f"repetition {i} timed out"
            reps.append(rep)
            break
        rep["wall_s"] = time.perf_counter() - t0
        if proc.returncode == 0 and result_path.exists():
            rep["result"] = json.loads(result_path.read_text())
        else:
            rep["error"] = f"repetition {i} exited {proc.returncode}: {proc.stderr[-2000:]}"
        shutil.rmtree(workdir, ignore_errors=True)
        reps.append(rep)
    return reps


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    Below 100 samples that percentile falls under the 90th, so the maximum
    is reported instead, as the 100th percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def aggregate(args, reps: list[dict]):
    untraced = [r for r in reps if "result" in r and not r["traced"]]
    traced = [r for r in reps if "result" in r and r["traced"]]
    problems, attempted, failed = [], 0, 0
    for r in reps:
        if "result" not in r:
            attempted += 1
            failed += 1
            problems.append(r["error"])
            continue
        for op in r["result"]["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                problems += [f"{op['name']}: {p}" for p in op["problems"]]
    if args.workload == "batch_cli":
        bad = summary_mismatches([r["result"] for r in untraced + traced])
        failed += len(bad)
        problems += [f"{name}: summary.txt differs between repetitions" for name in bad]

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "failed_frac": failed / attempted if attempted else None,
        "problems": problems[:50], "absent": {},
        "reference_checked": any(op.get("reference_checked") for r in untraced + traced
                                 for op in r["result"]["ops"]),
    }
    probe = next((r["result"]["probe"] for r in reps
                  if "result" in r and r["result"]["probe"] is not None), None)
    if probe is not None:
        record["known_defects"] = {
            "failed": sum(not op["ok"] for op in probe), "attempted": len(probe),
            "outcomes": {op["name"]: op["exit"] if op["ok"] else op["problems"] for op in probe},
        }

    metrics = {}
    if untraced:
        res = [r["result"] for r in untraced]
        if args.workload in MARCHES:
            latencies = [r["wall_s"] for r in untraced]
            timed = sum(latencies)
        else:
            latencies = [op["latency_s"] for x in res for op in x["ops"]]
            timed = sum(x["timed_s"] for x in res)
        value, pct = tail(latencies)
        record["tail"] = {"percentile": pct, "samples": len(latencies)}
        metrics.update({
            "setup_s": statistics.median(x["setup_s"] for x in res),
            "solve_s": statistics.median(x["solve_s"] for x in res),
            "run_p50_s": statistics.median(latencies),
            "run_tail_s": value,
            "runs_per_s": len(latencies) / timed,
            "peak_rss_mb": statistics.median(x["peak_rss_mb"] for x in res),
        })
        record["samples"] = {
            "setup_s": [x["setup_s"] for x in res],
            "solve_s": [x["solve_s"] for x in res],
            "run_s": latencies if len(latencies) <= 64 else None,
        }
    if traced:
        layers, absent = per_layer(args, untraced, traced, record)
        metrics.update(layers)
        record["absent"].update(absent)
        record["per_layer"] = layers
    return record, metrics, attempted, failed


def summary_mismatches(results: list[dict]) -> list[str]:
    seen: dict[str, set] = {}
    for res in results:
        for op in res["ops"]:
            seen.setdefault(op["name"], set()).add(op["summary_sha256"])
    return sorted(name for name, digests in seen.items() if len(digests) > 1)


def per_layer(args, untraced, traced, record):
    """Counts from the first traced repetition, self times as medians."""
    runs = [r["result"] for r in traced]
    layers = {}
    for name, value in runs[0]["per_layer"].items():
        if name.endswith("_s"):
            layers[name] = statistics.median(x["per_layer"][name] for x in runs)
        else:
            layers[name] = value
            if name.endswith(EXACT) and any(x["per_layer"][name] != value for x in runs):
                record["problems"].append(f"{name} differs between traced repetitions")
    exits = [Counter(op["exit"] for op in x["ops"] if "exit" in op) for x in runs]
    if any(e != exits[0] for e in exits):
        record["problems"].append("runner exit codes differ between traced repetitions")
    absent = dict(runs[0]["absent"])
    for code in EXIT_CODES:
        if exits[0]:
            layers[f"runner.exit.{code}"] = exits[0][code]
        else:
            absent[f"runner.exit.{code}"] = "this workload does not call runner.main"
    if untraced:
        key = "solve_s" if args.workload in MARCHES else "timed_s"
        layers["trace.overhead_s"] = (
            statistics.median(x[key] for x in runs)
            - statistics.median(r["result"][key] for r in untraced)
        )
        record["trace_overhead_basis"] = key
    record["spans"] = [x["spans"] for x in runs]
    return layers, absent


def machine(result: dict, load_start: tuple) -> dict:
    env = worker_env()
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "python": platform.python_version(),
        "numpy": result["versions"]["numpy"],
        "scipy": result["versions"]["scipy"],
        "python_optimize": sys.flags.optimize,
        "thread_caps": {v: env[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "cubelap_file": result["cubelap_file"],
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never searches upward."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cubelap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
