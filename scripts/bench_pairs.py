"""Alternating parent/change runs of the benchmark, summed up in a BENCH_*.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seed N --pairs P --seconds S --out BENCH_<n>.json

Each DIR is the root of a checkout with its own ``src/``, ``perfbench/`` and
``BENCHMARK.json``. The two roots' resolved paths must have the same length
(name them, say, ``parent`` and ``change`` side by side): ``march_wide``'s
``peak_rss_mb`` steps by about 16 MB with the length of the directory name,
so roots of different lengths measure the path, not the change. A pair runs
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
once in each checkout, one after the other,
the parent first in even pairs and the change first in odd ones. The file
keeps, under ``workloads.NAME.N``: the pair count, every run's end-to-end
metrics, each side's median, quartiles and relative spread (its quartile
range over its own median, so that a faster side is not judged by the other
side's scale), the change's wins (ties count for neither side), the failed
and attempted operations, and each side's machine record from the ``record``
line (``src_sha256``, ``git_commit``). Another call
with the same ``--out`` adds or replaces one workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summarize(runs: dict, bench: dict) -> dict:
    metrics = {}
    for m in bench["end_to_end"]:
        name = m["name"]
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        lower = m["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                 "change_wins": wins}
        for side in SIDES:
            q1, _, q3 = statistics.quantiles(values[side], n=4)
            median = statistics.median(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3,
                           "rel_iqr": (q3 - q1) / median if median else None,
                           "runs": values[side]}
        metrics[name] = entry
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(roots["parent"])) != len(str(roots["change"])):
        parser.error(f"the resolved roots {roots['parent']} and {roots['change']} differ in "
                     "length, which moves peak_rss_mb; give them names of one length")
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(roots[side], args.workload, args.seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    entry = {"pairs": args.pairs, "seconds": args.seconds,
             "metrics": summarize(runs, bench)}
    for side in SIDES:
        machine = runs[side][0]["record"]["machine"]
        entry[side] = {
            "src_sha256": machine["src_sha256"], "git_commit": machine["git_commit"],
            "failed": sum(r["result"]["failed"] for r in runs[side]),
            "attempted": sum(r["result"]["attempted"] for r in runs[side]),
        }
    entry["machine"] = {k: machine[k] for k in ("cpu_model", "nproc", "python", "numpy",
                                               "scipy")}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "workloads": {},
    }
    doc["workloads"].setdefault(args.workload, {})[str(args.seed)] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
