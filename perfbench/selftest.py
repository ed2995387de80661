"""Self-test of the benchmark: result schema, references and refusals.

    python3 perfbench/selftest.py

Runs every workload in smoke mode at the default seed, untraced and traced,
and checks the printed result against ``BENCHMARK.json``, the stored
references against their digests, and that the benchmark refuses to run
under ``python -O`` and without the cubelap sources. It asserts no timing,
so a slow or busy machine cannot make it fail. Exits 0 when every check
holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(args: list[str], cwd: Path = ROOT, flags: tuple = ()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *flags, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_benchmark_file(bench: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(bench)}")
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        if not NAME.match(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: bad entry")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m['name']}: bad entry")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m['name']}: bad entry")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"{m['name']}: bad unit or direction")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s missing or malformed")
    return errors


def check_references() -> list[str]:
    manifest = json.loads((HERE / "reference" / "manifest.json").read_text())
    errors = []
    for fname, digest in manifest.items():
        data = (HERE / "reference" / fname).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            errors.append(f"reference/{fname} does not match its digest")
    return errors


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: not correct: {record['problems']}")
    if record["problems"]:
        errors.append(f"{where}: problems {record['problems']}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        missing = sorted({m["name"] for m in wanted} - set(result["metrics"]))
        errors.append(f"{where}: metrics missing {missing}, absent {record['absent']}")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != m["unit"] or set(got) != {"value", "unit"}:
            errors.append(f"{where}: {m['name']} entry {got}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} = {value!r}")
        elif value == 0 and m["name"] != "trace.overhead_s":
            errors.append(f"{where}: {m['name']} is zero")
    if workload != "batch_cli" and not record.get("reference_checked"):
        errors.append(f"{where}: the default-seed reference was not compared")
    if workload == "batch_cli" and "known_defects" not in record:
        errors.append(f"{where}: the known-defect probe did not run")
    return errors


def check_refusals() -> list[str]:
    errors = []
    args = ["--workload", "march_oracle", "--seed", "0", "--seconds", "1", "--trace", "0",
            "--smoke"]
    proc = run(args, flags=("-O",))
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("ran under python -O")
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(args, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("ran without the cubelap sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_benchmark_file(bench) + check_references() + check_refusals()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            errors += check_result(bench, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
