"""Byte identity of two checkouts on the benchmark's inputs.

    python3 scripts/compare_roots.py --parent DIR --change DIR

Each DIR is the root of a checkout with its own ``src/``. Both run the same
inputs, drawn by the ``perfbench/workloads.py`` of ``--change``, which is
only read:

* every ``batch_configs`` config (the full set) and every
  ``known_defect_configs`` config at seeds 0-2, through the root's
  ``runner.main`` as the ``batch_cli`` workload runs them: the exit code,
  what ``main`` prints to stdout and to stderr, the text of ``summary.txt``,
  ``certificate.txt``, ``trace_w<k>.csv`` and ``norms_w<k>.csv``, and the
  sha256 of every other artifact file, ``final_field.sxd`` included;
* ``march_oracle`` at full size and ``march_wide`` at smoke size, seeds 0-1,
  through the root's ``global_march``: every window's ``final_raw``, Picard
  distances and ``oracle_rel_deviation``;
* every script in the root's ``demos/``, run on the root's ``src/`` in a
  fresh interpreter: the exit code and the sha256 of its stdout, with the
  directory that ``tempfile.mkdtemp`` made (demo 05 prints it) masked.

Each root runs in an interpreter of its own, in a temporary directory, with
no bytecode written. The script prints every key whose value differs or is
missing on one side, with the largest relative gap of a differing array;
of a differing text, the first differing line of each side and the largest
relative gap between the numbers of its differing lines, or "text differs"
when their count or the text around them differs. Then it prints the
number of keys compared. It exits 1 if any key differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

BATCH_SEEDS = (0, 1, 2)
MARCH_SEEDS = (0, 1)
#: (workload, smoke) of each march compared
MARCHES = (("march_oracle", False), ("march_wide", True))
#: artifacts and streams compared by their text, so that a difference shows
#: its line and size
TEXT_ARTIFACTS = re.compile(r"summary\.txt|certificate\.txt|(?:trace|norms)_w\d+\.csv"
                            r"|stdout|stderr")
#: a number as the artifacts print it (``repr`` of a float or an int, nan, inf),
#: not part of a name such as ``trace_w0`` or ``d6u_l2``
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def mask_mkdtemp(text: str, tmpdir: Path) -> str:
    """``text`` with each path of a directory made directly in ``tmpdir``
    (as ``tempfile.mkdtemp`` makes them) read as ``<mkdtemp>``."""
    return re.sub(re.escape(os.path.join(str(tmpdir), "")) + r"[^/\s]+", "<mkdtemp>", text)


def collect(src: Path, workloads_path: Path, workdir: Path) -> dict:
    """Every compared value of one checkout, by key: a string (exit code or
    sha256) or an array."""
    sys.path.insert(0, str(src))
    import cubelap as cl

    if Path(cl.__file__).parent != src / "cubelap":
        raise RuntimeError(f"imported cubelap from {cl.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("workloads", workloads_path)
    wl = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    values = {}
    for seed in BATCH_SEEDS:
        work = workdir / f"batch_seed{seed}"
        work.mkdir()
        inputs = wl.Batch().build(cl, seed, False, work)
        os.chdir(work)  # the configs name their CSV files relative to it
        for cfg in inputs["configs"] + inputs["probe"]:
            name = cfg["name"]
            out = Path("out") / name
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cl.runner.main(["--config", f"{name}.json", "--out", str(out)])
            key = f"batch_cli/seed{seed}/{name}"
            values[f"{key}/exit"] = str(code)
            values[f"{key}/stdout"] = stdout.getvalue()
            values[f"{key}/stderr"] = stderr.getvalue()
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                text = TEXT_ARTIFACTS.fullmatch(path.name)
                values[f"{key}/{path.name}"] = (data.decode() if text
                                                else hashlib.sha256(data).hexdigest())
    for name, smoke in MARCHES:
        march = wl.WORKLOADS[name]
        for seed in MARCH_SEEDS:
            inputs = march.build(cl, seed, smoke, workdir)
            for k, rep in enumerate(march.solve(cl, inputs)):
                key = f"{name}/seed{seed}/w{k}"
                values[f"{key}/final_raw"] = rep.final_raw
                values[f"{key}/distances"] = rep.trace.distances
                dev = rep.oracle_rel_deviation
                values[f"{key}/oracle_rel_deviation"] = np.array(np.nan if dev is None else dev)
    for demo in sorted((src.parent / "demos").glob("*.py")):
        tmpdir = workdir / f"demo_{demo.stem}"
        tmpdir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmpdir))
        proc = subprocess.run([sys.executable, "-B", str(demo)], cwd=tmpdir, env=env,
                              capture_output=True, text=True)
        values[f"demos/{demo.stem}/exit"] = str(proc.returncode)
        stdout = mask_mkdtemp(proc.stdout, tmpdir).encode()
        values[f"demos/{demo.stem}/stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
    return values


def _line_gap(parent: str, change: str) -> float | None:
    """The largest |change - parent| / |parent| between the numbers of two
    lines, paired in order, or None when their count or the text around them
    differs. Equal numbers (nan with nan too) have gap 0; any other change
    from 0, nan or inf, or to nan or inf, has gap inf."""
    ps, cs = NUMBER.findall(parent), NUMBER.findall(change)
    if len(ps) != len(cs) or NUMBER.sub("#", parent) != NUMBER.sub("#", change):
        return None
    gaps = [0.0]
    for p, c in zip(map(float, ps), map(float, cs)):
        if p != c and not (math.isnan(p) and math.isnan(c)):
            finite = p != 0 and math.isfinite(p) and math.isfinite(c)
            gaps.append(abs(c - p) / abs(p) if finite else math.inf)
    return max(gaps)


def _text_difference(parent: str, change: str) -> str:
    """The first line at which two different texts differ, on each side (a
    text that has ended reads ``<end>`` there), and the largest relative gap
    over all their differing lines, or "text differs"."""
    pairs = zip_longest(parent.split("\n"), change.split("\n"), fillvalue="<end>")
    differing = [(n, p, c) for n, (p, c) in enumerate(pairs, 1) if p != c]
    gaps = [_line_gap(p, c) for _, p, c in differing]
    n, p, c = differing[0]
    size = ("text differs" if None in gaps else
            f"largest relative gap {max(gaps):.3e} over {len(differing)} differing lines")
    return f"line {n}: {p!r} -> {c!r}; {size}"


def differences(parent: dict, change: dict) -> list[str]:
    """One line per key whose value is not the same on both sides."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            lines.append(f"{key}: only in {'change' if key in change else 'parent'}")
            continue
        p, c = parent[key], change[key]
        if isinstance(p, str) or isinstance(c, str):
            if p != c and TEXT_ARTIFACTS.fullmatch(key.rsplit("/", 1)[-1]):
                lines.append(f"{key}: {_text_difference(p, c)}")
            elif p != c:
                lines.append(f"{key}: {p} -> {c}")
        elif p.shape != c.shape:
            lines.append(f"{key}: shape {p.shape} -> {c.shape}")
        elif p.tobytes() != c.tobytes():
            with np.errstate(all="ignore"):
                gap = np.max(np.abs(c - p)) / np.max(np.abs(p))
            lines.append(f"{key}: differs, max |change - parent| / max |parent| = {gap:.3e}")
    return lines


def _run_root(side: str, root: Path, workloads_path: Path, scratch: Path) -> dict:
    """``collect`` in a fresh interpreter for one checkout."""
    workdir, result = scratch / side, scratch / f"{side}.pickle"
    workdir.mkdir()
    cmd = [sys.executable, "-B", __file__, "--worker", str(root / "src"), str(workloads_path),
           str(workdir), str(result)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: the worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result, "rb") as fh:
        return pickle.load(fh)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        src, workloads_path, workdir, result = map(Path, argv[1:])
        values = collect(src, workloads_path, workdir)
        with open(result, "wb") as fh:
            pickle.dump(values, fh)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads_path = args.change.resolve() / "perfbench" / "workloads.py"
    with tempfile.TemporaryDirectory() as scratch:
        values = {side: _run_root(side, root.resolve(), workloads_path, Path(scratch))
                  for side, root in (("parent", args.parent), ("change", args.change))}
    lines = differences(values["parent"], values["change"])
    print("\n".join(lines + [f"{len(lines)} of {len(values['change'])} keys differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
