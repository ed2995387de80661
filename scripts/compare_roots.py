"""Agreement of two checkouts on the benchmark's inputs, by the march rule.

    python3 scripts/compare_roots.py --parent DIR --change DIR

Each DIR is the root of a checkout with its own ``src/``. Both run the same
inputs, drawn by the ``perfbench/workloads.py`` of ``--change``, which is
only read:

* every ``batch_configs`` config (the full set) and every
  ``known_defect_configs`` config at seeds 0-2, through the root's
  ``runner.main`` as the ``batch_cli`` workload runs them: the exit code,
  what ``main`` prints to stdout and to stderr, the text of ``summary.txt``,
  ``certificate.txt``, ``trace_w<k>.csv`` and ``norms_w<k>.csv``, the last
  frame of ``final_field.sxd`` (``final_field.sxd/last_frame``) with the
  shape of its frames, and the sha256 of every other artifact file;
* ``march_oracle`` at full size and ``march_wide`` at smoke size, seeds 0-1,
  and ``march_wide`` at full size, seed 1 (where its windows force on a
  reduced grid), through the root's ``global_march``: every window's
  ``final_raw``, Picard distances and ``oracle_rel_deviation``;
* every script in the root's ``demos/``, run on the root's ``src/`` in a
  fresh interpreter: the exit code and its stdout as text, with the
  directory that ``tempfile.mkdtemp`` made (demo 05 prints it) masked.

Each root runs in an interpreter of its own, in a temporary directory, with
no bytecode written. The script prints every key whose value differs or is
missing on one side, with the largest relative gap of a differing array;
of a differing text, the first differing line of each side and the largest
relative gap between the numbers of its differing lines, or "text differs"
when their count or the text around them differs. Then it prints the
number of keys compared, and applies the march rule of
``scripts/march_rule.py``, whose ``RTOL`` and ``ratio_tol`` it reads, to
every differing key (``failures``): a key present on both sides; exit
codes, digests and the non-numeric text identical; every number within
``RTOL`` relative; every Picard distance within ``RTOL`` times its window's
first distance d_1, and the numbers derived from distances (the ratios
``r_n``, and ``max_picard_ratio``, ``certificate_slack`` and
``picard_error_bound`` of ``summary.txt``) within what that moves them by; a
final frame within ``RTOL`` in relative L2, and an oracle deviation, a
fraction of the state's norm, within ``RTOL``, in the march's arrays and in
``summary.txt`` alike.
Two nonzero numbers below ``ROUNDOFF`` in magnitude are both the round-off
of a zero and agree; an exact zero must stay one.
It prints each key that breaks the rule, then ``PASS`` and exits 0, or
``FAIL`` and exits 1.
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

from march_rule import RTOL, breaks, ratio_tol

BATCH_SEEDS = (0, 1, 2)
#: (workload, smoke, seeds) of each march compared: ``march_wide`` at full
#: size reaches the reduced forcing grid, which the smoke size (N = 512) does not
MARCHES = (("march_oracle", False, (0, 1)), ("march_wide", True, (0, 1)),
           ("march_wide", False, (1,)))
#: the part of the march rule each array key is held to; any other array is
#: a final frame
ARRAY_PARTS = {"distances": "distances", "oracle_rel_deviation": "deviation"}
#: Numbers of the artifacts and demos are of problems of order 1: two nonzero
#: numbers below this are the round-off of a zero (100 eps).
ROUNDOFF = 1e-14
#: the summary keys derived from Picard distances
DISTANCE_KEYS = ("max_picard_ratio", "certificate_slack", "picard_error_bound")
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
                if path.name == "final_field.sxd":
                    frames = cl.load_spacetime_field(path).frames
                    values[f"{key}/{path.name}/last_frame"] = frames[-1]
                    values[f"{key}/{path.name}/shape"] = str(frames.shape)
                    continue
                data = path.read_bytes()
                text = TEXT_ARTIFACTS.fullmatch(path.name)
                values[f"{key}/{path.name}"] = (data.decode() if text
                                                else hashlib.sha256(data).hexdigest())
    for name, smoke, seeds in MARCHES:
        march = wl.WORKLOADS[name]
        for seed in seeds:
            inputs = march.build(cl, seed, smoke, workdir)
            for k, rep in enumerate(march.solve(cl, inputs)):
                key = f"{name}{'-smoke' if smoke else ''}/seed{seed}/w{k}"
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
        values[f"demos/{demo.stem}/stdout"] = mask_mkdtemp(proc.stdout, tmpdir)
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


def _agree(p: float, c: float, tol: float) -> bool:
    """Whether c is p within ``tol``: equal (nan with nan too), both nonzero
    round-off below ``ROUNDOFF``, or finite and at most ``tol`` apart."""
    if p == c or (math.isnan(p) and math.isnan(c)):
        return True
    if not (math.isfinite(p) and math.isfinite(c)):
        return False
    if p != 0 and c != 0 and max(abs(p), abs(c)) < ROUNDOFF:
        return True
    return abs(c - p) <= tol


def _trace_rows(text: str) -> list[list[float | None]]:
    """The n,d_n,r_n,C rows of a ``trace_w<k>.csv``, an empty ratio None."""
    return [[float(v) if v else None for v in line.split(",")]
            for line in text.split("\n") if line[:1].isdigit()]


def _trace_tols(rows: list[list[float | None]]) -> list[list[float | None]]:
    """The tolerance of every number of a trace's rows, by column."""
    d_1 = rows[0][1]
    return [[0.0, RTOL * d_1, None if r is None else ratio_tol(r, d, d_1), RTOL * abs(c)]
            for _, d, r, c in rows]


def _summary_tols(key: str, parent: dict) -> dict[str, float]:
    """The tolerance, beyond RTOL relative, of each ``summary.txt`` value of
    the run whose summary is ``key`` that the march rule holds to another
    scale: the oracle deviation, a fraction of the state's norm, to RTOL
    absolute, and the values derived from distances, from the parent's
    traces of that run: a maximum of ratios moves by at most the largest
    ratio tolerance, the slack by that over C, and the Banach bound C/(1-C)
    d_last by C/(1-C) RTOL d_1 of the window with the largest d_1."""
    tols = {"oracle_rel_deviation": RTOL}
    run = key.rsplit("/", 1)[0] + "/"
    traces = [_trace_rows(text) for k, text in parent.items()
              if k.startswith(run) and re.fullmatch(r"trace_w\d+\.csv", k[len(run):])]
    if not traces or not traces[0]:
        return tols
    c = traces[0][0][3]
    ratio = max([t[2] for rows in traces for t in _trace_tols(rows) if t[2] is not None],
                default=0.0)
    d_1 = max(rows[0][1] for rows in traces)
    return {**tols, "max_picard_ratio": ratio, "certificate_slack": ratio / c,
            "picard_error_bound": c / (1.0 - c) * RTOL * d_1 if c < 1.0 else 0.0}


def _text_failure(key: str, p: str, c: str, parent: dict) -> str | None:
    """Why two texts break the march rule, or None: their lines pair up with
    the same text around the numbers, and each number agrees (``_agree``)
    within its tolerance, RTOL relative unless the trace or the summary
    gives a wider one."""
    name = key.rsplit("/", 1)[-1]
    plines, clines = p.split("\n"), c.split("\n")
    if len(plines) != len(clines):
        return f"{len(plines)} lines -> {len(clines)}"
    trace = _trace_rows(p) if re.fullmatch(r"trace_w\d+\.csv", name) else None
    tols = iter(_trace_tols(trace)) if trace else None
    derived = _summary_tols(key, parent) if name == "summary.txt" else {}
    for n, (pl, cl) in enumerate(zip(plines, clines), 1):
        row = next(tols) if tols is not None and pl[:1].isdigit() else None
        if pl == cl:
            continue
        if NUMBER.sub("#", pl) != NUMBER.sub("#", cl):
            return f"line {n}: text differs"
        if row is not None:
            pairs = [(float(a), float(b), t) for a, b, t
                     in zip(pl.split(","), cl.split(","), row) if a and b]
        else:
            extra = derived.get(pl.split("=", 1)[0], 0.0)
            numbers = zip(map(float, NUMBER.findall(pl)), map(float, NUMBER.findall(cl)))
            pairs = [(a, b, RTOL * abs(a) + extra) for a, b in numbers]
        for a, b, t in pairs:
            if not _agree(a, b, t):
                return f"line {n}: {a!r} -> {b!r}, more than {t:.3e} apart"
    return None


def failures(parent: dict, change: dict) -> list[str]:
    """One line per key whose values break the march rule (module docstring)."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            lines.append(f"{key}: only in {'change' if key in change else 'parent'}")
            continue
        p, c = parent[key], change[key]
        name = key.rsplit("/", 1)[-1]
        why = None
        if isinstance(p, str) or isinstance(c, str):
            if p != c:
                why = (_text_failure(key, p, c, parent) if TEXT_ARTIFACTS.fullmatch(name)
                       else "differs")
        elif p.shape != c.shape:
            why = f"shape {p.shape} -> {c.shape}"
        elif p.tobytes() != c.tobytes():
            why = "; ".join(breaks(**{ARRAY_PARTS.get(name, "final"): (c, p)})) or None
        if why is not None:
            lines.append(f"{key}: {why}")
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
    broken = failures(values["parent"], values["change"])
    print("\n".join([f"FAIL {line}" for line in broken] + ["FAIL" if broken else "PASS"]))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
