"""Property test of the exit-code contract of ``runner.main``.

For every configuration file, well-formed or not, ``main`` returns 0, 2, 3
or 4 without raising and leaves ``certificate.txt`` and ``summary.txt`` in
the ``--out`` directory; a run that exits 3 names its failing window and
phase in the ``error=`` line of ``summary.txt``. Configurations are drawn around tiny valid runs
(N <= 64, at most 8 frames, horizons up to 0.5) over every catalog entry,
then broken by up to three edits: a key deleted, an unknown key added, or a
value replaced by a malformed one (wrong type, NaN, infinity, non-positive)
or, for the sizes with a memory bound, by an integer beyond the bound.
Replacements never make a run long (a huge horizon or oracle factor, a tiny
window): the runner bounds memory, not run time.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubelap.runner import MAX_LIPSCHITZ_TRIALS, main

EXIT_CODES = {0, 2, 3, 4}
WINDOW_FAILURE = re.compile(r"^window \d+ failed \((picard|oracle)\): ")


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


SOURCES = st.one_of(
    st.fixed_dictionaries({"name": st.just("zero")}),
    st.fixed_dictionaries({"name": st.just("gaussian"), "amplitude": _floats(-0.2, 0.2),
                           "width": _floats(0.5, 2.0), "center": _floats(-2.0, 2.0)}),
    st.fixed_dictionaries({"name": st.just("bandlimited"), "amplitude": _floats(0.0, 0.2),
                           "p_lo": _floats(0.1, 0.5), "p_hi": _floats(0.6, 1.5)}),
)
KERNELS = st.one_of(
    st.fixed_dictionaries({"name": st.sampled_from(["gaussian", "sech"]),
                           "amplitude": _floats(1e-3, 0.05), "width": _floats(0.5, 3.0)}),
    st.fixed_dictionaries({"name": st.just("bandlimited"), "amplitude": _floats(1e-3, 0.05),
                           "cutoff": _floats(0.3, 2.0)}),
    st.just({"name": "tabulated", "path": "KERNEL_CSV"}),
)
NONLINEARITIES = st.one_of(
    st.fixed_dictionaries({"name": st.just("linear_plus_source"), "kappa": _floats(-2.0, 2.0),
                           "source": SOURCES}),
    st.fixed_dictionaries({"name": st.just("saturating"), "lipschitz": _floats(0.1, 50.0),
                           "source": SOURCES}),
    st.fixed_dictionaries({"name": st.just("logistic_clip"), "lipschitz": _floats(0.1, 50.0),
                           "u_max": _floats(0.5, 2.0), "source": SOURCES}),
)
INITIAL = st.one_of(
    st.just({"name": "zero"}),
    st.fixed_dictionaries({"name": st.just("gaussian"), "amplitude": _floats(-1.0, 1.0),
                           "width": _floats(0.5, 2.0), "center": _floats(-2.0, 2.0)}),
    st.fixed_dictionaries({"name": st.just("mode"), "amplitude": _floats(-1.0, 1.0),
                           "k": st.integers(0, 3)}),
    st.just({"name": "csv", "path": "U0_CSV"}),
)
VALID = st.fixed_dictionaries(
    {
        "grid": st.fixed_dictionaries({"L": _floats(2.0, 20.0),
                                       "N": st.sampled_from([8, 16, 32, 64])}),
        "model": st.fixed_dictionaries({"a": _floats(0.0, 1.0), "b": _floats(-2.0, 2.0)}),
        "kernel": KERNELS,
        "nonlinearity": NONLINEARITIES,
        "initial_condition": INITIAL,
        "horizon": _floats(0.01, 0.5),
        "solver": st.fixed_dictionaries(
            {"max_window_length": _floats(0.05, 0.5)},
            optional={
                "frames": st.integers(2, 8),
                "max_iter": st.integers(1, 10),
                "safety": _floats(0.1, 0.95),
                "oracle_substeps_factor": st.integers(4, 6),
                "tol_fix": st.one_of(st.none(), _floats(1e-12, 1e-3)),
                "seed": st.integers(0, 5),
                "lipschitz_trials": st.integers(1, 200),
            },
        ),
        "flags": st.fixed_dictionaries(
            {}, optional={"run_oracle": st.booleans(), "override_certificate": st.booleans()}
        ),
    }
)
MALFORMED = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 0),
    _floats(-1e3, 0.0),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 2), max_size=2),
)
#: The sizes with a parse-time memory bound, and values beyond it.
SIZES = [
    ("grid", "N", [2**30, 2**23]),
    ("solver", "frames", [10**7, 2**23]),
    ("solver", "lipschitz_trials", [10**10, MAX_LIPSCHITZ_TRIALS + 1]),
]


@st.composite
def configs(draw):
    # st.just hands out one dict object to every example: edit a copy
    cfg = copy.deepcopy(draw(VALID))
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sorted(cfg) + ["<top>"]))
        target = cfg.get(section) if isinstance(cfg.get(section), dict) else cfg
        action = draw(st.sampled_from(["delete", "add", "replace", "resize"]))
        if action == "resize":
            where, key, huge = draw(st.sampled_from(SIZES))
            if isinstance(cfg.get(where), dict):
                cfg[where][key] = draw(st.sampled_from(huge))
        elif action == "add":
            target[draw(st.text(min_size=1, max_size=4))] = draw(MALFORMED)
        elif target:
            key = draw(st.sampled_from(sorted(target)))
            if action == "delete":
                del target[key]
            else:
                target[key] = draw(MALFORMED)
    return cfg


def _csv(path: Path, x: np.ndarray, y: np.ndarray):
    path.write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))


def _fill_paths(value, files: dict):
    if isinstance(value, dict):
        return {k: _fill_paths(v, files) for k, v in value.items()}
    return files.get(value, value) if isinstance(value, str) else value


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(configs())
def test_main_keeps_the_exit_code_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        x = np.linspace(-5.0, 5.0, 101)
        _csv(tmp / "k.csv", x, 0.01 * np.exp(-x * x))
        _csv(tmp / "u0.csv", x, np.exp(-x * x))
        files = {"KERNEL_CSV": str(tmp / "k.csv"), "U0_CSV": str(tmp / "u0.csv")}
        path = tmp / "run.json"
        path.write_text(json.dumps(_fill_paths(cfg, files)))
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(path), "--out", str(out)])
        assert code in EXIT_CODES
        assert (out / "certificate.txt").is_file()
        summary = dict(line.split("=", 1)
                       for line in (out / "summary.txt").read_text().splitlines()
                       if not line.startswith("#"))
        if code == 3:
            assert WINDOW_FAILURE.match(summary["error"]), summary["error"]
