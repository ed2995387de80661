"""``scripts/compare_roots.py``: what counts as a difference between two roots."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_roots", ROOT / "scripts" / "compare_roots.py"
)
compare_roots = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_roots)


def test_differences_name_every_changed_missing_or_reshaped_key():
    x = np.array([1.0, 2.0])
    parent = {"c/exit": "0", "c/summary.txt": "status=x\nerror=a\nwindows=1\n",
              "c/certificate.txt": "q=1\n", "c/final_field.sxd": "aa",
              "m/final_raw": x, "m/distances": x,
              "m/oracle_rel_deviation": np.array(1e-6), "gone": "1"}
    change = {"c/exit": "3", "c/summary.txt": "status=x\nerror=b\nwindows=1\n",
              "c/certificate.txt": "q=1\nT=2\n", "c/final_field.sxd": "bb",
              "m/final_raw": np.nextafter(x, 3.0),
              "m/distances": np.ones(3), "m/oracle_rel_deviation": np.array(1e-6), "new": "1"}
    assert compare_roots.differences(parent, change) == [
        "c/certificate.txt: line 2: '' -> 'T=2'; text differs",
        "c/exit: 0 -> 3",
        "c/final_field.sxd: aa -> bb",
        "c/summary.txt: line 2: 'error=a' -> 'error=b'; text differs",
        "gone: only in parent",
        "m/distances: shape (2,) -> (3,)",
        "m/final_raw: differs, max |change - parent| / max |parent| = 2.220e-16",
        "new: only in change",
    ]


def test_text_artifacts_show_the_size_of_a_numeric_difference():
    # the CSVs are compared as text: numbers that moved in their low bits
    # show the largest relative gap over the file's differing lines, and a
    # line whose words or number count changed shows "text differs"
    header = "n,d_n,r_n,C\n"
    parent = {"c/trace_w0.csv": header + "1,0.5,,0.0125\n2,0.25,0.5,0.0125\n",
              "c/norms_w1.csv": "t,l2,d6u_l2,dudt_l2\n0.4,1.0,2.0,nan\n",
              "c/trace_w1.csv": header + "1,0.5,,0.0125\n",
              "c/summary.txt": "overlap=0.0\nwindows=1\n"}
    change = {"c/trace_w0.csv": header + "1,0.5000000000000001,,0.0125\n2,0.25,0.5,0.0126\n",
              "c/norms_w1.csv": "t,l2,d6u_l2,dudt_l2\n0.4,1.0,2.0000000000000004,nan\n",
              "c/trace_w1.csv": header + "1,0.5,0.9,0.0125\n",
              "c/summary.txt": "overlap=1e-300\nwindows=1\n"}
    assert compare_roots.differences(parent, change) == [
        "c/norms_w1.csv: line 2: '0.4,1.0,2.0,nan' -> '0.4,1.0,2.0000000000000004,nan'; "
        "largest relative gap 2.220e-16 over 1 differing lines",
        "c/summary.txt: line 1: 'overlap=0.0' -> 'overlap=1e-300'; "
        "largest relative gap inf over 1 differing lines",
        "c/trace_w0.csv: line 2: '1,0.5,,0.0125' -> '1,0.5000000000000001,,0.0125'; "
        "largest relative gap 8.000e-03 over 2 differing lines",
        "c/trace_w1.csv: line 2: '1,0.5,,0.0125' -> '1,0.5,0.9,0.0125'; text differs",
    ]


def test_what_main_prints_is_compared_as_text():
    # a batch run's stdout and stderr are keys of their own; a changed line
    # shows as a text artifact's does, an empty stream equals itself
    parent = {"c/stdout": "status=ok exit=0\n", "c/stderr": "",
              "d/stdout": "", "d/stderr": "configuration rejected: x\n"}
    change = {"c/stdout": "status=assumption_violation exit=4 (y)\n", "c/stderr": "",
              "d/stdout": "", "d/stderr": "configuration rejected: x\nout cannot be written\n"}
    assert compare_roots.differences(parent, change) == [
        "c/stdout: line 1: 'status=ok exit=0' -> 'status=assumption_violation exit=4 (y)'; "
        "text differs",
        "d/stderr: line 2: '' -> 'out cannot be written'; text differs",
    ]
    assert compare_roots.differences(parent, dict(parent)) == []


def test_bitwise_equal_values_are_no_difference():
    # a window without an oracle records nan, equal to itself bit for bit
    values = {"c/exit": "0", "m/oracle_rel_deviation": np.array(np.nan),
              "m/final_raw": np.array([1 + 2j, -0.0])}
    copy = {key: np.copy(v) if isinstance(v, np.ndarray) else v for key, v in values.items()}
    assert compare_roots.differences(values, copy) == []
    # a sign of zero is a bit too
    copy["m/final_raw"] = np.array([1 + 2j, 0.0])
    assert compare_roots.differences(values, copy) == [
        "m/final_raw: differs, max |change - parent| / max |parent| = 0.000e+00"
    ]


def test_mask_mkdtemp_hides_only_the_made_directory(tmp_path):
    made = tmp_path / "cubelap_demo_k3x9_q"
    text = (f"config written to {made}/run.json\n"
            f"(python -m cubelap --config {made}/run.json --oracle)\n"
            f"{tmp_path}other/x stays, {tmp_path} stays\n")
    assert compare_roots.mask_mkdtemp(text, tmp_path) == (
        "config written to <mkdtemp>/run.json\n"
        "(python -m cubelap --config <mkdtemp>/run.json --oracle)\n"
        f"{tmp_path}other/x stays, {tmp_path} stays\n"
    )
