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
    parent = {"c/exit": "0", "c/summary.txt": "aa", "m/final_raw": x, "m/distances": x,
              "m/oracle_rel_deviation": np.array(1e-6), "gone": "1"}
    change = {"c/exit": "3", "c/summary.txt": "aa", "m/final_raw": np.nextafter(x, 3.0),
              "m/distances": np.ones(3), "m/oracle_rel_deviation": np.array(1e-6), "new": "1"}
    assert compare_roots.differences(parent, change) == [
        "c/exit: 0 -> 3",
        "gone: only in parent",
        "m/distances: shape (2,) -> (3,)",
        "m/final_raw: differs, max |change - parent| / max |parent| = 2.220e-16",
        "new: only in change",
    ]


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
