"""``scripts/march_rule.py``: the bound of each part of the rule, exactly."""

import ast
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import march_rule
from march_rule import RTOL, breaks


def _pair(gap):
    """[1, 0] against [1, gap]: a gap of exactly ``gap`` over a first entry,
    an L2 norm and a d_1 of 1."""
    return np.array([1.0, gap]), np.array([1.0, 0.0])


@pytest.mark.parametrize("part", ["final", "distances"])
def test_a_gap_of_rtol_keeps_the_rule_and_one_of_1_01_rtol_breaks_it(part):
    assert breaks(**{part: _pair(1e-12)}) == []
    assert len(breaks(**{part: _pair(1.01e-12)})) == 1


def test_the_deviation_is_held_to_rtol_absolute():
    assert breaks(deviation=(1e-12, 0.0)) == []
    assert breaks(deviation=(0.5 + 1e-12, 0.5)) == []
    assert breaks(deviation=(1.01e-12, 0.0)) == ["deviation gap 1.010e-12 > 1e-12"]
    assert breaks(deviation=(np.nan, 0.0)) == ["deviation gap nan > 1e-12"]


def test_an_iteration_mismatch_breaks_the_rule():
    d = np.array([1.0, 0.5])
    assert breaks(iterations=(3, 3), distances=(d, d)) == []
    assert breaks(iterations=(4, 3), distances=(np.append(d, 0.25), d)) == [
        "iterations 3 -> 4", "distances shape (2,) -> (3,)"]


def test_an_exact_zero_agrees_with_itself_at_any_scale():
    zero = np.zeros(2)
    assert breaks(final=(zero, zero), distances=(zero, zero)) == []
    assert breaks(final=(zero + 1e-100, zero)) == ["final frame gap inf > 1e-12"]


def test_reports_are_checked_part_by_part():
    def report(final, distances, deviation=None):
        return SimpleNamespace(final_raw=np.array(final), oracle_rel_deviation=deviation,
                               trace=SimpleNamespace(distances=np.array(distances),
                                                     iterations=len(distances)))

    want = report([1.0, 0.0], [1.0, 0.0])
    assert march_rule.report_breaks(report([1.0, 1e-12], [1.0, 1e-12]), want) == []
    assert march_rule.report_breaks(report([1.0, 2e-12], [1.0, 0.0], 0.0), want) == [
        "final frame gap 2.000e-12 > 1e-12", "deviation gap nan > 1e-12"]


def test_ratio_tol_is_what_distances_within_rtol_d1_move_a_ratio_by():
    # r = d_2/d_1 = 0.5 at d_1 = 1: d_2 + RTOL over d_1 - RTOL moves r by
    # 1.5 RTOL to first order, within RTOL (0.5 + 1.5)
    moved = (0.5 + RTOL) / (1.0 - RTOL) - 0.5
    assert moved <= march_rule.ratio_tol(0.5, 1.0, 1.0) == pytest.approx(2.0 * RTOL)


def test_the_rule_imports_only_numpy_and_the_standard_library():
    tree = ast.parse(open(march_rule.__file__).read())
    names = {alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module.split(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)}
    assert "numpy" in names
    assert names - {"numpy"} <= sys.stdlib_module_names
