"""The march rule: when a solve of a window agrees with a reference solve.

Two solves of one window agree when they take the same number of Picard
iterations, their final frames are within ``RTOL`` in relative L2, every
Picard distance is within ``RTOL`` times the reference's first distance d_1,
and, where the oracle ran, their oracle deviations, each a fraction of the
state's norm, are within ``RTOL`` absolute. Every speed claim rests on this
rule, and every reader of it (``compare_roots.py`` and the tests) calls this
module.

Plain numpy and no cubelap import, so that scripts, tests and the benchmark
can all read it.
"""

from __future__ import annotations

import numpy as np

#: the rule's one tolerance: relative for final frames, of d_1 for Picard
#: distances, absolute for oracle deviations
RTOL = 1e-12


def _over(gap, scale) -> float:
    """gap / scale, where an exact agreement is 0 at any scale, even 0."""
    return 0.0 if gap == 0 else float(np.divide(gap, scale))


def final_gap(got, want) -> float:
    """||got - want|| / ||want||, in L2 over every entry: of two final
    frames, or of two stacks of frames."""
    return _over(np.linalg.norm(got - want), np.linalg.norm(want))


def distance_gap(got, want) -> float:
    """max_n |got_n - want_n| / want_0: the largest gap of two Picard
    distance sequences over the reference's first distance d_1."""
    return _over(np.max(np.abs(got - want)), want[0])


def deviation_gap(got, want) -> float:
    """|got - want| of two oracle deviations; each is already a fraction of
    the state's norm, so the gap is absolute."""
    return abs(float(got) - float(want))


def ratio_tol(r: float, d_n: float, d_1: float) -> float:
    """How far a Picard ratio r_n = d_{n+1}/d_n may move when every distance
    moves by up to RTOL d_1: (RTOL d_1 + r RTOL d_1) / d_n, and RTOL r for
    rounding."""
    return RTOL * (abs(r) + d_1 * (1.0 + abs(r)) / d_n)


def breaks(*, iterations=None, final=None, distances=None, deviation=None) -> list[str]:
    """Why a window breaks the march rule: one line per part that breaks it,
    none when it keeps the rule. Each part is a (got, want) pair, want the
    reference, or None where it is not checked: the Picard iteration counts,
    the final frames, the Picard distances and the oracle deviations."""
    lines = []
    if iterations is not None and iterations[0] != iterations[1]:
        lines.append(f"iterations {iterations[1]} -> {iterations[0]}")
    if distances is not None and np.shape(distances[0]) != np.shape(distances[1]):
        lines.append(f"distances shape {np.shape(distances[1])} -> {np.shape(distances[0])}")
        distances = None
    for part, gap_of, pair in (("final frame", final_gap, final),
                               ("distance", distance_gap, distances),
                               ("deviation", deviation_gap, deviation)):
        if pair is not None:
            with np.errstate(all="ignore"):
                gap = gap_of(*pair)
            if not gap <= RTOL:
                lines.append(f"{part} gap {gap:.3e} > {RTOL:.0e}")
    return lines


def report_breaks(got, want) -> list[str]:
    """``breaks`` of two window reports (anything with ``trace.iterations``,
    ``trace.distances``, ``final_raw`` and ``oracle_rel_deviation``, as
    cubelap's ``WindowReport``); the deviations are checked unless both are
    None, and None against a number breaks the rule."""
    devs = (got.oracle_rel_deviation, want.oracle_rel_deviation)
    return breaks(iterations=(got.trace.iterations, want.trace.iterations),
                  final=(got.final_raw, want.final_raw),
                  distances=(got.trace.distances, want.trace.distances),
                  deviation=None if devs == (None, None)
                  else tuple(np.nan if d is None else d for d in devs))
