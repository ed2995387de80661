"""``scripts/bench_pairs.py``: the numbers of every BENCH_*.json."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = {"end_to_end": [
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def _runs(**metrics):
    """One side's runs from each metric's list of values, run by run."""
    count = len(next(iter(metrics.values())))
    return [{"result": {"metrics": {name: {"value": values[i]}
                                    for name, values in metrics.items()}}}
            for i in range(count)]


def test_summarize_counts_wins_by_the_metric_direction():
    runs = {
        "parent": _runs(solve_s=[2.0, 2.0, 2.0, 2.0], runs_per_s=[5.0, 5.0, 5.0, 5.0]),
        "change": _runs(solve_s=[1.0, 2.0, 3.0, 1.5], runs_per_s=[6.0, 5.0, 4.0, 7.0]),
    }
    out = bench_pairs.summarize(runs, BENCH)
    # pair 2 ties on both metrics and counts for neither side
    assert out["solve_s"]["change_wins"] == 2  # lower wins: 1.0 and 1.5
    assert out["runs_per_s"]["change_wins"] == 2  # higher wins: 6.0 and 7.0
    assert out["runs_per_s"]["better"] == "higher"
    assert out["solve_s"]["change"]["runs"] == [1.0, 2.0, 3.0, 1.5]


def test_summarize_gives_each_side_its_own_spread():
    runs = {
        "parent": _runs(solve_s=[1.0, 2.0, 3.0, 4.0], runs_per_s=[1.0, 1.0, 1.0, 1.0]),
        "change": _runs(solve_s=[10.0, 20.0, 30.0, 40.0], runs_per_s=[1.0, 1.0, 1.0, 1.0]),
    }
    out = bench_pairs.summarize(runs, BENCH)["solve_s"]
    for side, scale in (("parent", 1.0), ("change", 10.0)):
        entry = out[side]
        # statistics.quantiles' exclusive method on 1, 2, 3, 4: 1.25, 2.5, 3.75
        assert entry["median"] == pytest.approx(2.5 * scale)
        assert (entry["q1"], entry["q3"]) == pytest.approx((1.25 * scale, 3.75 * scale))
        # the spread is each side's quartile range over its own median
        assert entry["rel_iqr"] == pytest.approx(1.0)


def test_summarize_gives_the_ratio_of_medians():
    runs = {
        "parent": _runs(solve_s=[2.0, 2.0, 2.0, 2.0], runs_per_s=[4.0, 4.0, 4.0, 4.0]),
        "change": _runs(solve_s=[1.0, 2.0, 3.0, 1.5], runs_per_s=[5.0, 5.0, 6.0, 6.0]),
    }
    out = bench_pairs.summarize(runs, BENCH)
    assert out["solve_s"]["ratio"] == pytest.approx(1.75 / 2.0)
    assert out["runs_per_s"]["ratio"] == pytest.approx(5.5 / 4.0)


@pytest.mark.parametrize("parent, change, unresolved", [
    # the parent's quartile range is its median: wider than the 0.25 bound
    ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], True),
    ([1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 1.5, 0.9], True),
    # ... unless every change run beats every parent run
    ([1.0, 2.0, 3.0, 4.0], [0.5, 0.9, 0.8, 0.7], False),
    # a parent spread inside the bound resolves whichever way the change moves
    ([2.0, 2.1, 2.0, 2.1], [3.0, 1.0, 2.0, 2.5], False),
])
def test_summarize_flags_metrics_the_parent_spread_cannot_resolve(parent, change, unresolved):
    runs = {
        "parent": _runs(solve_s=parent, runs_per_s=[1.0 / v for v in parent]),
        "change": _runs(solve_s=change, runs_per_s=[1.0 / v for v in change]),
    }
    out = bench_pairs.summarize(runs, BENCH)
    assert out["solve_s"]["unresolved"] is unresolved
    # a higher-is-better metric beats by being larger: the same verdict
    assert out["runs_per_s"]["unresolved"] is unresolved


def test_main_refuses_roots_of_different_lengths(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "bb"),
            "--workload", "march_oracle", "--seed", "1", "--pairs", "2",
            "--seconds", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert "differ in length" in capsys.readouterr().err
    assert not out.exists()
