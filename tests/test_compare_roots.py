"""``scripts/compare_roots.py``: what counts as a difference between two roots."""

import numpy as np

import compare_roots


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


def _trace(*rows):
    return "n,d_n,r_n,C\n" + "".join(f"{n},{d!r},{'' if r is None else repr(r)},0.5\n"
                                     for n, (d, r) in enumerate(rows, 1))


def test_failures_hold_distances_to_d1_and_their_ratios_to_what_that_moves():
    # d_1 = 0.1: every distance may move by 1e-13, so a ratio r_n by about
    # 1e-13 (1 + r_n) / d_n, 1e-8 at d_2 = 1e-5, and the Banach bound
    # C/(1-C) d_last by 1e-13 at C = 0.5
    parent = {"c/trace_w0.csv": _trace((0.1, 1e-4), (1e-5, 1e-4), (1e-9, None)),
              "c/summary.txt": "C=0.5\nfinal_l2=2.0\nmax_picard_ratio=0.0001\n"
                               "certificate_slack=0.0002\npicard_error_bound=1e-09\n"}
    within = {"c/trace_w0.csv": _trace((0.1 + 5e-14, 1e-4), (1e-5 + 5e-14, 1.00005e-4),
                                       (1e-9 + 9e-14, None)),
              "c/summary.txt": "C=0.5\nfinal_l2=2.000000000001\nmax_picard_ratio=0.000100005\n"
                               "certificate_slack=0.00020001\npicard_error_bound=1.00009e-09\n"}
    assert compare_roots.failures(parent, within) == []
    beyond = {"c/trace_w0.csv": _trace((0.1, 1e-4), (1e-5, 1e-4), (1.0002e-9, None)),
              "c/summary.txt": "C=0.5\nfinal_l2=2.00000000001\nmax_picard_ratio=0.0001\n"
                               "certificate_slack=0.0002\npicard_error_bound=1.0002e-09\n"}
    assert compare_roots.failures(parent, beyond) == [
        "c/summary.txt: line 2: 2.0 -> 2.00000000001, more than 2.000e-12 apart",
        "c/trace_w0.csv: line 4: 1e-09 -> 1.0002e-09, more than 1.000e-13 apart",
    ]
    picard_bound = dict(parent, **{"c/summary.txt": parent["c/summary.txt"].replace(
        "1e-09", "1.0002e-09")})
    assert compare_roots.failures(parent, picard_bound) == [
        "c/summary.txt: line 5: 1e-09 -> 1.0002e-09, more than 1.000e-13 apart"]


def test_failures_hold_the_summary_oracle_deviation_to_rtol_absolute():
    # the deviation is a fraction of the state's norm, so its line gets RTOL
    # itself, as the march's array does; another number of the same size
    # keeps RTOL relative
    def summary(dev, l2="3.3035379168e-09"):
        return {"c/summary.txt": f"oracle_rel_deviation={dev}\nfinal_l2={l2}\n"}

    parent = summary("3.3035379168e-09")
    assert compare_roots.failures(parent, summary("3.3045279168e-09")) == []
    assert compare_roots.failures(parent, summary("3.3045479168e-09")) == [
        "c/summary.txt: line 1: 3.3035379168e-09 -> 3.3045479168e-09, more than 1.000e-12 apart"]
    assert compare_roots.failures(parent, summary("3.3035379168e-09", "3.3035379169e-09")) == [
        "c/summary.txt: line 2: 3.3035379168e-09 -> 3.3035379169e-09, more than 3.304e-21 apart"]


def test_failures_keep_text_exit_codes_and_exact_zeros_exact():
    parent = {"c/exit": "0", "c/config_echo.json": "aa", "c/stdout": "max = 1.141e-16\n",
              "c/summary.txt": "overlap=0.0\nstatus=ok\n", "d/stdout": "x\n"}
    # round-off of a zero moves freely below 1e-14; an exact zero may not
    change = {"c/exit": "0", "c/config_echo.json": "aa", "c/stdout": "max = 6.237e-16\n",
              "c/summary.txt": "overlap=0.0\nstatus=ok\n", "d/stdout": "x\n"}
    assert compare_roots.failures(parent, change) == []
    change.update({"c/exit": "3", "c/config_echo.json": "bb",
                   "c/summary.txt": "overlap=1e-300\nstatus=solver_failure\n"})
    del change["d/stdout"]
    assert compare_roots.failures(parent, change) == [
        "c/config_echo.json: differs",
        "c/exit: differs",
        "c/summary.txt: line 1: 0.0 -> 1e-300, more than 0.000e+00 apart",
        "d/stdout: only in parent",
    ]
    assert compare_roots.failures(parent, {**parent, "c/stdout": "max is 1.141e-16\n"}) == [
        "c/stdout: line 1: text differs"]


def test_failures_apply_the_march_rule_to_arrays():
    x = np.array([1.0 + 1.0j, -2.0, 0.5j])
    d = np.array([0.1, 1e-3, 1e-9])
    parent = {"m/final_raw": x, "m/distances": d, "m/oracle_rel_deviation": np.array(1e-6),
              "c/final_field.sxd/last_frame": x}
    within = {"m/final_raw": x * (1 + 5e-13), "m/distances": d + 9e-14,
              "m/oracle_rel_deviation": np.array(1e-6 + 9e-13),
              "c/final_field.sxd/last_frame": x + 1e-12}
    assert compare_roots.failures(parent, within) == []
    beyond = {"m/final_raw": x * (1 + 2e-12), "m/distances": d + 2e-13,
              "m/oracle_rel_deviation": np.array(1e-6 + 2e-12),
              "c/final_field.sxd/last_frame": x[:2]}
    assert [line.split(":")[0] for line in compare_roots.failures(parent, beyond)] == [
        "c/final_field.sxd/last_frame", "m/distances", "m/final_raw", "m/oracle_rel_deviation"]


def test_main_ends_with_pass_or_fail(monkeypatch, capsys):
    sides = {"parent": {"c/exit": "0", "m/distances": np.array([1.0, 0.5])}}
    monkeypatch.setattr(compare_roots, "_run_root", lambda side, *args: sides[side])
    sides["change"] = {"c/exit": "0", "m/distances": np.array([1.0, 0.5 + 1e-13])}
    assert compare_roots.main(["--parent", "p", "--change", "c"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["1 of 2 keys differ", "PASS"]
    sides["change"] = {"c/exit": "2", "m/distances": np.array([1.0, 0.5])}
    assert compare_roots.main(["--parent", "p", "--change", "c"]) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "1 of 2 keys differ", "FAIL c/exit: differs", "FAIL"]
