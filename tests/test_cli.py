import json
import os
import resource
import subprocess
import sys

import pytest

import spectral_riesz
from spectral_riesz.cli import main
from spectral_riesz.output import dumps_json
from spectral_riesz.spaces import eigenvalue, parse_space


BAD_ZMAX = "zmax must be a finite number in (0, 1.7976931348623157e+308], got "


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def run_guarded(*argv, seconds=60, memory=1 << 30):
    """The CLI in a child process under a wall-time and address-space limit,
    so that a command that loops or allocates without bound fails the test
    instead of stalling the suite or the machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    src = os.path.dirname(os.path.dirname(spectral_riesz.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "spectral_riesz.cli", *argv],
        capture_output=True, text=True, timeout=seconds, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src})
    return proc.returncode, proc.stdout, proc.stderr


def test_importing_the_engine_loads_neither_dataclasses_nor_inspect():
    # Every CLI call, script and benchmark worker pays the engine import
    # first; its records are NamedTuples or slot classes, and together
    # dataclasses and inspect took 8-13 ms of it.  -S: no site-packages
    # file imports one first (the engine needs none).
    src = os.path.dirname(os.path.dirname(spectral_riesz.__file__))
    code = ("import sys, spectral_riesz, spectral_riesz.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_levels_csv(capsys):
    code, out, _ = run(capsys, "levels", "sphere:2", "--lmax", "3")
    assert code == 0
    assert out.splitlines() == ["l,lambda,mult", "0,0,1", "1,2,3",
                                "2,6,5", "3,12,7"]


def test_levels_json_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "levels.json")
    code, _, _ = run(capsys, "levels", "cp:4", "--lmax", "2",
                     "--format", "json", "--out", path)
    assert code == 0
    text = open(path).read()
    assert dumps_json(json.loads(text)) + "\n" == text
    rows = json.loads(text)
    assert rows[1] == {"l": 1, "lambda": 3, "mult": "8"}


def test_eval_brute_matches_closed_column(capsys):
    code, out, _ = run(capsys, "eval", "sphere:2", "R1",
                       "--z", "2,3.75,6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,brute_force,closed_form"
    for line in lines[1:]:
        _, brute, closed = line.split(",")
        assert brute == closed


def test_eval_counting_hemisphere(capsys):
    code, out, _ = run(capsys, "eval", "hemisphere-n:2", "N", "--z", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == "2,3,3"


@pytest.mark.parametrize("space,power,zmax", [
    ("sphere:3", 2, "70"), ("sphere:2", 3, "20000"),
    ("hemisphere-d:3", 2, "900"), ("rp:3", 2, "2000"), ("sphere:5", 1, "200"),
])
def test_eval_levels_grid_walks_the_levels_of_the_power(capsys, space, power,
                                                        zmax):
    # The grid is every level value lambda^p <= zmax of the operator, each
    # followed by its midpoint to the next level value while that is <= zmax.
    code, out, _ = run(capsys, "eval", space, "N", "--power", str(power),
                       "--grid", "levels-plus-midpoints", "--zmax", zmax)
    assert code == 0
    sp = parse_space(space)
    lams = [eigenvalue(sp, l) ** power
            for l in range(sp.min_level, sp.min_level + 60)]
    want = []
    for lam, nxt in zip(lams, lams[1:]):
        if lam <= float(zmax):
            want.append(lam)
        if (lam + nxt) / 2 <= float(zmax):
            want.append((lam + nxt) / 2)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(z) for z, _, _ in rows] == want


@pytest.mark.parametrize("space,power", [
    ("sphere:2", 2), ("sphere:2", 1), ("hemisphere-d:3", 3)])
def test_eval_levels_grid_defaults_to_forty_levels_of_the_power(
        capsys, space, power):
    # Without --zmax the grid ends at the 40th level value lambda^p of the
    # operator itself, not of the Laplacian.
    code, out, _ = run(capsys, "eval", space, "N", "--power", str(power),
                       "--grid", "levels-plus-midpoints")
    assert code == 0
    sp = parse_space(space)
    lams = [eigenvalue(sp, l) ** power
            for l in range(sp.min_level, sp.min_level + 40)]
    want = [z for lam, nxt in zip(lams, lams[1:])
            for z in (lam, (lam + nxt) / 2)]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(z) for z, _, _ in rows] == want + [lams[-1]]


def test_eval_uniform_in_w_grid_follows_the_levels_of_the_power(capsys):
    # w uniform over the Laplacian's w of zmin^(1/p) .. zmax^(1/p), and
    # z = (w(w+d-1))^p: the w of levels 10, 20 and 30 land on level values.
    code, out, _ = run(capsys, "eval", "sphere:2", "N", "--power", "2",
                       "--grid", "uniform-in-w", "--points", "5")
    assert code == 0
    assert out.splitlines() == [
        "z,brute_force,closed_form", "0,1,", "10985.66015625,100,",
        "159800.0625,400,", "782893.16015625,900,", "2433600,1600,"]


def test_eval_usage_error(capsys):
    code, _, err = run(capsys, "eval", "sphere:2", "R7", "--z", "1")
    assert code == 2
    assert "quantity" in err


def test_verify_expected_bound_exit_zero(capsys, tmp_path):
    out_dir = str(tmp_path)
    code, out, _ = run(capsys, "verify", "sphere:2", "s2.r1.lower",
                       "--out", out_dir)
    assert code == 0
    assert "min slack 0" in out
    files = os.listdir(out_dir)
    assert files == ["verify-s2.r1.lower.json"]
    text = open(os.path.join(out_dir, files[0])).read()
    assert dumps_json(json.loads(text)) + "\n" == text


def test_verify_counterexample_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "hemisphere-d:3",
                       "fail.hemi.polya.d>=3")
    assert code == 0
    assert "first witness z=3" in out


def test_verify_missing_counterexample_exit_one(capsys):
    # Grid stops below the witness: the expected violation is not found.
    code, out, _ = run(capsys, "verify", "hemisphere-d:3",
                       "fail.hemi.polya.d>=3", "--zmax", "2")
    assert code == 1
    assert "UNEXPECTED" in out


def test_verify_unexpected_violation_exit_one(capsys):
    # An absurd tolerance turns float noise into reported violations.
    code, out, _ = run(capsys, "verify", "circle:1", "s1.r1.upper.shift",
                       "--tol", "1e-18")
    assert code == 1


def test_verify_unknown_id_exit_two(capsys):
    code, _, err = run(capsys, "verify", "sphere:2", "bogus.id")
    assert code == 2 and "unknown bound id" in err


def test_verify_all_for_space(capsys):
    code, out, _ = run(capsys, "verify", "sphere:2", "all", "--points", "300")
    assert code == 0
    assert "s2.r1.lower" in out and "sd.r1.upper.shift" in out
    # fully defaulted counterexample entries ride along and behave
    assert "fail.r1p.weyl [ok]" in out
    # hemisphere-only entries must not appear for a closed sphere
    assert "hemi2.nd.polya" not in out


@pytest.mark.parametrize("argv,message", [
    (["rp:3", "sd.r1.lower"], "not an entry of rp:3"),
    (["sphere:3", "s2.r1.lower"], "not an entry of sphere:3"),
    (["sphere:2", "s2.r1.lower", "--power", "3"], "takes no --power"),
])
def test_verify_explicit_id_rejects_mismatched_space_and_flags(
        capsys, argv, message):
    code, _, err = run(capsys, "verify", *argv)
    assert code == 2 and message in err


@pytest.mark.parametrize("argv,message", [
    (["sphere:2", "all", "--power", "0"], "accepts --power 0"),
    (["sphere:3", "sd.avg.twosided", "--zmax", "0"],
     BAD_ZMAX + "0.0"),
    (["sphere:3", "sd.avg.twosided", "--zmax", "inf"],
     BAD_ZMAX + "inf"),
    (["s2.r1.lower", "--zmax", "0"],
     BAD_ZMAX + "0.0"),
], ids=["all-power-0", "average-zmax-zero", "average-zmax-inf", "zmax-zero"])
def test_verify_flags_that_select_or_scan_nothing_exit_two(
        capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and message in err


def test_verify_all_with_power_runs_the_entries_that_accept_it(capsys):
    code, out, _ = run(capsys, "verify", "sphere:2", "all", "--power", "3",
                       "--points", "50")
    assert code == 0 and "sd.r1p.twosided [ok]" in out
    assert "fail.r1p.weyl" not in out  # declared for p = 2 only


@pytest.mark.parametrize("argv", [
    ["eval", "sphere:2", "N", "--z", "6", "--power", "0"],
    ["verify", "s2.r1.upper", "--tol", "-1"],
    ["verify", "s2.r1.upper", "--tol", "0"],
    ["verify", "s2.r1.upper", "--tol", "nan"],
], ids=["power-0", "tol-negative", "tol-zero", "tol-nan"])
def test_bad_power_and_tolerance_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error:")


def test_verify_bad_space_exit_two(capsys):
    code, _, err = run(capsys, "verify", "moebius:2", "s2.r1.lower")
    assert code == 2 and "unknown space family" in err


def test_expansion_series(capsys):
    code, out, _ = run(capsys, "expansion", "hemisphere-d:2", "N",
                       "--terms", "2", "--z", "3.75")
    assert code == 0
    z, label, value = out.strip().splitlines()[1].split(",")
    assert label == "N:hemisphere-d:2:2-term"
    assert abs(float(value) - 3.75 / 2 * (1 - 3.75 ** -0.5)) < 1e-15


def test_sumrule_commands(capsys):
    code, out, _ = run(capsys, "sumrule", "sphere:2", "trace",
                       "--lmax", "1000")
    assert code == 0 and "within tail" in out
    partial = float(out.split("partial sum ")[1].split(" ")[0])
    assert abs(partial - 1.0) < 1e-5

    code, out, _ = run(capsys, "sumrule", "hp:8", "pq", "--lmax", "8")
    assert code == 0 and "exact equality" in out

    code, out, _ = run(capsys, "verify", "rp:3", "sd.r2.twosided")
    assert code == 0 and "sd.r2.twosided [ok]" in out


@pytest.mark.parametrize("argv", [
    ["verify", "sphere:2", "dom.sd.bly.shift", "--area", "1"],
    ["sumrule", "rp:3", "r2"]], ids=["verify-area", "sumrule-r2"])
def test_removed_options_exit_two(capsys, argv):
    # The domain entries are checked at the full area only, and the R2
    # bounds by `verify <space> sd.r2.twosided`.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "error:" in err


def test_sumrule_past_level_cap_exits_two(capsys):
    code, _, err = run(capsys, "sumrule", "sphere:2", "trace",
                       "--lmax", "12000")
    assert code == 2 and "level cap" in err


def test_sumrule_pq_reaches_the_level_cap():
    code, out, err = run_guarded("sumrule", "sphere:1", "pq",
                                 "--lmax", "10000")
    assert (code, err) == (0, "")
    assert out == "pq sphere:1: 10001 gap indices, exact equality\n"


@pytest.mark.parametrize("argv,message", [
    (["sphere:2", "--lmax", "12000"],
     "level cap 10000 exceeded at l_max=12000"),
    (["sphere:2", "--lmax", "-3"], "below the minimum level 0"),
    (["hemisphere-d:2", "--lmax", "0"], "below the minimum level 1"),
], ids=["past-cap", "negative", "below-dirichlet-min"])
def test_levels_out_of_range_lmax_exits_two(capsys, argv, message):
    code, out, err = run(capsys, "levels", *argv)
    assert code == 2 and out == "" and message in err


def test_verify_zero_points_exits_two(capsys):
    code, out, err = run(capsys, "verify", "s2.r1.upper", "--points", "0")
    assert code == 2 and out == "" \
        and "points must be an integer >= 1, got 0" in err


def test_eval_z_beyond_float_range_exits_two(capsys):
    code, out, err = run(capsys, "eval", "sphere:3", "R1", "--z", "1e400")
    assert code == 2 and out == "" and "beyond float range" in err


def test_eval_power_w_grid_beyond_float_range_exits_two(capsys):
    code, out, err = run(capsys, "eval", "sphere:2", "N", "--power", "2",
                         "--grid", "uniform-in-w",
                         "--zmax", "1.7976931348623157e308")
    assert code == 2 and out == "" and "leaves float range" in err


@pytest.mark.parametrize("argv,message", [
    (["verify", "s2.r1.upper", "--zmax", "1e300"],
     "level cap 10000 exceeded at z=1e+300"),
    (["verify", "sphere:2", "sd.avg.twosided", "--zmax", "1e9"],
     "level cap 10000 exceeded at k=1000000000"),
    (["verify", "s2.r1.upper", "--zmax", "inf"],
     BAD_ZMAX + "inf"),
    (["eval", "sphere:2", "N", "--grid", "levels-plus-midpoints",
      "--zmax", "1e300"], "level cap 10000 exceeded at z=1e+300"),
], ids=["verify-z", "verify-average", "verify-inf", "eval-levels-grid"])
def test_zmax_past_level_cap_exits_two(argv, message):
    code, out, err = run_guarded(*argv)
    assert code == 2 and out == "" and message in err


def test_verify_average_zmax_below_cap_samples_points():
    # N at the cap is about 3.3e11 on S^3: k up to 1e9 is admitted, on
    # --points + 1 evenly spread k instead of a list of 1e9 k.
    code, out, err = run_guarded("verify", "sphere:3", "sd.avg.twosided",
                                 "--zmax", "1e9", "--points", "200")
    assert code == 0 and err == "" and "[ok]" in out


@pytest.mark.parametrize("argv,message", [
    (["sumrule", "sphere:2", "pq", "--lmax", "0"],
     "l_max must be an integer >= 1, got 0"),
    (["sumrule", "sphere:2", "trace", "--lmax", "-1"],
     "l_max must be an integer >= 0, got -1"),
    (["figure", "f1", "--lmax", "0"], "l_max must be an integer >= 1, got 0"),
], ids=["pq", "trace", "figure"])
def test_explicit_bad_lmax_is_not_the_default(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("resolution", ["0", "-2"])
def test_figure_bad_resolution_exits_two(capsys, resolution):
    code, out, err = run(capsys, "figure", "f1", "--resolution", resolution)
    assert code == 2 and out == "" \
        and f"resolution must be an integer >= 1, got {resolution}" in err


def test_sumrule_trace_lmax_zero_is_one_term(capsys):
    code, out, _ = run(capsys, "sumrule", "sphere:2", "trace", "--lmax", "0")
    assert code == 0 and "partial sum 0.44444444444444442" in out


def test_sumrule_usage_error_on_circle_r2(capsys):
    # The R2 sum-rule bounds are the catalog entry sd.r2.twosided.
    code, _, err = run(capsys, "verify", "circle:1", "sd.r2.twosided")
    assert code == 2 and "require dim >= 2" in err


def test_figure_files(tmp_path, capsys):
    out_dir = str(tmp_path)
    code, out, _ = run(capsys, "figure", "f1", "--resolution", "4",
                       "--lmax", "6", "--out", out_dir)
    assert code == 0
    csv_text = open(os.path.join(out_dir, "f1.csv")).read()
    assert csv_text.splitlines()[0] == "z,series_label,value"
    svg_text = open(os.path.join(out_dir, "f1.svg")).read()
    assert "<polyline" in svg_text and "viewBox" in svg_text
    assert not [f for f in os.listdir(out_dir) if f.startswith(".tmp-")]


def test_series_format_picks_the_files_written(tmp_path, capsys):
    fig_dir = tmp_path / "fig"
    code, out, _ = run(capsys, "figure", "f1", "--resolution", "4",
                       "--lmax", "6", "--format", "svg", "--out",
                       str(fig_dir))
    assert code == 0 and os.listdir(fig_dir) == ["f1.svg"]
    assert out == f"wrote {fig_dir / 'f1.svg'}\n"
    code, out, _ = run(capsys, "expansion", "sphere:3", "N", "--z", "5,9",
                       "--format", "both", "--out", str(tmp_path / "x.csv"))
    assert code == 0
    assert sorted(os.listdir(tmp_path)) == ["fig", "x.csv", "x.svg"]
    assert out == f"wrote {tmp_path / 'x.csv'} and {tmp_path / 'x.svg'}\n"


def test_figure_unknown_id(capsys):
    code, _, err = run(capsys, "figure", "f42")
    assert code == 2 and "unknown figure id" in err


def test_figure_deterministic_output(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    run(capsys, "figure", "f6", "--resolution", "4", "--lmax", "5",
        "--out", p1)
    run(capsys, "figure", "f6", "--resolution", "4", "--lmax", "5",
        "--out", p2)
    assert open(os.path.join(p1, "f6.csv")).read() \
        == open(os.path.join(p2, "f6.csv")).read()


@pytest.mark.parametrize("argv", [
    ["eval", "sphere:2"], ["sumrule", "sphere:2"], ["levels"]],
    ids=["eval-no-quantity", "sumrule-no-kind", "levels-no-space"])
def test_missing_positional_exits_two(argv):
    code, out, err = run_guarded(*argv)
    assert code == 2 and out == "" and "required" in err


@pytest.mark.parametrize("argv,message", [
    (["eval", "sphere:2", "R1", "--z", "1/0"], "bad z list '1/0'"),
    (["expansion", "sphere:3", "N", "--zmax", "nan"],
     "--zmax must be a finite number > 0.0, got nan"),
    (["expansion", "sphere:3", "N", "--zmin", "nan", "--zmax", "10"],
     "--zmin must be a finite number >= 0, got nan"),
    (["eval", "sphere:2", "N", "--zmin", "nan", "--zmax", "10",
      "--grid", "levels-plus-midpoints"],
     "--zmin must be a finite number >= 0, got nan"),
    (["eval", "sphere:2", "N", "--zmax", "inf"],
     "--zmax must be a finite number > 0.0, got inf"),
    (["expansion", "sphere:3", "N", "--z", "1e300", "--terms", "1"],
     "expansion requires z^1.5 in float range, got z=1e+300"),
], ids=["zero-denominator", "expansion-zmax-nan", "expansion-zmin-nan",
        "eval-levels-grid-zmin-nan", "eval-zmax-inf",
        "expansion-power-past-float-range"])
def test_bad_grid_bounds_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and message in err


def test_verify_all_without_space(capsys):
    code, out, _ = run(capsys, "verify", "all", "--points", "150")
    assert code == 0
    assert "s2.r1.lower" in out and "hemi2.nd.polya" in out


@pytest.mark.parametrize("space", ["rp:3", "sphere:3"])
def test_verify_all_passes_the_space_to_r2_entry(capsys, tmp_path, space):
    code, out, _ = run(capsys, "verify", space, "all", "--points", "100",
                       "--out", str(tmp_path))
    assert code == 0
    assert "sd.r2.twosided [ok]" in out
    rep = json.load(open(tmp_path / "verify-sd.r2.twosided.json"))
    assert rep["params"] == f"space={space}"


@pytest.mark.parametrize("space,count", [
    ("sphere:1", 2), ("sphere:2", 15), ("sphere:3", 10), ("hemisphere-d:2", 6),
    ("hemisphere-d:3", 2), ("hemisphere-n:2", 2), ("cp:4", 1), (None, 19)])
def test_verify_all_selects_entries_of_the_space(capsys, space, count):
    argv = ["verify"] + ([space] if space else []) + ["all", "--points", "20"]
    _, out, _ = run(capsys, *argv)
    assert len(out.splitlines()) == count


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["levels", "sphere:2", "--lmax", "2.5"],
     "argument --lmax: invalid int value: '2.5'"),
    (["eval", "sphere:2", "N", "--points", "2.5"],
     "argument --points: invalid int value: '2.5'"),
    (["verify", "s2.r1.upper", "--points", "2.5"],
     "argument --points: invalid int value: '2.5'"),
    (["expansion", "sphere:3", "N", "--zmax", "ten"],
     "argument --zmax: invalid float value: 'ten'"),
    (["sumrule", "sphere:2", "pq", "--lmax", "1e3"],
     "argument --lmax: invalid int value: '1e3'"),
    (["figure", "f1", "--resolution", "1e3"],
     "argument --resolution: invalid int value: '1e3'"),
    (["report", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["no-command", "levels", "eval", "verify", "expansion", "sumrule",
        "figure", "report"])
def test_a_command_line_argparse_refuses_is_one_error_line(capsys, argv,
                                                            message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["eval", "sphere:2", "N", "--zmax", "1e400"],
     "--zmax must be a finite number > 0.0, got inf"),
    (["eval", "sphere:2", "N", "--zmin", "-1"],
     "--zmin must be a finite number >= 0, got -1.0"),
    (["eval", "sphere:2", "N", "--zmin", "5", "--zmax", "3"],
     "--zmax must be a finite number > 5.0, got 3.0"),
    (["expansion", "sphere:3", "N", "--zmin", "inf"],
     "--zmin must be a finite number >= 0, got inf"),
    (["expansion", "sphere:3", "N", "--points", "1"],
     "--points must be an integer >= 2, got 1"),
], ids=["zmax-past-float-range", "zmin-negative", "zmax-below-zmin",
        "zmin-inf", "one-point"])
def test_a_bad_grid_names_the_argument_at_fault(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_runs_at_a_dimension_whose_shift_root_passes_float_range(
        capsys):
    # optimal_shift(100, l) takes the 100th root of a rational past float
    # range for the grid of sd.r1.upper.shift.
    code, out, err = run(capsys, "verify", "sphere:100", "sd.r1.upper.shift",
                         "--points", "200")
    assert (code, err) == (0, "")
    assert out.startswith("sd.r1.upper.shift [ok]")


def test_verify_of_a_side_past_float_range_exits_two():
    # The b_d-shifted S^d lower side overflows at every point for d = 300:
    # its float constant c rounds to 0.0 and its power leaves float range.
    code, out, err = run_guarded("verify", "sphere:300",
                                 "fail.sd.r1.lower.bdshift", "--points", "50")
    assert (code, out, err) == (2, "", "error: z=0.0 is beyond float range "
                                "for the lower side of "
                                "fail.sd.r1.lower.bdshift\n")


def test_verify_past_the_dimension_cap_exits_two_at_once():
    # d = 10^5 is past spaces.DIMENSION_CAP: refused when the space is
    # built, before any Gamma-ratio work (which took minutes at this d).
    code, out, err = run_guarded("verify", "sphere:100000",
                                 "sd.r1.upper.shift", "--points", "3",
                                 seconds=10)
    assert (code, out, err) == (
        2, "", "error: dimension 100000 out of range for sphere\n")
