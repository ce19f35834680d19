"""Command-line contract: exit codes, output schemas, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmak_lab import bubbles, cli, continuation, radial
from sigmak_lab.cli import main, _parse_grid
from sigmak_lab.errors import ConfigError, NewtonError

from fd_oracles import sweep_rows_mp


def test_grid_parsing():
    np.testing.assert_allclose(_parse_grid("2.5"), [2.5])
    np.testing.assert_allclose(_parse_grid("1:4:4"), [1.0, 2.0, 3.0, 4.0])
    grid = _parse_grid("1e-2:1e4:25log")
    assert grid.size == 25
    assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e4)
    assert _parse_grid("").size == 0
    assert _parse_grid("1:2:0").size == 0
    with pytest.raises(ConfigError):
        _parse_grid("1:2")
    with pytest.raises(ConfigError):
        _parse_grid("-1:2:5log")
    # counts 0 and 1 are numpy's own, linear and log alike
    for spec in ("1:2:0", "1:2:0log"):
        assert _parse_grid(spec).shape == (0,)
    for spec in ("2.5:4:1", "2.5:4:1log", "2.5:-4:1"):
        np.testing.assert_array_equal(_parse_grid(spec), [2.5])
    for spec in ("-1:2:0log", "0:2:1log"):
        with pytest.raises(ConfigError, match="log grids need positive endpoints"):
            _parse_grid(spec)
    # a span past the float range, as a nonfinite endpoint
    for spec in ("-1.7e308:1.7e308:5", "1:inf:3", "nan:1:2"):
        with pytest.raises(ConfigError, match="their difference must be finite"):
            _parse_grid(spec)


def test_a_log_grid_to_the_largest_float_fails_where_its_top_value_does(capsys):
    # geomspace overflows inside, yet both ends stay exact; the sweep then
    # fails at its own located check, as it does at the top value alone
    top = "1.7976931348623157e308"
    np.testing.assert_array_equal(_parse_grid(f"1:{top}:3log")[[0, -1]], [1.0, float(top)])
    for a in (f"1:{top}:3log", "1.79e308"):
        assert main(["harnack-sweep", "--n", "3", "--k", "1", f"--a={a}"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: value 0.0 is not positive at" in err
        assert "overflow" not in err


# ---------------------------------------------------------------------------
# verify-bubble
# ---------------------------------------------------------------------------

def test_verify_bubble_passes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["verify-bubble", "--n", "4", "--k", "2", "--a", "1.5",
                 "--tol", "1e-7", "--samples", "200", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# sigmak-lab v1"
    assert lines[1].startswith("label,n,k,a,points")
    assert len(lines) == 2 + 4  # bubble + three word images


def test_verify_bubble_rejects_low_dimension():
    assert main(["verify-bubble", "--n", "2", "--k", "1"]) == 1


def test_verify_bubble_tolerance_below_float_floor(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-bubble", "--n", "4", "--k", "2", "--tol", "1e-16",
                 "--samples", "200", "--out", str(out), "--format", "json"])
    assert code == 2
    payload = json.loads(out.read_text())
    assert all(row["max_residual"] > 1e-16 for row in payload)
    assert all(row["max_residual"] < 1e-8 for row in payload)


def test_verify_bubble_malformed_flag():
    assert main(["verify-bubble", "--n", "4"]) == 1


def test_verify_bubble_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["verify-bubble", "--n", "3", "--k", "1", "--samples", "100",
            "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# solve-radial
# ---------------------------------------------------------------------------

def test_solve_radial_desk_check(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = main(["solve-radial", "--n", "3", "--k", "3", "--u0", "2.0",
                 "--rmax", "10", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "fitted a" in text and "max relative deviation" in text
    dev = float(text.split("max relative deviation = ")[1].split()[0])
    assert dev <= 1e-6
    lines = out.read_text().splitlines()
    assert lines[1] == "r,u,du,sigma_residual,cone_margin"


def test_solve_radial_zero_initial_value():
    assert main(["solve-radial", "--n", "3", "--k", "1", "--u0", "0"]) == 1


def test_solve_radial_short_domain_flags_tail(capsys):
    code = main(["solve-radial", "--n", "3", "--k", "1", "--rmax", "0.5"])
    assert code == 0
    assert "insufficient tail" in capsys.readouterr().out


def test_solve_radial_small_scale_member_decays_monotonically(capsys):
    # a = 0.09: the tail lies past r = 1/a, far beyond any fixed radius
    argv = ["solve-radial", "--n", "3", "--k", "2", "--u0", "0.40927848054640975",
            "--rmax", "100"]
    assert main(argv) == 0
    assert "kelvin probe: monotone decay" in capsys.readouterr().out


@pytest.mark.parametrize("k", ["20", "40"])
def test_solve_radial_reaches_rmax_at_n40(k, capsys):
    # the exact entire solution at n = 40, where lam_tan^(k-1) once
    # overflowed a float: the chart's powers stay in range
    assert main(["solve-radial", "--n", "40", "--k", k]) == 0
    dev = float(capsys.readouterr().out.split("max relative deviation = ")[1].split()[0])
    assert dev <= 1e-6


@pytest.mark.parametrize("k", ["20", "40"])
def test_solve_radial_power_overflow_is_a_numerical_failure(k, capsys):
    # u0^{-(n+2)/(n-2)} underflows at n = 40, u0 = 1e300, so the curvature
    # u'' = -lam0 / (b u0^{-(n+2)/(n-2)}) at the origin leaves the float range
    assert main(["solve-radial", "--n", "40", "--k", k, "--u0", "1e300"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure:" in err and "unexpected failure" not in err


# ---------------------------------------------------------------------------
# homotopy
# ---------------------------------------------------------------------------

def test_homotopy_run_with_outputs(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    prof = tmp_path / "profile.csv"
    code = main(["homotopy", "--n", "3", "--k", "2", "--rb", "5",
                 "--steps", "11", "--m", "64", "--trace", str(trace),
                 "--profile", str(prof)])
    assert code == 0
    text = capsys.readouterr().out
    assert "reached t = 1" in text
    dev = float(text.split("deviation from the target profile = ")[1].split()[0])
    assert dev <= 4.0 * (5.0 / 64) ** 2
    payload = json.loads(trace.read_text())
    assert payload[0]["t"] == 0.0 and payload[-1]["t"] == 1.0
    assert all(rec["converged"] for rec in payload)
    assert prof.read_text().splitlines()[0] == "# sigmak-lab v1"


def test_homotopy_single_jump_is_legal_and_deterministic(capsys):
    args = ["homotopy", "--n", "3", "--k", "3", "--rb", "4", "--steps", "1",
            "--m", "32"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_homotopy_malformed_flag(capsys):
    assert main(["homotopy", "--n", "3"]) == 1


def test_homotopy_stall_exits_2_with_the_last_good_t(tmp_path, monkeypatch, capsys):
    real = continuation.newton_solve

    def solve(x, spec, t):
        if t > 0.5:
            raise NewtonError("forced failure", iterations=1, residual=1.0)
        return real(x, spec, t)
    monkeypatch.setattr(continuation, "newton_solve", solve)
    trace = tmp_path / "trace.json"
    assert main(["homotopy", "--n", "3", "--k", "2", "--m", "32", "--steps", "2",
                 "--trace", str(trace)]) == 2
    out = capsys.readouterr().out
    assert "homotopy failed: continuation stalled" in out and "last good t = 0.5" in out
    payload = json.loads(trace.read_text())
    assert [rec["converged"] for rec in payload[:2]] == [True] * 2 and payload[1]["t"] == 0.5
    assert payload[2:] and not any(rec["converged"] for rec in payload[2:])


# ---------------------------------------------------------------------------
# harnack-sweep
# ---------------------------------------------------------------------------

def test_harnack_sweep_sup_near_limit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["harnack-sweep", "--n", "3", "--k", "1",
                 "--a", "1e-2:1e4:25log", "--R", "1", "--nrad", "32",
                 "--nang", "16", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    sup = float(text.split("= ")[1].split()[0])
    limit = 6.0 ** 0.5 / 2.0
    assert sup == pytest.approx(limit, rel=0.01)
    lines = out.read_text().splitlines()
    assert lines[0] == "# sigmak-lab v1"
    assert lines[1] == "n,k,a,R,maxBR,min2BR,product_scaled"
    assert len(lines) == 2 + 25


def test_harnack_sweep_sup_invariant_across_radii(capsys):
    code = main(["harnack-sweep", "--n", "3", "--k", "1",
                 "--a", "1e-1:1e3:9log", "--R", "1:4:4", "--nrad", "24",
                 "--nang", "8"])
    assert code == 0
    # per-R suprema agree to 1 percent by the joint rescaling covariance
    import sigmak_lab as sl
    rows = sl.harnack_sweep(3, 1, np.geomspace(1e-1, 1e3, 9), np.linspace(1.0, 4.0, 4))
    by_r = {}
    for row in rows:
        by_r.setdefault(row.R, []).append(row.product_scaled)
    sups = [max(v) for v in by_r.values()]
    assert max(sups) <= min(sups) * 1.01


def test_harnack_sweep_past_the_halton_dimensions(tmp_path):
    # the sweep samples no directions, so n = 16 runs, and its rows are exact
    out = tmp_path / "sweep.csv"
    assert main(["harnack-sweep", "--n", "16", "--k", "3", "--images", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[2:]
    got = np.array([[float(v) for v in line.split(",")[4:]] for line in lines])
    np.testing.assert_allclose(got, sweep_rows_mp(16, 3, [1.0], [1.0], 2, 0), rtol=1e-12, atol=0.0)


def test_harnack_sweep_empty_grid(capsys):
    assert main(["harnack-sweep", "--n", "3", "--k", "1", "--a", ""]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "configuration error: cannot take the supremum of an empty sweep\n"


def test_harnack_sweep_deterministic_bytes(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["harnack-sweep", "--n", "3", "--k", "2", "--a", "0.5:2:3",
            "--R", "1", "--nrad", "16", "--nang", "8", "--images", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_harnack_sweep_grid_flags_do_not_change_the_rows(tmp_path):
    # --nrad and --nang are still checked, but the rows have no grid
    args = ["harnack-sweep", "--n", "4", "--k", "2", "--a", "0.5:2:3", "--images", "1"]
    outs = [tmp_path / f"s{j}.csv" for j in range(3)]
    for out, flags in zip(outs, ([], ["--nrad", "1", "--nang", "0"], ["--nrad", "99"])):
        assert main(args + flags + ["--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_one_parser_serves_every_call(tmp_path):
    # the parser is built once per process; a harnack-sweep between two
    # identical verify-bubble calls leaves the second one's output unchanged
    verify = ["verify-bubble", "--n", "3", "--k", "2", "--samples", "50", "--seed", "3"]
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(verify + ["--out", str(out1)]) == 0
    assert main(["harnack-sweep", "--n", "4", "--k", "2", "--a", "0.5:2:3", "--nrad", "8",
                 "--nang", "4", "--images", "1", "--seed", "5"]) == 0
    assert main(verify + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
from sigmak_lab.cli import main
codes = [main(argv.split()) for argv in (
    "verify-bubble --n 3 --k 2 --samples 20 --images 1",
    "solve-radial --n 3 --k 2",
    "homotopy --n 3 --k 2 --m 32",
    "harnack-sweep --n 3 --k 2 --nrad 8 --nang 4 --images 1",
)]
assert sys.modules.pop("scipy") is None
print(codes, sorted(name for name in sys.modules if name.startswith("scipy")),
      "numpy.polynomial" in sys.modules)
"""


def test_every_command_runs_without_scipy():
    # a fresh interpreter, so nothing imported by another test hides a lazy import
    import sigmak_lab
    src = str(Path(sigmak_lab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True,
                         text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    # numpy.polynomial is not imported either: numpy leaves it to first use
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0] [] False"


# ---------------------------------------------------------------------------
# configuration errors exit 1, never as an unexpected failure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["verify-bubble", "--n", "3", "--k", "1", "--samples", "0"],
    ["verify-bubble", "--n", "3", "--k", "1", "--box", "0"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--nrad", "0"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--R", "-1"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--a", "0"],
    ["verify-bubble", "--n", "3", "--k", "1", "--tol", "nan"],
    ["solve-radial", "--n", "3", "--k", "1", "--rmax", "nan"],
    ["solve-radial", "--n", "3", "--k", "1", "--u0", "inf"],
    ["solve-radial", "--n", "3", "--k", "1", "--u0", "nan"],
    ["verify-bubble", "--n", "16", "--k", "1"],
    ["harnack-sweep", "--n", "3", "--k", "4"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--a", "1:2:3x"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--a", "inf"],
    ["verify-bubble", "--n", "3", "--k", "1", "--box", "inf"],
    ["solve-radial", "--n", "3", "--k", "1", "--tol", "nan"],
    ["solve-radial", "--n", "3", "--k", "3", "--tol", "1e-22"],
    ["harnack-sweep", "--n", "2", "--k", "1"],
    ["homotopy", "--n", "3", "--k", "0"],
    ["solve-radial", "--n", "2", "--k", "1"],
    ["verify-bubble", "--n", "3", "--k", "4"],
    ["homotopy", "--n", "3", "--k", "2", "--ub", "100"],
    ["verify-bubble", "--n", "3", "--k", "1", "--seed", "-1"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--images", "1", "--seed", "-1"],
    ["homotopy", "--n", "3", "--k", "1", "--ub", "1e300"],
    ["verify-bubble", "--n", "3", "--k", "1", "--images", "-2"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--images", "-3"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--nang", "-5"],
    ["homotopy", "--n", "3", "--k", "1", "--steps", str(2 ** 1100)],
    ["harnack-sweep", "--n", "3", "--k", "1", "--a", "1:2:-3"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--a=-1.7e308:1.7e308:5"],
])
def test_bad_sizes_are_configuration_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "unexpected failure" not in err


_PAST_CAPS = [
    # four counts numpy refused with an error of its own: "unexpected failure"
    (["homotopy", "--n", "3", "--k", "1", "--m", "9223372036854775808"], cli.MAX_MESH),
    (["homotopy", "--n", "3", "--k", "1", "--m", "4611686018427387904"], cli.MAX_MESH),
    (["verify-bubble", "--n", "3", "--k", "1", "--samples", "9223372036854775808"],
     cli.MAX_SAMPLES),
    (["harnack-sweep", "--n", "3", "--k", "1", "--a", "1:2:9223372036854775808"], cli.MAX_GRID),
    # one past each cap, and 2^70
    (["homotopy", "--n", "3", "--k", "1", "--m", str(cli.MAX_MESH + 1)], cli.MAX_MESH),
    (["homotopy", "--n", "3", "--k", "1", "--steps", str(cli.MAX_STEPS + 1)], cli.MAX_STEPS),
    (["homotopy", "--n", "3", "--k", "1", "--steps", str(2 ** 70)], cli.MAX_STEPS),
    (["verify-bubble", "--n", "3", "--k", "1", "--samples", str(cli.MAX_SAMPLES + 1)],
     cli.MAX_SAMPLES),
    (["verify-bubble", "--n", "3", "--k", "1", "--images", str(cli.MAX_IMAGES + 1)],
     cli.MAX_IMAGES),
    (["harnack-sweep", "--n", "3", "--k", "1", "--images", str(2 ** 70)], cli.MAX_IMAGES),
    (["harnack-sweep", "--n", "3", "--k", "1", "--R", f"1:2:{cli.MAX_GRID + 1}"], cli.MAX_GRID),
    (["harnack-sweep", "--n", "3", "--k", "1", "--a", f"1:2:{2 ** 70}log"], cli.MAX_GRID),
    (["homotopy", "--n", str(cli.MAX_HOMOTOPY_N + 1), "--k", "1"], cli.MAX_HOMOTOPY_N),
    (["homotopy", "--n", str(2 ** 70), "--k", "1"], cli.MAX_HOMOTOPY_N),
    (["verify-bubble", "--n", str(cli.MAX_VERIFY_N + 1), "--k", "1"], cli.MAX_VERIFY_N),
    (["verify-bubble", "--n", str(2 ** 70), "--k", "1"], cli.MAX_VERIFY_N),
]


@pytest.mark.parametrize("argv, cap", _PAST_CAPS)
def test_counts_past_their_caps_fail_before_any_work(argv, cap, monkeypatch, capsys):
    def work(*args, **kwargs):
        raise AssertionError("the work ran")
    for module, name in [(cli, "box_points"), (bubbles, "verify_images"),
                         (bubbles, "harnack_sweep"), (continuation, "continue_path"),
                         (np, "linspace"), (np, "geomspace")]:
        monkeypatch.setattr(module, name, work)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error: ")
    assert err.endswith(f"exceeds its cap of {cap}\n")


@pytest.mark.parametrize("command, caps", [
    ("verify-bubble", (cli.MAX_SAMPLES, cli.MAX_IMAGES, cli.MAX_VERIFY_N)),
    ("homotopy", (cli.MAX_MESH, cli.MAX_STEPS, cli.MAX_HOMOTOPY_N)),
    ("harnack-sweep", (cli.MAX_GRID, cli.MAX_IMAGES)),
])
def test_help_names_every_cap(command, caps, capsys):
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for cap in caps:
        assert f"at most {cap}" in text


# each output flag of each subcommand, its path still to come
_OUTPUT_ARGVS = [
    ["verify-bubble", "--n", "3", "--k", "1", "--samples", "10", "--images", "0", "--out"],
    ["verify-bubble", "--n", "3", "--k", "1", "--samples", "10", "--images", "0",
     "--format", "json", "--out"],
    ["solve-radial", "--n", "3", "--k", "1", "--out"],
    ["homotopy", "--n", "3", "--k", "1", "--m", "32", "--trace"],
    ["homotopy", "--n", "3", "--k", "1", "--m", "32", "--profile"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--nrad", "4", "--nang", "2", "--out"],
]


@pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
def test_unwritable_output_path_is_a_configuration_error(argv, tmp_path, capsys, monkeypatch):
    # the paths are checked before the work: a run of it is an unexpected failure
    def work(*args, **kwargs):
        raise AssertionError("the work ran")
    for module, name in [(bubbles, "verify_solution"), (bubbles, "verify_images"),
                         (bubbles, "harnack_sweep"), (radial, "shoot"),
                         (continuation, "continue_path")]:
        monkeypatch.setattr(module, name, work)
    path = tmp_path / "missing" / "out.txt"
    assert main(argv + [str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"configuration error: cannot write {path}" in err
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", _OUTPUT_ARGVS)
def test_an_output_path_that_is_a_directory_fails_before_the_work(argv, tmp_path, capsys):
    # no monkeypatch: every subcommand prints once its work is done
    assert main(argv + [str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"configuration error: cannot write {tmp_path}: it is a directory\n"


@pytest.mark.parametrize("argv", [
    ["verify-bubble", "--n", "3", "--k", "1", "--a", "1e200"],
    ["verify-bubble", "--n", "6", "--k", "2", "--a", "1e200"],
    ["verify-bubble", "--n", "3", "--k", "1", "--a", "1e-300"],
    ["homotopy", "--n", "6", "--k", "2", "--a", "1e200"],
    ["homotopy", "--n", "3", "--k", "1", "--rb", "1e300", "--ub", "1e-300"],
    ["homotopy", "--n", "3", "--k", "1", "--rb", "1e-300", "--ub", "1e-8"],
    ["harnack-sweep", "--n", "5", "--k", "4", "--R", "1.7e308"],
    ["harnack-sweep", "--n", "6", "--k", "3", "--a", "1e-200"],
    ["solve-radial", "--n", "3", "--k", "1", "--u0", "1e40"],
    ["homotopy", "--n", "3", "--k", "1", "--rb", "1e160"],
    ["homotopy", "--n", "3", "--k", "1", "--a", "1e300"],
])
def test_results_past_the_float_range_are_numerical_failures(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure:" in err and "unexpected failure" not in err


@pytest.mark.parametrize("flag, value, a, rb", [("--rb", "1e160", "1.0", "1e+160"),
                                                ("--a", "1e300", "1e+300", "5.0")])
def test_a_boundary_value_that_underflows_names_a_and_rb(flag, value, a, rb, capsys):
    # c (a / (1 + a^2 r_b^2))^m is 0.0 in floats: the flags that made it, not a
    # boundary value the user never gave; a radius that is no number stays a
    # configuration error
    assert main(["homotopy", "--n", "3", "--k", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert err == (f"numerical failure: the family's boundary value at --a={a}, "
                   f"--rb={rb} underflows to 0.0\n")
    assert main(["homotopy", "--n", "3", "--k", "1", "--rb", "nan"]) == 1
    assert capsys.readouterr().err == "configuration error: --rb=nan must be positive and finite\n"


@pytest.mark.parametrize("argv", [
    ["verify-bubble", "--n", "8", "--k", "2", "--a", "1e110"],
    ["homotopy", "--n", "8", "--k", "2", "--a", "1e110"],
])
def test_a_scale_whose_amplitude_overflows_is_a_numerical_failure(argv, capsys):
    # c a^m, m = 3, leaves the float range at a = 1e110: exit 2, and the message names a
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure: amplitude c a^m of scale a=1e+110" in err


# ---------------------------------------------------------------------------
# argv fuzzing: every outcome is an exit code of the contract
# ---------------------------------------------------------------------------

_EXTREME = (0.0, -1.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 5.0, 1e8, 1e200, 1e300, 1.7e308,
            math.inf, -math.inf, math.nan)
_FLOATS = st.sampled_from(_EXTREME) | st.floats(width=64)
# every positive tol: one below radial._TOL_FLOOR is a configuration error
_TOLS = st.sampled_from((0.0, -1.0, math.inf, math.nan)) | st.floats(0.0, exclude_min=True)


def _flag(name, values, fmt=repr):
    return st.one_of(st.just([]), values.map(lambda v: [name, fmt(v)]))


def _command(name, *flags, dims=st.integers(1, 8)):
    nk = st.tuples(dims, st.integers(-1, 9))
    return st.tuples(nk, *flags).map(
        lambda t: [name, "--n", str(t[0][0]), "--k", str(t[0][1])] + sum(t[1:], []))




def _count(lo, hi, cap):
    """A small count, or one past its cap up to 2^70: a near-cap run is no unit test."""
    return st.integers(lo, hi) | st.integers(cap + 1, 2 ** 70)


_CAPS = {"--samples": cli.MAX_SAMPLES, "--images": cli.MAX_IMAGES, "--m": cli.MAX_MESH,
         "--steps": cli.MAX_STEPS}
_COMMAND_CAPS = {("homotopy", "--n"): cli.MAX_HOMOTOPY_N}
_GRIDS = _FLOATS.map(repr) | st.builds(
    lambda lo, hi, count, log: f"{lo!r}:{hi!r}:{count}{'log' if log else ''}",
    _FLOATS, _FLOATS, _count(-1, 3, cli.MAX_GRID), st.booleans())
_ARGV = st.one_of(
    _command("verify-bubble", _flag("--a", _FLOATS), _flag("--tol", _FLOATS),
             _flag("--samples", _count(-2, 20, cli.MAX_SAMPLES), str), _flag("--box", _FLOATS),
             _flag("--images", _count(-1, 2, cli.MAX_IMAGES), str),
             _flag("--seed", st.integers(-3, 2 ** 70), str)),
    _command("solve-radial", _flag("--u0", _FLOATS), _flag("--rmax", _FLOATS),
             _flag("--tol", _TOLS)),
    _command("homotopy", _flag("--rb", _FLOATS), _flag("--a", _FLOATS), _flag("--ub", _FLOATS),
             _flag("--steps", _count(-1, 3, cli.MAX_STEPS), str),
             _flag("--m", _count(-1, 40, cli.MAX_MESH), str),
             dims=_count(1, 8, cli.MAX_HOMOTOPY_N)),
    _command("harnack-sweep", _flag("--a", _GRIDS, str), _flag("--R", _GRIDS, str),
             _flag("--nrad", st.integers(-1, 5), str), _flag("--nang", st.integers(-1, 5), str),
             _flag("--images", _count(-1, 2, cli.MAX_IMAGES), str),
             _flag("--seed", st.integers(-3, 2 ** 70), str)),
)


def _past_a_cap(argv):
    for flag, value in zip(argv, argv[1:]):
        cap = _COMMAND_CAPS.get((argv[0], flag), _CAPS.get(flag))
        if cap is not None and int(value) > cap:
            return True
        if argv[0] == "harnack-sweep" and flag in ("--a", "--R") and value.count(":") == 2 \
                and int(value.split(":")[2].removesuffix("log")) > cli.MAX_GRID:
            return True
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ARGV)
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "unexpected failure" not in err.getvalue()
    # a count past its cap never runs; an earlier flag's failure may come first
    assert code != 0 or not _past_a_cap(argv)


@pytest.mark.parametrize("command", ["solve-radial", "homotopy"])
def test_seed_flag_only_where_words_are_drawn(command, capsys):
    assert main([command, "--n", "3", "--k", "1", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
