"""Command-line contract: exit codes, output schemas, determinism."""

import json

import pytest

from sigmak_lab.cli import main, _parse_grid
from sigmak_lab.errors import ConfigError


def test_grid_parsing():
    import numpy as np
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


@pytest.mark.parametrize("k", ["20", "40"])
def test_solve_radial_power_overflow_is_a_numerical_failure(k, capsys):
    # lam_tan^(k-1) overflows a float during the integration at n = 40
    assert main(["solve-radial", "--n", "40", "--k", k]) == 2
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
    import numpy as np
    import sigmak_lab as sl
    rows = sl.harnack_sweep(3, 1, np.geomspace(1e-1, 1e3, 9),
                            np.linspace(1.0, 4.0, 4), n_radial=24, n_angular=8)
    by_r = {}
    for row in rows:
        by_r.setdefault(row.R, []).append(row.product_scaled)
    sups = [max(v) for v in by_r.values()]
    assert max(sups) <= min(sups) * 1.01


def test_harnack_sweep_empty_grid():
    assert main(["harnack-sweep", "--n", "3", "--k", "1", "--a", ""]) == 1


def test_harnack_sweep_deterministic_bytes(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    args = ["harnack-sweep", "--n", "3", "--k", "2", "--a", "0.5:2:3",
            "--R", "1", "--nrad", "16", "--nang", "8", "--images", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# configuration errors exit 1, never as an unexpected failure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["verify-bubble", "--n", "3", "--k", "1", "--samples", "0"],
    ["verify-bubble", "--n", "3", "--k", "1", "--box", "0"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--nrad", "0"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--R", "-1"],
    ["harnack-sweep", "--n", "3", "--k", "1", "--a", "0"],
])
def test_bad_sizes_are_configuration_errors(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "unexpected failure" not in err


@pytest.mark.parametrize("command", ["solve-radial", "homotopy"])
def test_seed_flag_only_where_words_are_drawn(command, capsys):
    assert main([command, "--n", "3", "--k", "1", "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
