import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravpulse import cli
from gravpulse.analytic import relative_change
from gravpulse.cli import CSV_HEADER, main
from gravpulse.optimize import SCAN_POINTS
from gravpulse.profiles import ProfileKind
from gravpulse.scenario import parse_scenario
from gravpulse.spacetime import classical_redshift, delta_expansion, kappa
from gravpulse.validation import numeric_weak_field_coefficients

DESK = """
spacetime.chi = 1.05
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = gaussian_linear
profile.phi_tilde = 2.0
profile.z0 = 0
"""


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "gravpulse.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def desk_config(tmp_path):
    path = tmp_path / "desk.cfg"
    path.write_text(DESK)
    return str(path)


def test_redshift_earth_leo(capsys):
    code = main(["redshift", "--preset", "earth-leo"])
    assert code == 0
    out = capsys.readouterr().out
    values = {line.split(" = ")[0]: line.split(" = ")[1].split()[0]
              for line in out.strip().splitlines() if " = " in line}
    d1 = float(values["delta1"])
    approx = -0.125 * 8.87e-3 / 6.371e6
    assert abs(d1 - approx) / abs(approx) < 0.25
    kw = abs(float(values["kappa*omega0"]))
    assert 1e4 <= kw <= 1e6


def test_redshift_scaling_with_rs(tmp_path, capsys):
    # delta1 scales linearly in r_s (pedagogical x1e6 exaggeration)
    base = """
spacetime.r_a_m = 6.371e6
spacetime.r_b_m = 6.771e6
spacetime.r_s_m = {rs}
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = gaussian_linear
"""
    d1s = []
    for rs in (8.87e-3, 8.87e3):
        p = tmp_path / "cfg.cfg"
        p.write_text(base.format(rs=rs))
        assert main(["redshift", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        d1s.append(float([l for l in out.splitlines() if l.startswith("delta1")][0].split(" = ")[1]))
    assert d1s[1] / d1s[0] == pytest.approx(1e6, rel=1e-12)


def test_flat_preset_chi_one(tmp_path, capsys):
    p = tmp_path / "flat.cfg"
    p.write_text("""
spacetime.r_a_m = 6.371e6
spacetime.r_b_m = 6.771e6
spacetime.r_s_m = 0
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = gaussian_linear
""")
    assert main(["redshift", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "chi = 1\n" in out
    assert "kappa = 0\n" in out


def test_overlap_command(desk_config, capsys):
    code = main(["overlap", "--config", desk_config, "--z-bar", "0.0"])
    assert code == 0
    out = capsys.readouterr().out
    dp = float([l for l in out.splitlines() if l.startswith("delta_p")][0].split(" = ")[1])
    chi = 1.05
    expected = (math.sqrt(2) * chi / math.sqrt(1 + chi**4)
                * math.exp(-((chi**2 - 1) ** 2) * 4.0 / (chi**4 + 1)))
    assert dp == pytest.approx(expected, rel=1e-8)


def test_optimize_command_reports_analytic_gap(desk_config, capsys):
    code = main(["optimize", "--config", desk_config])
    assert code == 0
    out = capsys.readouterr().out
    assert "analytic delta_p_opt" in out
    z = float([l for l in out.splitlines() if l.startswith("z_bar_opt")][0].split(" = ")[1])
    assert abs(z) < 1e-7
    gaps = [abs(float(l.split("(gap ")[1].rstrip(")\n")))
            for l in out.splitlines() if "(gap" in l]
    assert max(gaps) < 1e-7


def test_optimize_chi_one_warns(tmp_path, capsys):
    p = tmp_path / "one.cfg"
    p.write_text(DESK.replace("1.05", "1.0"))
    code = main(["optimize", "--config", str(p)])
    assert code == 0
    err = capsys.readouterr().err
    assert "machine resolution" in err


def test_optimize_makes_one_optimizer_pass(capsys):
    # one scan serves both objectives; two separate optimizations cost 414 here
    assert main(["optimize", "--preset", "desk-scale"]) == 0
    vals = _values(capsys.readouterr().out)
    assert vals["path"] == "numeric"
    assert 0 < int(vals["n_evals"]) < 2 * SCAN_POINTS


@pytest.mark.parametrize("command", ["optimize", "overlap", "sweep"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_must_be_positive_and_finite(command, tol, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(DESK + "sweep.param = profile.phi_tilde\nsweep.start = 1\n"
                   "sweep.stop = 1\nsweep.count = 1\n")
    rc, out, err = _call([command, "--config", str(cfg), "--tolerance", tol])
    assert rc == 2 and out == ""
    assert err.splitlines() == [
        f"config error: --tolerance must be positive and finite, got {float(tol)!r}"]


def test_sweep_csv_schema_and_determinism(desk_config, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(DESK + "sweep.param = profile.phi_tilde\nsweep.start = 0\n"
                   "sweep.stop = 3\nsweep.count = 5\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--workers", "3"]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6


def test_sweep_single_point(desk_config, tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(DESK + "sweep.param = profile.phi_tilde\nsweep.start = 1\n"
                   "sweep.stop = 1\nsweep.count = 1\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_sweep_eta_near_earth(tmp_path, capsys):
    # weak-field analytic path: eta reproduces -2 phi^2 delta1^2 within 1%
    cfg = tmp_path / "ne.cfg"
    cfg.write_text("""
spacetime.r_a_m = 6.371e6
spacetime.r_b_m = 6.771e6
spacetime.r_s_m = 8.87e-3
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = gaussian_linear
profile.z0 = 0
sweep.param = profile.phi_tilde
sweep.start = 0
sweep.stop = 3
sweep.count = 31
""")
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [l.split(",") for l in lines[1:]]
    d1 = float(rows[0][2])
    for row in rows:
        phi, eta = float(row[0]), float(row[7])
        target = -2.0 * phi**2 * d1**2
        if phi > 0:
            assert abs(eta - target) <= 0.01 * abs(target)
        else:
            assert eta == 0.0


EARTH_COMB_QUADRATIC = """
spacetime.r_a_m = 6.371e6
spacetime.r_b_m = 6.771e6
spacetime.r_s_m = 8.87e-3
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = comb_quadratic
profile.phi_tilde = 3
profile.sigma_tilde = 20
profile.d_tilde = 0.5
"""


def _assert_matches_numeric(profile, d1, eta, z_bar):
    """eta < 0, and eta and z_bar against the numeric Richardson fit of the
    weak-field coefficients of `profile` (not the weak-field route itself)."""
    ref = numeric_weak_field_coefficients(profile)
    assert eta < 0.0
    assert eta / d1**2 == pytest.approx(-(ref.c_p - ref.c_m), rel=1e-4)
    assert z_bar / d1 == pytest.approx(ref.z_rate, rel=1e-4, abs=1e-4)


def test_sweep_eta_comb_quadratic_near_earth(tmp_path, capsys):
    # eta ~ -1e-17 survives although both overlaps round to 1.
    cfg = tmp_path / "cq.cfg"
    cfg.write_text(EARTH_COMB_QUADRATIC + "sweep.param = profile.phi_tilde\n"
                   "sweep.start = 3\nsweep.stop = 4\nsweep.count = 2\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()[1:]]
    assert len(rows) == 2
    sc = parse_scenario(EARTH_COMB_QUADRATIC)
    for row in rows:
        phi, d1, z_bar, eta = float(row[0]), float(row[2]), float(row[3]), float(row[7])
        _assert_matches_numeric(sc.with_param("profile.phi_tilde", phi).profile, d1, eta, z_bar)


def _leo(kind, phi, extra="", r_s=8.87e-3):
    """Ground-to-LEO scenario text; Earth's r_s gives delta1 ~ -1.4e-10."""
    return ("spacetime.r_a_m = 6.371e6\nspacetime.r_b_m = 6.771e6\n"
            f"spacetime.r_s_m = {r_s!r}\n"
            "frame.omega0_rad_s = 1.215e15\nframe.sigma_rad_s = 1e9\n"
            f"profile.kind = {kind}\nprofile.phi_tilde = {phi!r}\n" + extra)


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _optimize_and_sweep_row(config, phi):
    """(rc, stdout, stderr) of `optimize` on `config` and of a one-row sweep
    of the same scenario (profile.phi_tilde swept from phi to phi)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config)
        opt = _call(["optimize", "--config", path])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"sweep.param = profile.phi_tilde\nsweep.start = {phi!r}\n"
                     f"sweep.stop = {phi!r}\nsweep.count = 1\n")
        return opt, _call(["sweep", "--config", path])


def _values(out):
    return {k: v.split()[0] for k, v in (l.split(" = ", 1) for l in out.splitlines()
                                         if " = " in l)}


# optimize's label -> column of the sweep CSV
SWEEP_COLUMNS = {"z_bar_opt": 3, "delta_omega_opt": 4, "delta_p_opt": 5, "delta_m_opt": 6,
                 "eta": 7, "naive delta_p(z_bar=0)": 8, "n_evals": 9}


def _matching_values(opt, sweep):
    """optimize's values, after checking the sweep row prints the same ones."""
    vals, row = _values(opt), sweep.splitlines()[1].split(",")
    assert {k: vals[k] for k in SWEEP_COLUMNS} == {k: row[i] for k, i in SWEEP_COLUMNS.items()}
    return vals


@pytest.mark.parametrize("config, phi, path", [
    (_leo("gaussian_linear", 1.5), 1.5, "weak-field"),
    (_leo("gaussian_quadratic", 1.5), 1.5, "weak-field"),
    (_leo("comb_linear", 1.5, "profile.sigma_tilde = 20\nprofile.d_tilde = 2\n"),
     1.5, "weak-field"),
    (_leo("comb_quadratic", 3.0, "profile.sigma_tilde = 20\nprofile.d_tilde = 0.5\n"),
     3.0, "weak-field"),
    (DESK, 2.0, "numeric"),
], ids=["gaussian_linear", "gaussian_quadratic", "comb_linear", "comb_quadratic",
        "chi_override"])
def test_optimize_matches_one_row_sweep(config, phi, path):
    (rc, out, err), (rc_s, out_s, _) = _optimize_and_sweep_row(config, phi)
    assert rc == rc_s == 0
    vals = _matching_values(out, out_s)
    assert vals["path"] == path
    if path == "numeric":
        assert int(vals["n_evals"]) > 0
        return
    assert vals["n_evals"] == "0" and err == ""
    p = parse_scenario(config).profile
    d1 = float(out_s.splitlines()[1].split(",")[2])
    if p.kind.is_comb:
        _assert_matches_numeric(p, d1, float(vals["eta"]), float(vals["z_bar_opt"]))
        return
    # The exact-at-chi Gaussian ratio differs from the second-order one by O(delta1).
    eta = relative_change(p, d1)
    assert eta != 0.0
    assert float(vals["eta"]) == pytest.approx(eta, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("preset", ["earth-leo", "earth-geo", "earth-surface-lab"])
def test_optimize_earth_presets_print_no_overlap_above_one(preset, capsys):
    assert main(["optimize", "--preset", preset]) == 0
    out, err = capsys.readouterr()
    overlaps = [float(v) for k, v in _values(out).items() if "delta_p" in k or "delta_m" in k]
    assert len(overlaps) == 3
    assert max(overlaps) <= 1.0
    assert err == ""


@pytest.mark.parametrize("preset", ["earth-leo", "earth-geo", "earth-surface-lab"])
def test_delta_omega_at_zero_shift_is_carrier_shift(preset):
    # z_bar_opt = 0, so delta_omega_opt is -kappa*omega0, which `redshift`
    # prints from the cancellation-free kappa_from_delta.
    rc, out, _ = _call(["optimize", "--preset", preset])
    rc_r, out_r, _ = _call(["redshift", "--preset", preset])
    assert rc == rc_r == 0
    vals, ref = _values(out), _values(out_r)
    assert float(vals["z_bar_opt"]) == 0.0
    assert float(vals["delta_omega_opt"]) == pytest.approx(-float(ref["kappa*omega0"]),
                                                           rel=1e-12, abs=0.0)


def test_weak_field_delta_omega_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    config = _leo("gaussian_quadratic", 1.5)
    _, (rc, out, _) = _optimize_and_sweep_row(config, 1.5)
    assert rc == 0
    row = out.splitlines()[1].split(",")
    z_bar, domega = float(row[3]), float(row[4])
    assert z_bar != 0.0
    with mpmath.workdps(50):
        r_a, r_b, r_s = (mpmath.mpf(x) for x in (6.371e6, 6.771e6, 8.87e-3))
        chi2 = mpmath.sqrt((1 - mpmath.mpf(1.5) * r_s / r_b) / (1 - r_s / r_a))
        sigma, z0 = mpmath.mpf(1e9), mpmath.mpf(1.215e15) / mpmath.mpf(1e9)
        ref = float(sigma / chi2 * (mpmath.mpf(z_bar) - (chi2 - 1) * z0))
    assert domega == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_delta_omega_fills_from_frame():
    # Numeric path under a bare chi: z_bar_opt ~ 0, so delta_omega_opt is
    # the rigid carrier shift -kappa*omega0 of the scenario's frame.
    config = DESK.replace("profile.z0 = 0\n", "")
    (rc, out, _), _ = _optimize_and_sweep_row(config, 2.0)
    assert rc == 0
    vals = _values(out)
    assert vals["path"] == "numeric"
    chi, z_bar = float(vals["chi"]), float(vals["z_bar_opt"])
    domega = float(vals["delta_omega_opt"])
    assert domega == pytest.approx(classical_redshift(z_bar, chi, 1e9, 1.215e6), rel=1e-12)
    assert domega == pytest.approx(-kappa(chi) * 1.215e15, rel=1e-6)


@pytest.mark.parametrize("fail_at, rows_written", [(1, 0), (3, 2)])
def test_sweep_streams_rows_until_a_failure(fail_at, rows_written, tmp_path, monkeypatch,
                                            capsys):
    from gravpulse import cli
    from gravpulse.errors import NonConvergenceError

    row = cli._sweep_row
    calls = []

    def failing_row(*args):
        calls.append(args)
        if len(calls) == fail_at:
            raise NonConvergenceError("row stalled")
        return row(*args)

    cfg = tmp_path / "s.cfg"
    cfg.write_text(_leo("gaussian_linear", 1.0) + "sweep.param = profile.phi_tilde\n"
                   "sweep.start = 0\nsweep.stop = 4\nsweep.count = 5\n")
    monkeypatch.setattr(cli, "_sweep_row", failing_row)
    assert main(["sweep", "--config", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert len(calls) == fail_at
    lines = out.splitlines()
    if rows_written == 0:
        assert out == ""
    else:
        assert lines[0] == CSV_HEADER and len(lines) == 1 + rows_written
        assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 1.0]
    assert err.startswith("numerical error: row stalled")


@pytest.mark.parametrize("command", ["optimize", "sweep"])
def test_comb_quadratic_beyond_zeta_range_takes_weak_field(command, tmp_path, capsys):
    # d_tilde^2/2 = 2 lies outside estimate_zeta's range, which the
    # weak-field route does not use.
    text = EARTH_COMB_QUADRATIC.replace("d_tilde = 0.5", "d_tilde = 2")
    cfg = tmp_path / "cq.cfg"
    cfg.write_text(text + "sweep.param = profile.phi_tilde\nsweep.start = 3\n"
                   "sweep.stop = 3\nsweep.count = 1\n")
    assert main([command, "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "optimize":
        vals = _values(out)
        assert vals["path"] == "weak-field"
        z_bar, dp, dm, eta = (float(vals[k]) for k in
                              ("z_bar_opt", "delta_p_opt", "delta_m_opt", "eta"))
    else:
        row = [float(x) for x in out.splitlines()[1].split(",")]
        z_bar, dp, dm, eta = row[3], row[5], row[6], row[7]
    sc = parse_scenario(text)
    assert 0.0 < dp <= dm <= 1.0
    _assert_matches_numeric(sc.profile, delta_expansion(sc.spacetime)[0], eta, z_bar)


@st.composite
def _earth_scenarios(draw):
    kind = draw(st.sampled_from([k.value for k in ProfileKind]))
    phi = draw(st.floats(0.0, 4.0))
    extra = ""
    if kind == "gaussian_quadratic":
        z0 = draw(st.none() | st.floats(0.0, 3.0))      # None: omega0/sigma ~ 1.2e6
        extra = "" if z0 is None else f"profile.z0 = {z0!r}\n"
    elif kind != "gaussian_linear":
        extra = (f"profile.sigma_tilde = {draw(st.floats(5.0, 25.0))!r}\n"
                 f"profile.d_tilde = {draw(st.floats(0.4, 3.0))!r}\n")
        if kind == "comb_quadratic":
            extra += f"profile.delta_z0 = {draw(st.floats(-3.0, 3.0))!r}\n"
    # r_s up to 1e5 times Earth's: |delta1| from ~1.4e-10 to ~1.4e-5, on both
    # sides of the weak-field threshold 1e-7.
    r_s = 8.87e-3 * 10.0 ** draw(st.floats(0.0, 5.0))
    return _leo(kind, phi, extra, r_s), phi


@settings(max_examples=30, deadline=None)
@given(_earth_scenarios())
@example((_leo("comb_quadratic", 3.0, "profile.sigma_tilde = 20\nprofile.d_tilde = 0.5\n"),
          3.0))
def test_optimize_and_sweep_row_agree_on_random_scenarios(case):
    (rc, out, err), (rc_s, out_s, err_s) = _optimize_and_sweep_row(*case)
    assert rc in (0, 2, 3) and rc_s == rc
    if rc != 0:
        for text in (err, err_s):
            lines = text.strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(("config error:", "numerical error:"))
        return
    vals = _matching_values(out, out_s)
    x = {k: float(vals[k]) for k in SWEEP_COLUMNS}
    assert all(math.isfinite(v) for v in x.values())
    # the 1e-9 ordering slack the acceptance suite pins
    assert 0.0 <= x["delta_p_opt"] <= x["delta_m_opt"] + 1e-9
    assert x["delta_m_opt"] <= 1.0 + 1e-9
    assert x["naive delta_p(z_bar=0)"] <= x["delta_p_opt"] + 1e-9
    if vals["path"] == "weak-field":
        assert x["eta"] <= 0.0


def test_sweep_over_d_tilde_rederives_n_max(tmp_path, capsys):
    # n_max chosen for d_tilde = 2 keeps too few teeth at d_tilde = 1.
    cfg = tmp_path / "d.cfg"
    cfg.write_text(EARTH_COMB_QUADRATIC.replace("comb_quadratic", "comb_linear")
                   .replace("d_tilde = 0.5", "d_tilde = 2")
                   + "sweep.param = profile.d_tilde\n"
                   "sweep.start = 2\nsweep.stop = 1\nsweep.count = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("d_tilde", ["0", "1e-310"])
def test_optimize_zero_or_tiny_tooth_spacing_is_config_error(tmp_path, capsys, d_tilde):
    cfg = tmp_path / "d0.cfg"
    cfg.write_text(EARTH_COMB_QUADRATIC.replace("d_tilde = 0.5", f"d_tilde = {d_tilde}"))
    assert main(["optimize", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error:") and "d_tilde" in err


def test_sweep_reaching_zero_tooth_spacing_keeps_earlier_rows(tmp_path, capsys):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(EARTH_COMB_QUADRATIC.replace("d_tilde = 0.5", "d_tilde = 2")
                   + "sweep.param = profile.d_tilde\n"
                   "sweep.start = 2\nsweep.stop = 0\nsweep.count = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert [float(l.split(",")[0]) for l in lines[1:]] == [2.0, 1.0]
    assert err.count("\n") == 1 and err.startswith("config error:") and "d_tilde" in err


def test_comb_only_sweep_on_gaussian_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text(DESK + "sweep.param = profile.sigma_tilde\nsweep.start = 10\n"
                   "sweep.stop = 20\nsweep.count = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: profile.sigma_tilde is only valid for comb profiles\n"


def test_delta_z0_sweep_on_linear_comb_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(DESK.replace("gaussian_linear", "comb_linear")
                   + "profile.sigma_tilde = 10\nprofile.d_tilde = 2\n"
                     "sweep.param = profile.delta_z0\nsweep.start = 0\n"
                     "sweep.stop = 20\nsweep.count = 3\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("config error: profile.delta_z0 is only valid for comb_quadratic "
                   "profiles\n")


def _fmt_join(values):
    return ",".join(cli._fmt(v) if isinstance(v, float) else str(v) for v in values)


def test_csv_row_template_matches_the_per_field_join():
    row = (math.nan, math.inf, -0.0, -math.inf, 1e16, 0.1, 5e-324, -1.4e-10, 2.0, 207)
    assert cli.CSV_ROW % row == _fmt_join(row) == \
        "nan,inf,-0,-inf,10000000000000000,0.10000000000000001,4.9406564584124654e-324," \
        "-1.4000000000000001e-10,2,207"


@pytest.mark.parametrize("config, column, check", [
    (DESK, 2, math.isnan),                                       # delta1 of a bare chi
    (DESK + "photons.kind = coherent\nphotons.n_mean = 1\n", 4, math.isnan),   # delta_omega
    (_leo("gaussian_quadratic", 1.5), 2, lambda d1: d1 < 0.0),  # weak-field delta1
], ids=["bare_chi", "photon_n_mean", "weak_field"])
def test_sweep_rows_are_the_per_field_fmt_join(config, column, check, tmp_path):
    param = "photons.n_mean" if "photons" in config else "profile.phi_tilde"
    path = tmp_path / "s.cfg"
    path.write_text(config + f"sweep.param = {param}\nsweep.start = 1\n"
                             "sweep.stop = 2\nsweep.count = 3\n")
    rc, out, _ = _call(["sweep", "--config", str(path)])
    rows = out.splitlines()[1:]
    assert rc == 0 and len(rows) == 3
    for row in rows:
        # %.17g round-trips a double, so the parsed fields are the row's values
        fields = row.split(",")
        values = [float(f) for f in fields[:-1]] + [int(fields[-1])]
        assert row == _fmt_join(values) and check(values[column])


def test_parser_keeps_no_state_between_commands(desk_config, capsys):
    assert main(["overlap", "--config", desk_config, "--z-bar", "0.5"]) == 0
    assert "z_bar = 0.5\n" in capsys.readouterr().out
    assert main(["overlap", "--config", desk_config]) == 0
    assert "z_bar = 0\n" in capsys.readouterr().out


def test_sweep_coherent_photons(tmp_path, capsys):
    cfg = tmp_path / "ph.cfg"
    cfg.write_text(DESK + "photons.kind = coherent\nphotons.n_mean = 1\n"
                   "sweep.param = photons.n_mean\nsweep.start = 0\n"
                   "sweep.stop = 200\nsweep.count = 5\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [l.split(",") for l in lines[1:]]
    from gravpulse.overlap import lambda_pure
    from gravpulse.profiles import gaussian_linear
    lam = lambda_pure(gaussian_linear(2.0), 1.05, 0.0)
    for row in rows:
        n, dp = float(row[0]), float(row[5])
        assert dp == pytest.approx(math.exp(-(1.0 - lam.real) * n), rel=1e-9)


def test_purity_command(desk_config, capsys):
    assert main(["purity", "--config", desk_config, "--bins", "1024"]) == 0
    out = capsys.readouterr().out
    assert "pure: purity before = 1" in out
    mixed_line = [l for l in out.splitlines() if l.startswith("mixed:")][0]
    before = float(mixed_line.split("purity before = ")[1].split(",")[0])
    after = float(mixed_line.split("after = ")[1].split(",")[0])
    assert abs(before - after) < 1e-9


def test_dump_config_roundtrip(desk_config, capsys):
    assert main(["dump-config", "--config", desk_config]) == 0
    text = capsys.readouterr().out
    from gravpulse.scenario import parse_scenario
    sc = parse_scenario(text)
    assert sc.chi_override == 1.05


def test_exit_codes_subprocess(tmp_path):
    code, _, err = run_cli(["redshift", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2 and "config error" in err
    bad = tmp_path / "bad.cfg"
    bad.write_text("spacetime.chi = 1.05\n")
    code, _, err = run_cli(["redshift", "--config", str(bad)])
    assert code == 2
    code, _, _ = run_cli(["redshift"])          # no scenario at all
    assert code == 2
    code, _, _ = run_cli(["bogus-command"])     # argparse usage error
    assert code == 2


def test_validate_fast_subprocess():
    code, out, _ = run_cli(["validate", "--level", "fast"])
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_validation_failure_maps_to_exit_1(monkeypatch, capsys):
    from gravpulse import cli, validation

    def failing_battery(level):
        return [validation.CheckResult("seeded failure", 1.0, 1e-9, 0.0)]

    monkeypatch.setattr(cli.validation, "run_battery", failing_battery)
    assert main(["validate"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_nonconvergence_maps_to_exit_3(desk_config, monkeypatch, capsys):
    from gravpulse import cli
    from gravpulse.errors import NonConvergenceError

    def explode(*args, **kwargs):
        raise NonConvergenceError("quadrature stalled")

    monkeypatch.setattr(cli, "evaluate_overlap", explode)
    assert main(["overlap", "--config", desk_config]) == 3
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_overlap_nonfinite_z_bar_is_config_error(desk_config, value, capsys):
    assert main(["overlap", "--config", desk_config, f"--z-bar={value}"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_purity_support_escape_is_config_error(capsys):
    # chi < 1 widens the received profile past the default 20-width grid
    assert main(["purity", "--chi", "0.5", "--preset", "desk-scale"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_grid_mismatch_is_config_error(desk_config, monkeypatch, capsys):
    from gravpulse import cli
    from gravpulse.errors import GridMismatchError

    def mismatch(a, b):
        raise GridMismatchError("states live on different grids")

    monkeypatch.setattr(cli, "fidelity", mismatch)
    assert main(["purity", "--config", desk_config, "--bins", "1024"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: states live on different grids"]


def test_purity_bins_cap_rejects_before_allocating():
    # Run in a child with a 1 GiB address-space limit, so that a missing
    # cap fails with MemoryError instead of exhausting the host.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    code = ("import tracemalloc\n"
            "from gravpulse.cli import main\n"
            "tracemalloc.start()\n"
            "rc = main(['purity', '--preset', 'desk-scale', '--bins', str(10**8)])\n"
            "print(rc, tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, preexec_fn=limit)
    rc, peak = proc.stdout.split()
    assert int(rc) == 2
    assert int(peak) < 2**20
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_purity_rejects_too_few_bins(capsys):
    assert main(["purity", "--preset", "desk-scale", "--bins", "0"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_import_cli_leaves_scipy_integrate_unloaded():
    code = "import sys, gravpulse.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# r_s/r_a = 0.04: inside the 5e-2 series bound, where delta1 + delta2 misses
# chi - 1 by ~2e-3 relative.
STRONG_FIELD = _leo("gaussian_linear", 0.0, r_s=254840.0)


def test_redshift_kappa_uses_exact_delta(tmp_path):
    mpmath = pytest.importorskip("mpmath")
    path = tmp_path / "strong.cfg"
    path.write_text(STRONG_FIELD)
    rc, out, _ = _call(["redshift", "--config", str(path)])
    rc_o, out_o, _ = _call(["optimize", "--config", str(path)])
    assert rc == rc_o == 0
    with mpmath.workdps(50):
        r_a, r_b, r_s = (mpmath.mpf(x) for x in (6.371e6, 6.771e6, 254840.0))
        chi2 = mpmath.sqrt((1 - mpmath.mpf(1.5) * r_s / r_b) / (1 - r_s / r_a))
        ref = float((chi2 - 1) / chi2 * mpmath.mpf(1.215e15))
    kw = float(_values(out)["kappa*omega0"])
    assert kw == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert float(_values(out_o)["delta_omega_opt"]) == pytest.approx(-kw, rel=1e-12, abs=0.0)


def test_log_chi_runs_once_per_command_and_sweep(tmp_path, monkeypatch):
    from gravpulse import spacetime
    calls = []
    log_chi = spacetime._log_chi
    monkeypatch.setattr(spacetime, "_log_chi", lambda cfg: calls.append(cfg) or log_chi(cfg))
    path = tmp_path / "leo.cfg"
    path.write_text(_leo("gaussian_quadratic", 1.5)
                    + "sweep.param = profile.phi_tilde\nsweep.start = 0\n"
                      "sweep.stop = 2\nsweep.count = 7\n")
    chi_path = tmp_path / "leo_chi.cfg"
    chi_path.write_text(_leo("gaussian_linear", 1.5)
                        + "sweep.param = spacetime.chi\nsweep.start = 1.001\n"
                          "sweep.stop = 1.002\nsweep.count = 3\n")
    # A sweep builds its redshift once; a chi sweep sets chi on every row
    # and never evaluates the geometry.
    for argv, expected in ((["redshift"], 1), (["overlap"], 1), (["optimize"], 1),
                           (["purity", "--bins", "1024"], 1), (["dump-config"], 0),
                           (["sweep"], 1)):
        calls.clear()
        rc, _, _ = _call([*argv, "--config", str(path)])
        assert rc == 0 and len(calls) == expected, argv
    calls.clear()
    rc, out, _ = _call(["sweep", "--config", str(chi_path)])
    assert rc == 0 and len(out.splitlines()) == 4 and len(calls) == 0
    calls.clear()
    assert _call(["optimize", "--preset", "earth-leo"])[0] == 0 and len(calls) == 1


# Every float key a scenario file may set to a non-finite value, in one
# config that the four commands accept as it stands.
NONFINITE_BASE = {
    "profile.phi_tilde": "1.0", "profile.z0": "2.0", "profile.delta_z0": "0.1",
    "profile.sigma_tilde": "10", "profile.d_tilde": "2", "photons.n_mean": "10",
    "sweep.start": "0.5",
}


@pytest.mark.parametrize("command", ["overlap", "optimize", "sweep", "purity"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", list(NONFINITE_BASE))
def test_nonfinite_scenario_value_is_config_error(key, value, command, tmp_path):
    values = dict(NONFINITE_BASE, **{key: value})
    path = tmp_path / "bad.cfg"
    path.write_text("spacetime.chi = 1.05\nframe.omega0_rad_s = 1.215e15\n"
                    "frame.sigma_rad_s = 1e9\nprofile.kind = comb_quadratic\n"
                    "photons.kind = coherent\nsweep.param = profile.phi_tilde\n"
                    "sweep.stop = 1.0\nsweep.count = 2\n"
                    + "".join(f"{k} = {v}\n" for k, v in values.items()))
    rc, out, err = _call([command, "--config", str(path)])
    assert (rc, out) == (2, "")
    assert err.splitlines() == [f"config error: {key}: must be finite, got {value!r}"]


def test_comb_too_fine_for_the_kernel_is_config_error(tmp_path):
    # sigma_tilde = 1000 needs ~1.8e5 coarsest kernel intervals (cap 2^17).
    path = tmp_path / "fine.cfg"
    path.write_text(DESK.replace("gaussian_linear", "comb_linear")
                    + "profile.sigma_tilde = 1000\nprofile.d_tilde = 2\n")
    for command in ("overlap", "optimize", "purity"):
        rc, out, err = _call([command, "--config", str(path)])
        assert (rc, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("config error: comb needs")


@pytest.mark.parametrize("kind", ["coherent", "squeezed"])
def test_overlap_multiphoton_delta_m_is_n_independent(kind, tmp_path):
    printed = set()
    for n in (1.0, 10.0, 1e4):
        path = tmp_path / "photons.cfg"
        path.write_text(DESK + f"photons.kind = {kind}\nphotons.n_mean = {n!r}\n")
        rc, out, _ = _call(["overlap", "--config", str(path)])
        assert rc == 0
        vals = _values(out)
        assert vals["multi-photon delta_m"] == vals["delta_m"]
        printed.add(vals["multi-photon delta_m"])
    assert len(printed) == 1
