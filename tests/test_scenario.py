import math

import pytest

from gravpulse.errors import ConfigError
from gravpulse.multiphoton import PhotonKind
from gravpulse.profiles import ProfileKind, comb
from gravpulse.scenario import (Scenario, dump_scenario, load_preset,
                                parse_scenario, preset_names)

BASIC = """
# comment line
spacetime.chi = 1.05
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = gaussian_linear
profile.phi_tilde = 2.0
profile.z0 = 0
"""


def test_parse_basic():
    sc = parse_scenario(BASIC)
    assert sc.chi_override == 1.05
    assert sc.spacetime is None
    assert sc.profile.kind is ProfileKind.GAUSSIAN_LINEAR
    assert sc.profile.phi_tilde == 2.0
    assert sc.profile.z0 == 0.0


def test_z0_defaults_to_frame():
    sc = parse_scenario("""
spacetime.chi = 1.02
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = gaussian_linear
""")
    assert sc.profile.z0 == pytest.approx(1.215e6)


def test_parse_comb_and_photons_and_sweep():
    sc = parse_scenario("""
spacetime.r_a_m = 6.371e6
spacetime.r_b_m = 6.771e6
spacetime.r_s_m = 8.87e-3
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = comb_linear
profile.phi_tilde = 1.5
profile.sigma_tilde = 10
profile.d_tilde = 2
profile.z0 = 0
photons.kind = coherent
photons.n_mean = 1e4
sweep.param = profile.phi_tilde
sweep.start = 0
sweep.stop = 3
sweep.count = 31
""")
    assert sc.spacetime.r_b == 6.771e6
    assert sc.profile.kind is ProfileKind.COMB_LINEAR
    assert sc.photons.kind is PhotonKind.COHERENT
    assert sc.sweep.count == 31
    vals = list(sc.sweep.values())
    assert len(vals) == 31
    assert vals[0] == 0.0 and vals[-1] == 3.0


def test_roundtrip_dump_parse():
    sc = parse_scenario(BASIC)
    sc2 = parse_scenario(dump_scenario(sc))
    assert sc2 == sc


def test_roundtrip_full_featured():
    text = """
spacetime.r_a_m = 6.371e6
spacetime.r_b_m = 6.771e6
spacetime.r_s_m = 8.87e-3
frame.omega0_rad_s = 1.215e15
frame.sigma_rad_s = 1e9
profile.kind = comb_quadratic
profile.phi_tilde = 0.7
profile.sigma_tilde = 12
profile.d_tilde = 1.5
profile.delta_z0 = 0.25
profile.z0 = 0
photons.kind = squeezed
photons.n_mean = 100
sweep.param = photons.n_mean
sweep.start = 1
sweep.stop = 1000
sweep.count = 4
sweep.scale = log
"""
    sc = parse_scenario(text)
    assert parse_scenario(dump_scenario(sc)) == sc
    vals = list(sc.sweep.values())
    assert vals[0] == pytest.approx(1.0) and vals[-1] == pytest.approx(1000.0)
    assert vals[1] / vals[0] == pytest.approx(10.0)


@pytest.mark.parametrize("bad,msg", [
    ("frame.omega0_rad_s = 1e15\nframe.sigma_rad_s = 1e9", "exactly one"),
    ("spacetime.chi = 1.0\nframe.omega0_rad_s = 1e15", "sigma_rad_s"),
    (BASIC + "unknown.key = 3\n", "unrecognized"),
    (BASIC + "sweep.param = bogus\nsweep.start = 0\nsweep.stop = 1\nsweep.count = 2\n", "sweep.param"),
    (BASIC.replace("1.05", "banana"), "not a number"),
    (BASIC + "profile.sigma_tilde = 11\n", "comb"),
    (BASIC + "spacetime.r_a_m = 1e7\n", "together"),
    ("spacetime.chi = 1.0\nno_equals_sign\nframe.omega0_rad_s = 1e15\nframe.sigma_rad_s = 1e9", "key = value"),
])
def test_parse_errors(bad, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_scenario(bad)


@pytest.mark.parametrize("param", ["profile.sigma_tilde", "profile.d_tilde",
                                   "profile.delta_z0"])
def test_comb_only_sweep_on_gaussian_is_refused(param):
    # the swept key would be dropped from every row's Gaussian profile
    text = BASIC + f"sweep.param = {param}\nsweep.start = 10\nsweep.stop = 20\nsweep.count = 3\n"
    with pytest.raises(ConfigError, match=f"{param} is only valid for comb profiles"):
        parse_scenario(text)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scenario(BASIC + "profile.phi_tilde = 3\n")


def test_presets_load():
    names = preset_names()
    assert {"earth-leo", "earth-geo", "earth-surface-lab", "desk-scale"} <= set(names)
    for name in names:
        sc = load_preset(name)
        assert isinstance(sc, Scenario)
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("mars-phobos")


def test_with_param():
    sc = parse_scenario(BASIC)
    sc2 = sc.with_param("profile.phi_tilde", 0.5)
    assert sc2.profile.phi_tilde == 0.5
    sc3 = sc.with_param("spacetime.chi", 1.01)
    assert sc3.chi_override == 1.01


def test_with_param_d_tilde_follows_automatic_n_max_only():
    comb_text = BASIC.replace("gaussian_linear", "comb_linear") + (
        "profile.sigma_tilde = 10\nprofile.d_tilde = 2\n")
    auto = parse_scenario(comb_text)
    assert auto.auto_n_max
    assert auto.with_param("profile.d_tilde", 1.0).profile.n_max == \
        comb(10.0, 1.0).n_max
    assert parse_scenario(dump_scenario(auto)) == auto
    fixed = parse_scenario(comb_text + "profile.n_max = 20\n")
    assert not fixed.auto_n_max
    assert fixed.with_param("profile.d_tilde", 1.0).profile.n_max == 20
    assert parse_scenario(dump_scenario(fixed)) == fixed
