import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravpulse.errors import ValidityError
from gravpulse.multiphoton import (PhotonKind, PhotonStatistics,
                                   coherent_overlap, fock_overlap,
                                   squeezed_overlap, squeezing_parameter)


def test_fock_basics():
    assert fock_overlap(0.87, 1) == 0.87
    assert fock_overlap(1.0, 250) == 1.0
    val = fock_overlap(0.999, 1000)
    assert val == 0.999**1000
    assert val == pytest.approx(math.exp(-1.0), rel=1e-3)
    with pytest.raises(ValidityError):
        fock_overlap(1.2, 3)
    with pytest.raises(ValidityError):
        fock_overlap(0.5, 0)


def test_coherent_law():
    assert coherent_overlap(1.0, 17.0) == 1.0
    assert coherent_overlap(0.5, 0.0) == 1.0
    # Re(Lambda) = 1 - 1e-4 at N = 1e4 gives exactly exp(-1)
    dp = coherent_overlap(1.0 - 1e-4, 1e4)
    assert dp == pytest.approx(math.exp(-1.0), rel=1e-14)
    with pytest.raises(ValidityError):
        coherent_overlap(1.5, 1.0)
    with pytest.raises(ValidityError):
        coherent_overlap(0.5, -1.0)


def test_squeezed_law():
    assert squeezed_overlap(1.0, 123.0) == 1.0
    lam, n = 0.98, 37.0
    dp = squeezed_overlap(lam, n)
    assert dp == pytest.approx(1.0 / (1.0 + 0.5 * (1.0 - lam) * n), rel=1e-14)
    # complex Lambda engages the imaginary term
    dpc = squeezed_overlap(0.9 + 0.1j, 10.0)
    expected = ((1.0 + 0.5 * 0.1 * 10.0) ** 2 + 0.25 * 0.01 * 100.0) ** -0.5
    assert dpc == pytest.approx(expected, rel=1e-14)


def test_squeezed_large_n_asymptote():
    # exact formula approaches 2/((1 - Lambda) N) = 4/N, with a 4/N relative
    # correction from the +1 in the denominator
    lam = 0.5
    for n in (1e3, 1e4, 1e5):
        dp = squeezed_overlap(lam, n)
        assert dp * n == pytest.approx(4.0, rel=5.0 / n)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.999),
       st.integers(min_value=1, max_value=99))
def test_monotone_decay_in_photon_number(lam, n):
    assert fock_overlap(lam, n + 1) <= fock_overlap(lam, n)
    assert coherent_overlap(lam, n + 1) <= coherent_overlap(lam, n)
    assert squeezed_overlap(lam, n + 1) <= squeezed_overlap(lam, n)


def test_consistency_at_single_photon():
    # coherent and Fock agree to first order in the deficit
    eps = 1e-6
    lam = 1.0 - eps
    assert coherent_overlap(lam, 1.0) == pytest.approx(fock_overlap(lam, 1), abs=eps**2 * 2)


def test_photon_statistics_validation():
    PhotonStatistics(PhotonKind.FOCK, 3)
    PhotonStatistics(PhotonKind.COHERENT, 2.5)
    with pytest.raises(ValidityError):
        PhotonStatistics(PhotonKind.FOCK, 2.5)
    with pytest.raises(ValidityError):
        PhotonStatistics(PhotonKind.SQUEEZED, -1.0)


@pytest.mark.parametrize("kind", list(PhotonKind), ids=lambda k: k.value)
@pytest.mark.parametrize("n_mean", [math.nan, math.inf, -math.inf])
def test_photon_statistics_refuses_nonfinite_n_mean(kind, n_mean):
    with pytest.raises(ValidityError, match="finite"):
        PhotonStatistics(kind, n_mean)


def test_squeezing_parameter_roundtrip():
    for n in (0.5, 2.0, 40.0):
        s = squeezing_parameter(n)
        assert 2.0 * math.sinh(s) ** 2 == pytest.approx(n, rel=1e-12)
