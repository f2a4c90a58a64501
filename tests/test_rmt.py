import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.optimize import brentq

from spikecca import (
    BelowThresholdError,
    BranchError,
    DimensionRatios,
    DomainError,
    bulk_mass,
    critical_threshold,
    ell,
    f,
    gamma_inverse,
    gamma_map,
    h,
    limiting_det_factor,
    spike_to_t,
    wachter_cdf,
    wachter_density,
    wachter_edges,
)


@pytest.fixture
def ratios():
    return DimensionRatios(0.1, 0.2)


def _random_ratios(rng):
    while True:
        c1 = rng.uniform(0.02, 0.9)
        c2 = rng.uniform(0.02, 0.9)
        if c1 + c2 < 0.98 and c1 != c2:
            return DimensionRatios(c1, c2)


# -- edges ------------------------------------------------------------------


def test_edges_figure_values(ratios):
    law = wachter_edges(ratios)
    assert abs(law.d_right - 0.5) < 1e-12
    assert abs(law.d_left - 0.02) < 1e-12


def test_edge_width_identity():
    rng = np.random.default_rng(0)
    for _ in range(25):
        r = _random_ratios(rng)
        law = wachter_edges(r)
        width = 4.0 * math.sqrt(r.c1 * r.c2 * (1 - r.c1) * (1 - r.c2))
        assert abs((law.d_right - law.d_left) - width) < 1e-12
        assert 0.0 <= law.d_left < law.d_right <= 1.0


def test_edges_symmetric_in_ratios():
    rng = np.random.default_rng(1)
    for _ in range(10):
        r = _random_ratios(rng)
        law = wachter_edges(r)
        law_swapped = wachter_edges(DimensionRatios(r.c2, r.c1))
        assert law.d_left == pytest.approx(law_swapped.d_left, abs=1e-15)
        assert law.d_right == pytest.approx(law_swapped.d_right, abs=1e-15)


def test_equal_ratios_collapse_lower_edge():
    r = DimensionRatios(0.3, 0.3)
    assert abs(wachter_edges(r).d_left) < 1e-12


def _left_edge_reference(c1, c2):
    # the difference form base - cross, which cancels in doubles but not at 50 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b = decimal.Decimal(c1), decimal.Decimal(c2)
        return a + b - 2 * a * b - 2 * (a * b * (1 - a) * (1 - b)).sqrt()


@pytest.mark.parametrize("c1", [0.001, 0.1, 0.3, 0.45])
def test_left_edge_accurate_near_equal_ratios(c1):
    for c2 in (c1, math.nextafter(c1, 1.0), c1 * (1 + 1e-12), c1 * (1 + 1e-8), 1.1 * c1):
        if not c1 + c2 < 1.0:
            continue
        d_left = wachter_edges(DimensionRatios(c1, c2)).d_left
        assert d_left >= 0.0
        if c2 == c1:
            assert d_left == 0.0
            continue
        reference = _left_edge_reference(c1, c2)
        assert float(abs(decimal.Decimal(d_left) - reference) / reference) <= 1e-15


# -- density and cdf ---------------------------------------------------------


def test_density_zero_outside_support(ratios):
    assert wachter_density(0.01, ratios) == 0.0
    assert wachter_density(0.7, ratios) == 0.0
    assert wachter_density(-1.0, ratios) == 0.0


def test_density_positive_inside(ratios):
    law = wachter_edges(ratios)
    for x in np.linspace(law.d_left + 1e-6, law.d_right - 1e-6, 50):
        assert wachter_density(x, ratios) > 0.0


def test_density_mass_is_one(ratios):
    assert abs(bulk_mass(ratios) - 1.0) < 1e-6


def test_density_mass_swapped_orientation(ratios):
    assert abs(bulk_mass(DimensionRatios(ratios.c2, ratios.c1)) - 1.0) < 1e-6


@pytest.mark.parametrize("c1", [0.001, 0.1, 0.25, 0.3, 0.45, 0.49])
def test_density_mass_at_equal_and_near_equal_ratios(c1):
    # the left edge tends to the density's pole at 0 as c2 -> c1, and the right
    # edge to its pole at 1 as c1 + c2 -> 1: c1 == c2 used to divide by zero
    for c2 in (c1, math.nextafter(c1, 1.0), c1 * (1 + 1e-12), c1 * (1 + 1e-8),
               c1 * (1 + 1e-6), c1 * (1 + 1e-4), 1.1 * c1, 0.5 * c1, 1.0 - c1 - 1e-8):
        if c1 + c2 < 1.0:
            assert abs(bulk_mass(DimensionRatios(c1, c2)) - 1.0) < 1e-8


def test_cdf_endpoints(ratios):
    law = wachter_edges(ratios)
    assert wachter_cdf(law.d_left, ratios) == 0.0
    assert wachter_cdf(law.d_right, ratios) == 1.0
    assert wachter_cdf(-5.0, ratios) == 0.0
    assert wachter_cdf(5.0, ratios) == 1.0


def test_cdf_monotone(ratios):
    grid = np.linspace(0.0, 0.6, 80)
    values = [wachter_cdf(x, ratios) for x in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cdf_median_round_trip(ratios):
    law = wachter_edges(ratios)
    median = brentq(
        lambda x: wachter_cdf(x, ratios) - 0.5, law.d_left, law.d_right, xtol=1e-13
    )
    assert abs(wachter_cdf(median, ratios) - 0.5) < 1e-8


@pytest.mark.parametrize(
    "c1, c2",
    [(0.1, 0.2), (0.2, 0.1), (0.3, 0.3), (0.2, 0.21), (0.45, 0.5), (0.001, 0.002), (0.05, 0.6)],
)
def test_cdf_closed_form_matches_quadrature(c1, c2):
    # the closed form against an adaptive quadrature of the density, c1 = c2 included
    ratios = DimensionRatios(c1, c2)
    law = wachter_edges(ratios)
    for x in np.linspace(law.d_left, law.d_right, 41)[1:-1]:
        value, _ = integrate.quad(
            wachter_density, law.d_left, x, args=(ratios,), epsabs=1e-14, epsrel=1e-13, limit=200
        )
        assert abs(wachter_cdf(x, ratios) - value) < 1e-10


def test_cdf_zero_at_and_below_an_equal_ratio_left_edge():
    # at c1 = c2 the left edge is exactly 0, and the law has no mass at or below it
    ratios = DimensionRatios(0.0032421210605302654, 0.0032421210605302654)
    assert wachter_edges(ratios).d_left == 0.0
    assert wachter_cdf(0.0, ratios) == 0.0
    assert wachter_cdf(-1e-300, ratios) == 0.0


def test_cdf_midpoint_regression(ratios):
    # value pinned from an independent algebraic-weight quadrature oracle
    assert wachter_cdf(0.26, ratios) == pytest.approx(0.6808121551677757, abs=1e-6)


# -- critical threshold -------------------------------------------------------


def test_threshold_figure_value(ratios):
    crit = critical_threshold(ratios)
    assert abs(crit.r_c - 1.0 / 6.0) < 1e-12
    assert round(crit.r_c, 2) == 0.17


def test_threshold_cross_identity():
    rng = np.random.default_rng(2)
    for _ in range(25):
        r = _random_ratios(rng)
        crit = critical_threshold(r)
        assert abs(crit.r_c - crit.t_c**2 / (1.0 + crit.t_c**2)) < 1e-12


def test_threshold_equal_ratio_simplification():
    r = DimensionRatios(0.2, 0.2)
    assert critical_threshold(r).r_c == pytest.approx(0.2 / 0.8, abs=1e-12)


def test_threshold_monotone_in_each_ratio():
    values = [critical_threshold(DimensionRatios(c1, 0.2)).r_c for c1 in np.linspace(0.05, 0.7, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))
    values = [critical_threshold(DimensionRatios(0.1, c2)).r_c for c2 in np.linspace(0.05, 0.7, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- outlier map ---------------------------------------------------------------


def test_gamma_caption_values(ratios):
    # exact fraction oracles for the three supercritical spikes
    gamma_07 = Fraction(7, 10) * Fraction(73, 70) * Fraction(76, 70)
    gamma_06 = Fraction(3, 5) * Fraction(16, 15) * Fraction(17, 15)
    assert gamma_map(0.8, ratios) == pytest.approx(0.861, abs=1e-10)
    assert gamma_map(0.7, ratios) == pytest.approx(float(gamma_07), abs=1e-10)
    assert gamma_map(0.6, ratios) == pytest.approx(float(gamma_06), abs=1e-10)
    assert round(gamma_map(0.8, ratios), 2) == 0.86
    assert round(gamma_map(0.7, ratios), 2) == 0.79
    assert round(gamma_map(0.6, ratios), 2) == 0.73


def test_gamma_unit_spike(ratios):
    assert gamma_map(1.0, ratios) == 1.0


def test_gamma_at_threshold_meets_edge():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = _random_ratios(rng)
        crit = critical_threshold(r)
        law = wachter_edges(r)
        assert abs(gamma_map(crit.r_c, r) - law.d_right) < 1e-10


def test_gamma_dominates_edge_with_equality_only_at_threshold(ratios):
    law = wachter_edges(ratios)
    crit = critical_threshold(ratios)
    for r in np.linspace(0.005, 1.0, 400):
        gap = gamma_map(r, ratios) - law.d_right
        assert gap > -1e-12
        if abs(r - crit.r_c) > 0.05:
            assert gap > 1e-4


def test_gamma_below_one_on_supercritical_range(ratios):
    crit = critical_threshold(ratios)
    for r in np.linspace(crit.r_c + 1e-3, 0.999, 300):
        assert gamma_map(r, ratios) < 1.0


def test_gamma_strictly_increasing_past_threshold(ratios):
    crit = critical_threshold(ratios)
    grid = np.linspace(crit.r_c + 1e-3, 1.0, 400)
    values = [gamma_map(r, ratios) for r in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gamma_symmetric_in_ratios(ratios):
    for r in (0.3, 0.6, 0.95):
        assert gamma_map(r, ratios) == pytest.approx(gamma_map(r, DimensionRatios(ratios.c2, ratios.c1)), abs=1e-15)


@pytest.mark.parametrize("r", [0.0, -0.5, 1.0001])
def test_gamma_domain(r, ratios):
    with pytest.raises(DomainError):
        gamma_map(r, ratios)


def test_gamma_inverse_round_trip(ratios):
    crit = critical_threshold(ratios)
    for r in np.linspace(crit.r_c + 0.01, 0.9999, 500):
        assert abs(gamma_inverse(gamma_map(r, ratios), ratios) - r) < 1e-12


def test_gamma_inverse_caption_value(ratios):
    assert gamma_inverse(0.8610, ratios) == pytest.approx(0.8, abs=1e-6)


def test_gamma_inverse_unit(ratios):
    assert gamma_inverse(1.0, ratios) == 1.0


def test_gamma_inverse_below_threshold(ratios):
    law = wachter_edges(ratios)
    with pytest.raises(BelowThresholdError):
        gamma_inverse(law.d_right, ratios)
    with pytest.raises(BelowThresholdError):
        gamma_inverse(0.3, ratios)


def test_gamma_inverse_above_one(ratios):
    with pytest.raises(DomainError):
        gamma_inverse(1.1, ratios)


@pytest.mark.parametrize("function", [gamma_inverse, wachter_density, wachter_cdf])
def test_nan_argument_is_a_domain_error(function, ratios):
    with pytest.raises(DomainError):
        function(float("nan"), ratios)


@pytest.mark.parametrize("offset", [1e-9, 1e-12, 0.0], ids=["1e-9", "1e-12", "next-float"])
def test_gamma_inverse_just_above_edge(ratios, offset):
    # eigenvalues barely over the edge map to spikes barely over threshold; at the
    # next float above d_right, the double root of gamma(r) = lam, r may round below r_c.
    # At (p, q, n) = (29, 67, 100) that root's discriminant rounds below 0 and is clamped
    for ratios in (ratios, DimensionRatios(0.29, 0.67)):
        crit = critical_threshold(ratios)
        law = wachter_edges(ratios)
        lam = law.d_right + offset if offset else math.nextafter(law.d_right, 1.0)
        r = gamma_inverse(lam, ratios)
        assert crit.r_c - 1e-14 <= r < crit.r_c + 1e-3
        assert abs(gamma_map(r, ratios) - lam) <= 1e-12
        if offset:
            assert crit.r_c < r
        elif ratios.c1 == 0.29:
            c1, c2 = ratios.c1, ratios.c2
            assert (c1 + c2 - lam) ** 2 - 4.0 * c1 * c2 * (1.0 - lam) < 0.0


# -- edge factor and companions ------------------------------------------------


def test_ell_vanishes_at_edges(ratios):
    law = wachter_edges(ratios)
    assert ell(law.d_right, ratios) == 0.0
    assert ell(law.d_left, ratios) == 0.0


def test_ell_branch_error_inside_support(ratios):
    with pytest.raises(BranchError):
        ell(0.3, ratios)


def test_ell_real_and_signed_off_support(ratios):
    assert ell(0.8, ratios) > 0.0
    assert ell(-0.5, ratios) < 0.0


def test_ell_normalized_at_infinity(ratios):
    for z in (1e6, -1e6, complex(0.0, 1e6)):
        assert abs(ell(z, ratios) / z - 1.0) < 1e-5


def test_ell_conjugate_symmetry(ratios):
    for z in (0.4 + 0.3j, -0.2 + 1.0j, 0.9 + 0.05j):
        assert abs(ell(np.conjugate(z), ratios) - np.conjugate(ell(z, ratios))) < 1e-14


def test_outlier_equation_root(ratios):
    # 1 + t^2 f - t^2 f h vanishes exactly at gamma(r) for supercritical r
    crit = critical_threshold(ratios)
    for r in np.linspace(crit.r_c + 0.02, 0.98, 60):
        t = spike_to_t(r)
        z = gamma_map(r, ratios)
        assert abs(limiting_det_factor(z, t, ratios)) < 1e-10


def test_edge_factor_linear_identity(ratios):
    # z - (c1 + c2) - ell(z) equals 2 c1 c2 / t^2 at z = gamma(r)
    crit = critical_threshold(ratios)
    c1, c2 = ratios.c1, ratios.c2
    for r in np.linspace(crit.r_c + 0.02, 0.98, 60):
        t = spike_to_t(r)
        z = gamma_map(r, ratios)
        assert abs(z - (c1 + c2) - ell(z, ratios) - 2.0 * c1 * c2 / t**2) < 1e-10


def test_det_factor_no_perturbation(ratios):
    for z in (0.55, 0.8, 1.5):
        assert limiting_det_factor(z, 0.0, ratios) == 1.0


def test_det_factor_subcritical_has_no_root(ratios):
    crit = critical_threshold(ratios)
    t = 0.8 * crit.t_c
    values = [
        limiting_det_factor(z, t, ratios) for z in np.linspace(0.5 + 1e-4, 1.0, 400)
    ]
    assert min(values) > 0.1


def test_det_factor_domain(ratios):
    for z in (0.4, wachter_edges(ratios).d_right, float("nan")):
        with pytest.raises(DomainError):
            limiting_det_factor(z, 1.0, ratios)


def test_companions_real_beyond_edge(ratios):
    for z in np.linspace(0.51, 2.0, 30):
        assert isinstance(ell(z, ratios), float)
        assert isinstance(h(z, ratios), float)
        assert isinstance(f(z, ratios), float)
