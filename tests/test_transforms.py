import numpy as np
import pytest

from spikecca import (
    BranchError,
    DimensionRatios,
    DomainError,
    component_r_transform,
    component_stieltjes,
    f,
    m1,
    m2,
    mp_stieltjes,
    varrho,
    wachter_edges,
)

COMPONENTS = ("e1", "h1", "e2", "h2")


@pytest.fixture
def ratios():
    # c1 > c2 orientation: the inverse component ensembles exist
    return DimensionRatios(0.2, 0.1)


# -- base Marchenko-Pastur transform ------------------------------------------


def test_mp_tail_behavior():
    for omega in (-1e6, -1e8):
        assert abs(omega * mp_stieltjes(omega, 0.1) + 1.0) < 1e-5


def test_mp_fixed_point_residual():
    for c in (0.1, 0.5, 0.9, 2.0):
        for omega in (-1.0, -0.3, 8.0, 2.5 + 1.0j, -0.2 + 0.4j):
            s = mp_stieltjes(omega, c)
            residual = c * omega * s * s + (omega - (1.0 - c)) * s + 1.0
            assert abs(residual) < 1e-12


def test_mp_matches_wishart_simulation():
    rng = np.random.default_rng(7)
    p, n, c = 200, 2000, 0.1
    G = rng.standard_normal((p, n))
    lam = np.linalg.eigvalsh(G @ G.T / n)
    empirical = float(np.mean(1.0 / (lam - (-1.0))))
    assert abs(empirical - mp_stieltjes(-1.0, c)) < 0.01


def test_mp_value_at_origin():
    # E[1/lambda] = 1/(1-c) for the ratio-c law; the rationalized form is
    # exact at the removable point omega = 0
    for c in (0.1, 0.4, 0.8):
        assert mp_stieltjes(0.0, c) == pytest.approx(1.0 / (1.0 - c), abs=1e-14)


def test_mp_branch_error_on_support():
    with pytest.raises(BranchError):
        mp_stieltjes(1.0, 0.1)


def test_mp_conjugate_symmetry():
    for omega in (0.5 + 0.2j, -1.0 + 1.5j):
        a = mp_stieltjes(np.conjugate(omega), 0.3)
        assert abs(np.conjugate(mp_stieltjes(omega, 0.3)) - a) < 1e-14


# -- component transforms -------------------------------------------------------


def test_component_e1_defining_quadratic(ratios):
    c1, c2 = ratios.c1, ratios.c2
    z = 1.5
    for omega in (-0.5, -2.0, 0.3 + 0.2j, -0.4 + 1.0j):
        s = component_stieltjes("e1", omega, z, ratios)
        residual = (1 - z) * c1 * omega * s * s + (omega - (1 - z) * (c2 - c1)) * s + 1.0
        assert abs(residual) < 1e-12


def test_component_h1_defining_quadratic(ratios):
    # -z*H is a scaled ratio-c1/(1-c2) ensemble; same quadratic with its scale
    c1, c2 = ratios.c1, ratios.c2
    z = 1.5
    scale = -z * (1 - c2)
    base = c1 / (1 - c2)
    for omega in (1.0, 0.5 + 0.3j):
        s = component_stieltjes("h1", omega, z, ratios)
        residual = base * scale * omega * s * s + (omega - scale * (1 - base)) * s + 1.0
        assert abs(residual) < 1e-12


def test_blue_function_round_trips(ratios):
    # -s(K(w)) = w with K(w) = R(w) + 1/w, for small w on either side of 0;
    # e2's transform has a branch point just below zero, so it gets a closer w
    z = 1.5
    probe = {
        "e1": (-0.05, 0.05),
        "h1": (-0.05, 0.05),
        "e2": (-0.01, 0.05),
        "h2": (-0.05, 0.05),
    }
    for which in COMPONENTS:
        for omega in probe[which]:
            K = component_r_transform(which, omega, z, ratios) + 1.0 / omega
            s = component_stieltjes(which, K, z, ratios)
            assert abs(-s - omega) < 1e-10, which


def test_r_transform_means(ratios):
    c1, c2 = ratios.c1, ratios.c2
    z = 1.5
    assert component_r_transform("e1", 0.0, z, ratios) == pytest.approx((1 - z) * c2, abs=1e-14)
    assert component_r_transform("h1", 0.0, z, ratios) == pytest.approx(-z * (1 - c2), abs=1e-14)
    assert component_r_transform("e2", 0.0, z, ratios) == pytest.approx(-z / (c1 - c2), abs=1e-14)
    assert component_r_transform("h2", 0.0, z, ratios) == pytest.approx(
        (1 - z) / (1 - c1 - c2), abs=1e-14
    )


def test_component_e1_matches_simulation():
    # resolvent trace of (1-z) * (scaled projected Wishart) at a real omega
    z, omega = 1.5, 1.0
    rng = np.random.default_rng(12)
    p, q, n = 300, 150, 1500
    traces = []
    for _ in range(5):
        G = rng.standard_normal((p, q))
        E = G @ G.T / n
        lam = np.linalg.eigvalsh((1 - z) * E)
        traces.append(np.mean(1.0 / (lam - omega)))
    ratios = DimensionRatios(p / n, q / n)
    assert abs(np.mean(traces) - component_stieltjes("e1", omega, z, ratios)) < 0.01


def test_r_h2_mean_matches_simulation():
    # mean of (1-z) * inverse of the q-side residual ensemble
    z = 1.5
    rng = np.random.default_rng(3)
    q, n, p = 200, 2200, 400
    reps = []
    for _ in range(5):
        G = rng.standard_normal((q, n - p))
        HH = G @ G.T / n
        reps.append((1 - z) * np.trace(np.linalg.inv(HH)) / q)
    ratios = DimensionRatios(p / n, q / n)
    assert abs(np.mean(reps) - component_r_transform("h2", 0.0, z, ratios)) < 0.02


def test_component_conjugate_symmetry(ratios):
    z = 1.5
    omega = 0.12 + 0.3j
    for which in COMPONENTS:
        a = component_stieltjes(which, omega.conjugate(), z, ratios)
        b = np.conjugate(component_stieltjes(which, omega, z, ratios))
        assert abs(a - b) < 1e-13
    # e2's R-transform just off its branch cut, where the root's argument is -0.29 + 0.03i
    omega = complex(-1.0, 0.1)
    a = component_r_transform("e2", omega.conjugate(), 0.75, ratios)
    assert a == np.conjugate(component_r_transform("e2", omega, 0.75, ratios))


def test_inverse_components_need_orientation():
    ratios = DimensionRatios(0.1, 0.2)
    with pytest.raises(DomainError):
        component_stieltjes("e2", 0.05, 1.5, ratios)
    with pytest.raises(DomainError):
        component_r_transform("e2", 0.05, 1.5, ratios)


def test_unknown_component(ratios):
    with pytest.raises(DomainError):
        component_stieltjes("zz", 0.1, 1.5, ratios)


def test_component_branch_error_on_support(ratios):
    # for z > 1 the e1 ensemble lives on the negative axis near zero
    with pytest.raises(BranchError):
        component_stieltjes("e1", -0.1, 1.5, ratios)
    # e2's R-transform takes the square root of -0.29 there, real or complex
    for omega in (-1.0, complex(-1.0, 0.0)):
        with pytest.raises(BranchError):
            component_r_transform("e2", omega, 0.75, ratios)


# -- resolvent traces m1, m2 -----------------------------------------------------


@pytest.mark.parametrize("c1, c2", [(0.1, 0.2), (0.2, 0.1), (0.35, 0.15)])
def test_m1_quadratic_residual(c1, c2):
    ratios = DimensionRatios(c1, c2)
    d_right = wachter_edges(ratios).d_right
    for z in np.linspace(d_right + 0.01, 2.0, 120):
        m = m1(z, ratios)
        residual = z * (1 - z) * (c1 * c1 - c1) * m * m + (c2 - c1 + 2 * z * c1 - z) * m - 1.0
        assert abs(residual) < 1e-12


@pytest.mark.parametrize("c1, c2", [(0.1, 0.2), (0.2, 0.1)])
def test_f_equals_scaled_m1(c1, c2):
    ratios = DimensionRatios(c1, c2)
    d_right = wachter_edges(ratios).d_right
    for z in np.linspace(d_right + 0.01, 2.0, 120):
        assert abs(f(z, ratios) - (1.0 - z) * m1(z, ratios)) < 1e-12


@pytest.mark.parametrize("c1, c2", [(0.1, 0.2), (0.2, 0.1)])
def test_varrho_equals_m2(c1, c2):
    ratios = DimensionRatios(c1, c2)
    d_right = wachter_edges(ratios).d_right
    for z in np.linspace(d_right + 0.01, 2.0, 120):
        assert abs(varrho(z, ratios) - m2(z, ratios)) < 1e-12


def test_m1_finite_through_removable_point():
    ratios = DimensionRatios(0.1, 0.2)
    # the quadratic degenerates to a linear equation at z = 1
    assert m1(1.0, ratios) == pytest.approx(-1.0 / (1.0 - 0.1 - 0.2), abs=1e-12)


def test_m_domain_errors():
    ratios = DimensionRatios(0.1, 0.2)
    for z in (0.3, 0.5, wachter_edges(ratios).d_right, float("nan")):
        with pytest.raises(DomainError):
            m1(z, ratios)
        with pytest.raises(DomainError):
            m2(z, ratios)
