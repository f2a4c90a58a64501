"""Deterministic limit theory for squared sample canonical correlations.

Under independence the spectrum of the sample canonical correlation matrix
fills a bulk on [d_left, d_right] (a MANOVA-type law).  A spike r produces an
eigenvalue separating from the bulk exactly when r exceeds a critical value
r_c, in which case the eigenvalue converges to gamma(r) > d_right; inverting
gamma on the supercritical range yields a consistent estimator of r.

This module holds every closed form involved: the bulk density/cdf and its
edges, the critical threshold, the outlier map and its inverse, the complex
square-root factor ell(z) with its companion functions h, f, varrho, the
scalar factor whose root locates an outlier, and the Stieltjes/R-transform
stack (a Marchenko-Pastur base transform plus four derived component
transforms, and the resolvent traces m1, m2) used to cross-check f and varrho
against an independent derivation.  Only :func:`bulk_mass` integrates
numerically, to check the density's normalization; it imports
``scipy.integrate`` itself, so importing this module does not.

Square-root branches follow one convention: on the real axis outside the
support the value is real, with sign fixed by sqrt(...)/z -> 1 as z -> inf;
off the axis the analytic continuation is the product of the two principal
square roots of the linear factors, which is holomorphic off the support.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BelowThresholdError, BranchError, DomainError
from .model import DimensionRatios


@dataclass(frozen=True)
class WachterLaw:
    """Support edges of the bulk law for given dimension ratios."""

    d_left: float
    d_right: float


@dataclass(frozen=True)
class PhaseTransition:
    """Critical spike size r_c and the matching signal strength t_c."""

    r_c: float
    t_c: float


def wachter_edges(ratios: DimensionRatios) -> WachterLaw:
    """Bulk support edges d_left/d_right = c1 + c2 - 2 c1 c2 -/+ 2 sqrt(c1 c2 (1-c1)(1-c2)).

    d_left is taken from the product of the edges, d_left d_right = (c1 - c2)^2:
    the difference cancels, the quotient does not, so d_left >= 0 and is
    exactly 0 at c1 == c2.
    """
    c1, c2 = ratios.c1, ratios.c2
    d_right = c1 + c2 - 2.0 * c1 * c2 + 2.0 * math.sqrt(c1 * c2 * (1.0 - c1) * (1.0 - c2))
    return WachterLaw(d_left=(c1 - c2) ** 2 / d_right, d_right=d_right)


def beyond_edge(z: float, ratios: DimensionRatios) -> float:
    """z as a float, checked to lie beyond the bulk edge: z > d_right.

    Raises :class:`DomainError` otherwise, and for NaN.
    """
    z = float(z)
    d_right = wachter_edges(ratios).d_right
    if not z > d_right:
        raise DomainError(f"need z > d_right = {d_right}, got {z}")
    return z


def wachter_density(x: float, ratios: DimensionRatios) -> float:
    """Bulk density at x; zero outside the support.

    The normalization counts the min(p, q) eigenvalues of the smaller-side
    matrix, so the prefactor uses min(c1, c2); with that choice the density
    integrates to one for either orientation of the ratios.
    """
    law = wachter_edges(ratios)
    x = float(x)
    if math.isnan(x):
        raise DomainError("density argument is NaN")
    if x < law.d_left or x > law.d_right:
        return 0.0
    if x == 0.0 or x == 1.0:
        # reachable only in the degenerate case where a support edge touches
        # 0 or 1 and the denominator x(1-x) vanishes there
        raise DomainError(f"density is singular at x = {x}")
    c_min = min(ratios.c1, ratios.c2)
    num = math.sqrt((law.d_right - x) * (x - law.d_left))
    return num / (2.0 * math.pi * c_min * x * (1.0 - x))


def wachter_cdf(x: float, ratios: DimensionRatios) -> float:
    """Bulk distribution function, in closed form.

    With a = d_left and b = d_right, splitting 1/(x(1-x)) into
    1/x + 1/(1-x) and substituting x = (a+b)/2 - ((b-a)/2) cos(phi) leaves
    arctangents of h = tan(phi/2).  sqrt(ab) = |c1 - c2| and
    sqrt((1-a)(1-b)) = 1 - c1 - c2, so F -> 1 at d_right; atan2 keeps
    c1 = c2 (a = 0) free of a division by zero.
    """
    law = wachter_edges(ratios)
    x = float(x)
    if math.isnan(x):
        raise DomainError("distribution function argument is NaN")
    if x <= law.d_left:
        return 0.0
    if x >= law.d_right:
        return 1.0
    a, b = law.d_left, law.d_right
    h = math.sqrt((x - a) / (b - x))
    ra, rb, sa, sb = math.sqrt(a), math.sqrt(b), math.sqrt(1.0 - a), math.sqrt(1.0 - b)
    value = math.atan(h) - ra * rb * math.atan2(rb * h, ra) - sa * sb * math.atan2(sb * h, sa)
    value /= math.pi * min(ratios.c1, ratios.c2)
    return min(max(value, 0.0), 1.0)


def critical_threshold(ratios: DimensionRatios) -> PhaseTransition:
    """Phase transition: spikes above r_c produce outliers, smaller ones do not.

    r_c = (c1 c2 + s) / ((1-c1)(1-c2) + s) with s = sqrt(c1 c2 (1-c1)(1-c2)),
    and t_c = sqrt((c1 c2 + s) / (1 - c1 - c2)) is the matching strength, so
    that r_c = t_c^2 / (1 + t_c^2).
    """
    c1, c2 = ratios.c1, ratios.c2
    s = math.sqrt(c1 * c2 * (1.0 - c1) * (1.0 - c2))
    r_c = (c1 * c2 + s) / ((1.0 - c1) * (1.0 - c2) + s)
    t_c = math.sqrt((c1 * c2 + s) / (1.0 - c1 - c2))
    return PhaseTransition(r_c=r_c, t_c=t_c)


def gamma_map(r: float, ratios: DimensionRatios) -> float:
    """Almost-sure limit gamma(r) = r (1 - c1 + c1/r)(1 - c2 + c2/r) of a supercritical outlier.

    Defined for any r in (0, 1]; it equals d_right at r = r_c and exceeds it
    for r > r_c.  gamma(1) = 1.
    """
    r = float(r)
    if not (0.0 < r <= 1.0):
        raise DomainError(f"spike must lie in (0, 1], got {r}")
    c1, c2 = ratios.c1, ratios.c2
    return r * (1.0 - c1 + c1 / r) * (1.0 - c2 + c2 / r)


def gamma_inverse(lam: float, ratios: DimensionRatios) -> float:
    """Unique r in (r_c, 1] with gamma_map(r) == lam, for lam in (d_right, 1].

    Writing u = 1/t^2 turns gamma(r) = lam into the quadratic
    c1 c2 u^2 + (c1 + c2 - lam) u + (1 - lam) = 0.  The outlier map is
    strictly decreasing in u on [0, 1/t_c^2), so the qualifying root is the
    one in that interval: for lam in (d_right, 1] both roots are positive and
    straddle 1/t_c^2 (a double root at lam = d_right), so it is the smaller,
    computed stably via the product of roots.  Then r = 1 / (1 + u).
    """
    lam = float(lam)
    if not lam <= 1.0:
        raise DomainError(f"squared correlation must be a number at most 1, got {lam}")
    law = wachter_edges(ratios)
    if lam <= law.d_right:
        raise BelowThresholdError(
            f"eigenvalue {lam} does not exceed the bulk edge {law.d_right}: "
            "no consistent estimate exists below the detection threshold"
        )
    c1, c2 = ratios.c1, ratios.c2
    a = c1 * c2
    disc = (c1 + c2 - lam) ** 2 - 4.0 * a * (1.0 - lam)
    if disc < 0.0:
        disc = 0.0
    u_large = ((lam - c1 - c2) + math.sqrt(disc)) / (2.0 * a)
    return 1.0 / (1.0 + (1.0 - lam) / (a * u_large))


def _edge_sqrt(z, lo: float, hi: float):
    """sqrt((z - lo)(z - hi)) with the branch fixed by sqrt(...)/z -> 1 at infinity.

    Real for real z outside [lo, hi] (positive to the right, negative to the
    left); for complex z the product of principal square roots of the two
    linear factors, holomorphic off the support.
    """
    if isinstance(z, complex) and z.imag != 0.0:
        return cmath.sqrt(z - lo) * cmath.sqrt(z - hi)
    x = z.real if isinstance(z, complex) else float(z)
    if x >= hi:
        return math.sqrt((x - lo) * (x - hi))
    if x <= lo:
        return -math.sqrt((lo - x) * (hi - x))
    raise BranchError(
        f"point {x} lies on the branch cut [{lo}, {hi}]; evaluate off the support"
    )


def ell(z, ratios: DimensionRatios):
    """Edge factor ell(z) = sqrt((z - d_left)(z - d_right)); see :func:`_edge_sqrt`."""
    law = wachter_edges(ratios)
    return _edge_sqrt(z, law.d_left, law.d_right)


def h(z, ratios: DimensionRatios):
    """Companion function h(z) = (c1 + c2 - z + ell(z)) / (2 c2)."""
    c1, c2 = ratios.c1, ratios.c2
    return (c1 + c2 - z + ell(z, ratios)) / (2.0 * c2)


def f(z, ratios: DimensionRatios):
    """Limiting scaled resolvent trace f(z) = ((2c1 - 1) z + (c2 - c1) + ell(z)) / (2 c1 (1 - c1) z)."""
    if z == 0:
        raise DomainError("f has a pole at z = 0")
    c1, c2 = ratios.c1, ratios.c2
    return ((2.0 * c1 - 1.0) * z + (c2 - c1) + ell(z, ratios)) / (
        2.0 * c1 * (1.0 - c1) * z
    )


def varrho(z, ratios: DimensionRatios):
    """Shifted companion varrho(z) = h(z) - c1."""
    return h(z, ratios) - ratios.c1


def limiting_det_factor(z: float, t: float, ratios: DimensionRatios) -> float:
    """Scalar factor 1 + t^2 f(z) - t^2 f(z) h(z) whose root locates an outlier.

    For a supercritical strength t the factor changes sign across
    z = gamma_map(r(t)); for subcritical t it stays away from zero on the
    whole interval (d_right, 1].
    """
    z = beyond_edge(z, ratios)
    fz = f(z, ratios)
    return 1.0 + t * t * fz * (1.0 - h(z, ratios))


# ---------------------------------------------------------------------------
# Stieltjes / R-transform stack
# ---------------------------------------------------------------------------


def mp_stieltjes(omega, c: float):
    """Stieltjes transform of the Marchenko-Pastur law with ratio parameter c.

    Uses the rationalized form 2 / ((1 - c) - omega - g(omega)) with
    g(omega) = sqrt((omega - 1 - c)^2 - 4 c) on the infinity-normalized
    branch; this is exact and avoids the cancellation the textbook quotient
    suffers near omega = 0.  Valid for any c > 0 (for c > 1 the transform
    picks up the point mass at zero automatically).
    """
    if not c > 0.0:
        raise DomainError(f"ratio parameter must be positive, got {c}")
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2
    g = _edge_sqrt(omega, lo, hi)
    return 2.0 / ((1.0 - c) - omega - g)


def _scaled_mp_stieltjes(omega, scale: float, c: float):
    """Stieltjes transform of the law of scale * X with X Marchenko-Pastur(c)."""
    return mp_stieltjes(omega / scale, c) / scale


def _scaled_inverse_mp_stieltjes(omega, outer: float, inner: float, c: float):
    """Stieltjes transform of the law of outer / (inner * X), X Marchenko-Pastur(c).

    Composes s_{1/mu}(w) = -1/w - s_mu(1/w) / w^2 with linear scalings; needs
    c < 1 so the base ensemble is invertible.
    """
    if not c < 1.0:
        raise DomainError(
            f"inverse ensemble needs ratio parameter < 1, got {c}; "
            "this transform requires the c1 > c2 orientation"
        )
    v = omega / outer
    if v == 0:
        raise DomainError("transform has a pole at omega = 0")
    inv = -1.0 / v - _scaled_mp_stieltjes(1.0 / v, inner, c) / (v * v)
    return inv / outer


_COMPONENTS = ("e1", "h1", "e2", "h2")


def component_stieltjes(which: str, omega, z: float, ratios: DimensionRatios):
    """Stieltjes transform of one of the four component ensembles at a real z.

    The components are the limiting spectral laws of, respectively,
    (1-z) * A, -z * B, -z * C^{-1} and (1-z) * D^{-1}, where A, B are the
    p-side Wishart parts with ratio pairs (c1, c2) and (c1, 1-c2), and C, D
    the q-side parts with (c2, c1) and (c2, 1-c1).  All four reduce to the
    Marchenko-Pastur transform under linear scaling and inversion, which is
    how they are evaluated here; branches are inherited from
    :func:`mp_stieltjes`, so each transform is holomorphic off its support.
    The inverse component ``e2`` exists only in the c1 > c2 orientation.
    """
    c1, c2 = ratios.c1, ratios.c2
    if which == "e1":
        return _scaled_mp_stieltjes(omega, (1.0 - z) * c2, c1 / c2)
    if which == "h1":
        return _scaled_mp_stieltjes(omega, -z * (1.0 - c2), c1 / (1.0 - c2))
    if which == "e2":
        return _scaled_inverse_mp_stieltjes(omega, -z, c1, c2 / c1)
    if which == "h2":
        return _scaled_inverse_mp_stieltjes(omega, 1.0 - z, 1.0 - c1, c2 / (1.0 - c1))
    raise DomainError(f"unknown component {which!r}; expected one of {_COMPONENTS}")


def _principal_sqrt(w):
    if isinstance(w, complex):
        if w.imag == 0.0 and w.real < 0.0:
            raise BranchError(f"square-root argument {w} lies on the branch cut")
        return cmath.sqrt(w)
    w = float(w)
    if w < 0.0:
        raise BranchError(f"square-root argument {w} lies on the branch cut")
    return math.sqrt(w)


def component_r_transform(which: str, omega, z: float, ratios: DimensionRatios):
    """R-transform of the same four component ensembles.

    Closed forms:

    * e1:  (1-z) c2 / (1 - (1-z) c1 omega)
    * h1:  -z (1-c2) / (1 + z c1 omega)
    * e2:  (c1 - c2 - sqrt((c1-c2)^2 + 4 z c2 omega)) / (2 c2 omega)
    * h2:  (1 - c1 - c2 - sqrt((1-c1-c2)^2 + 4 (z-1) c2 omega)) / (2 c2 omega)

    The square-root signs make R(0) equal the mean of each law; at omega = 0
    the e2/h2 forms are evaluated by their analytic limits -z / (c1 - c2) and
    (1-z) / (1 - c1 - c2).
    """
    c1, c2 = ratios.c1, ratios.c2
    if which == "e1":
        return (1.0 - z) * c2 / (1.0 - (1.0 - z) * c1 * omega)
    if which == "h1":
        return -z * (1.0 - c2) / (1.0 + z * c1 * omega)
    if which == "e2":
        if not c1 > c2:
            raise DomainError("component e2 requires the c1 > c2 orientation")
        if omega == 0:
            return -z / (c1 - c2)
        root = _principal_sqrt((c1 - c2) ** 2 + 4.0 * z * c2 * omega)
        return (c1 - c2 - root) / (2.0 * c2 * omega)
    if which == "h2":
        if omega == 0:
            return (1.0 - z) / (1.0 - c1 - c2)
        root = _principal_sqrt((1.0 - c1 - c2) ** 2 + 4.0 * (z - 1.0) * c2 * omega)
        return (1.0 - c1 - c2 - root) / (2.0 * c2 * omega)
    raise DomainError(f"unknown component {which!r}; expected one of {_COMPONENTS}")


def m1(z: float, ratios: DimensionRatios) -> float:
    """Resolvent trace m1(z): root of z(1-z)(c1^2-c1) m^2 + (c2-c1+2zc1-z) m - 1 = 0.

    Evaluated as m1 = 2 / (b - ell(z)) with b = c2 - c1 + 2 z c1 - z, the
    algebraically identical form of the closed-form root that stays finite
    through the removable point z = 1.  Satisfies f(z) = (1 - z) m1(z).
    """
    z = beyond_edge(z, ratios)
    c1, c2 = ratios.c1, ratios.c2
    b = c2 - c1 + 2.0 * z * c1 - z
    return 2.0 / (b - ell(z, ratios))


def m2(z: float, ratios: DimensionRatios) -> float:
    """Resolvent trace m2(z) = (c1 + c2 - 2 c1 c2 - z + ell(z)) / (2 c2).

    Satisfies varrho(z) = m2(z).
    """
    z = beyond_edge(z, ratios)
    c1, c2 = ratios.c1, ratios.c2
    return (c1 + c2 - 2.0 * c1 * c2 - z + ell(z, ratios)) / (2.0 * c2)


def bulk_mass(ratios: DimensionRatios) -> float:
    """Total mass of the bulk density by adaptive quadrature.

    Independent of the closed form of :func:`wachter_cdf`.  The support [a, b]
    has a and d = 1 - b in cancellation-free form (a is exactly 0 at c1 == c2).
    With x = a + (b - a) sin^2(phi/2) folded onto phi in [0, pi/2] the integrand
    is bounded, and the pole at x = 0 (gap a) or 1 (gap d) makes a dip near
    2 asin(sqrt(gap / (b - a))): breakpoints there and at 16-fold multiples.
    """
    from scipy import integrate  # about 0.2 s to import; no CLI command needs it

    c1, c2 = ratios.c1, ratios.c2
    a = wachter_edges(ratios).d_left
    d = ((1.0 - c1 - c2) / (math.sqrt((1.0 - c1) * (1.0 - c2)) + math.sqrt(c1 * c2))) ** 2
    width = 4.0 * math.sqrt(c1 * (1.0 - c1)) * math.sqrt(c2 * (1.0 - c2))
    scale = width / (2.0 * math.pi * min(c1, c2)) * width

    def integrand(phi: float) -> float:
        s, t = math.sin(phi / 2.0) ** 2, math.cos(phi / 2.0) ** 2
        return scale * s * t * (1.0 / ((a + width * s) * (d + width * t))
                                + 1.0 / ((a + width * t) * (d + width * s)))

    points = []
    for gap in (a, d):
        phi = 2.0 * math.asin(math.sqrt(min(gap / width, 1.0)))
        while 0.0 < phi < math.pi / 2.0:
            points.append(phi)
            phi *= 16.0
    value, _ = integrate.quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-10, epsrel=1e-10,
                              limit=200 + len(points), points=points or None)
    return value
