"""Sample covariances and squared sample canonical correlations.

The stable path never inverts a covariance block.  It reads only a
:class:`~spikecca.sampler.JointFactor`, a pair's cached one or one streamed
by :func:`~spikecca.sampler.sample_factor` under either construction (coupled,
or joint-covariance for unit spikes): the R factor of [Y' X'] = Q [[Ryy, Ryx],
[0, Rxx]], folded in one block of samples at a time, and the small QR
[Ryx; Rxx] = Qx Rx give orthonormal row-space bases Q[:, :q] of Y and Q Qx
of X, so the cosines of the principal angles between the row spaces are
the singular values of Qx[:q].  The factor takes them when it is built and
keeps them as its ``cosines``; their squares are the eigenvalues of the
canonical correlation matrix (Bjorck and Golub, "Numerical methods for
computing angles between linear subspaces", Math. Comp. 1973).  A direct
brute-force eigensolve of the textbook matrix product is kept as an oracle
for small problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SpectrumRangeError
from .sampler import DataPair, JointFactor, guard_rank

#: numerical slack allowed outside [0, 1] before clamping
RANGE_SLACK = 1e-10


@dataclass(frozen=True)
class SampleCov:
    """Covariance blocks Sxx = X X'/n, Syy = Y Y'/n, Sxy = X Y'/n.

    The divisor is n, not n - 1; it cancels in canonical correlations.
    """

    Sxx: np.ndarray
    Syy: np.ndarray
    Sxy: np.ndarray


@dataclass(frozen=True)
class EigenReport:
    """Sorted squared sample canonical correlations."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.ascontiguousarray(np.asarray(self.lambdas, dtype=float))
        lam.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)


def sample_covariances(pair: DataPair) -> SampleCov:
    """Covariance blocks of a data pair."""
    if pair.n < 2:
        raise ConfigurationError(f"need at least two samples, got n = {pair.n}")
    n = pair.n
    return SampleCov(
        Sxx=pair.X @ pair.X.T / n,
        Syy=pair.Y @ pair.Y.T / n,
        Sxy=pair.X @ pair.Y.T / n,
    )


def _clamp_spectrum(lam: np.ndarray, method: str) -> np.ndarray:
    low, high = lam.min(initial=0.0), lam.max(initial=0.0)
    if low < -RANGE_SLACK or high > 1.0 + RANGE_SLACK:
        raise SpectrumRangeError(
            f"{method} eigenvalues left [0, 1] beyond slack: min {low}, max {high}"
        )
    return np.clip(lam, 0.0, 1.0)


def squared_canonical_correlations(pair: DataPair | JointFactor) -> EigenReport:
    """Squared sample canonical correlations by the projection method.

    The squares of the factor's ``cosines``, the singular values of its
    cosine block Qx[:q]: ``pair.factor`` for a pair, or the given
    :class:`JointFactor`.  A pair's factor requires p < n and q < n and
    numerically nonsingular covariance blocks.  Values are clamped to [0, 1]
    after a small-slack check; a violation beyond the slack raises instead of
    silently clamping.
    """
    factor = pair if isinstance(pair, JointFactor) else pair.factor
    sigma = factor.cosines
    lam = _clamp_spectrum(sigma * sigma, "stable")
    return EigenReport(lambdas=lam)


def brute_force_ccs(pair: DataPair) -> EigenReport:
    """Oracle: eigenvalues of the explicitly formed canonical correlation matrix.

    Forms the smaller-side product with explicit inverses, for p, q <= 64,
    once X' and Y' pass the stable path's rank guard for Sxx and Syy.
    """
    if max(pair.p, pair.q) > 64:
        raise ConfigurationError(
            f"brute force oracle is limited to p, q <= 64, got p = {pair.p}, q = {pair.q}"
        )
    cov = sample_covariances(pair)
    guard_rank("Sxx", pair.X.T)
    guard_rank("Syy", pair.Y.T)
    sxx_inv = np.linalg.inv(cov.Sxx)
    syy_inv = np.linalg.inv(cov.Syy)
    if pair.q <= pair.p:
        M = syy_inv @ cov.Sxy.T @ sxx_inv @ cov.Sxy
    else:
        M = sxx_inv @ cov.Sxy @ syy_inv @ cov.Sxy.T
    eigs = np.sort(np.linalg.eigvals(M).real)[::-1]
    lam = _clamp_spectrum(eigs, "brute-force")
    return EigenReport(lambdas=lam)


def empirical_cdf(report: EigenReport, x: float) -> float:
    """Fraction of the min(p, q) eigenvalues at or below x (right continuous)."""
    if np.isnan(x):
        raise DomainError("distribution function argument is NaN")
    count = len(report.lambdas)
    if count == 0:
        return 0.0
    return float(np.count_nonzero(report.lambdas <= x)) / count
