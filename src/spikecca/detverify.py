"""Finite-sample determinant oracle for outlier certification.

The spiked canonical correlation matrix differs from its null counterpart by
a low-rank perturbation Delta = T Syw + Swy T' + T Syy T' built from the
latent noise W = X - T Y and the coupling T, whose only nonzero entries are
the k spike strengths t on its diagonal.  With B = [e_1 ... e_k, s_1 ... s_k]
(p x 2k), s_i the i-th column of Swy, and the 2k x 2k core
C = [[chi, diag(t)], [diag(t), 0]], chi = t t' * Syy[:k, :k], the
perturbation is Delta = B C B' = U V with U = B C and V = B'.  An eigenvalue
of the spiked matrix that is not an eigenvalue of the null matrix must be a
root of

    det(I + (1 - lam) V Phi(lam) U) = 0,

the 2k x 2k form of det(I_p + (1 - lam) Phi(lam) Delta) by Sylvester's
identity, where Phi(lam) = (Swy Syy^{-1} Syw - lam Sww)^{-1} is the null-side
resolvent.  The oracle reads only the blocks Ryy, Ryx and Rxx of the pair's
cached joint factor [Y' X'] = Q [[Ryy, Ryx], [0, Rxx]], the one the canonical
correlations use.  With X = W + T Y, Q'W' stacks A1 = Ryx - Ryy T' on Rxx, so
Swy Syy^{-1} Syw = E = A1'A1/n and Sww = (A1'A1 + Rxx'Rxx)/n: no n-length
array is read, and a rank-deficient W is rejected as a singular Sww.  One
generalized eigendecomposition E vecs = Sww vecs diag(mu) of this null
pencil, with vecs' Sww vecs = I, gives Phi(lam) = vecs diag(1/(mu - lam)) vecs';
the mu are the squared canonical correlations of the null pair (W, Y).  So
V Phi(lam) U = (V vecs) diag(1/(mu - lam)) (vecs' U) needs only the
projections V vecs (2k x p) and vecs' U (p x 2k), formed once.  This module
builds the factors, evaluates the reduced determinant, and compares
M_n(z) = I + (1-z) V Phi(z) U entrywise with its deterministic limit, one
2 x 2 block per spike.

Everything here needs the spike strengths t that a pair drawn by the coupled
sampler carries (``DataPair.t``): the decomposition is a simulation-time
object, not identifiable from the data alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .errors import (
    NumericalError,
    ResolventSingularityError,
    UnsupportedModelError,
)
from .model import ratios_from_dims
from .rmt import beyond_edge
from .rmt import f as limit_f
from .rmt import h as limit_h
from .sampler import DataPair, guard_rank

_DELTA_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class PerturbationFactors:
    """Thin factors U = B C (p x 2k) and V = B' (2k x p) with Delta = U V."""

    U: np.ndarray
    V: np.ndarray
    Delta: np.ndarray


@dataclass(frozen=True)
class MnComparison:
    """Finite-sample matrix M_n(z) next to its deterministic limit M(z)."""

    finite: np.ndarray
    limit: np.ndarray

    def max_abs_diff(self) -> float:
        return float(np.max(np.abs(self.finite - self.limit), initial=0.0))


class DeterminantOracle:
    """The null-side pencil and the factors of one data pair, each built once.

    ``S_wy`` = A1'Ryy[:, :k]/n (p x k) and ``S_yy`` = Ryy[:, :k]'Ryy[:, :k]/n
    (k x k) hold only the k spiked columns of the cross and Y covariances, the
    only part of them that Delta reads.  Every block, and t, p, q and n, come
    from ``pair.factor``, so the pair needs p < n and q < n
    (:class:`ConfigurationError`) and nonsingular Sxx, Syy and then Sww
    (:class:`SingularityError`).  A pair without t is rejected before it is
    factorized.

    The constructor builds the pencil, U, V, the Delta check and the
    projections V vecs and vecs' U; every other method reads them.  Use this
    class directly when evaluating the determinant at many points;
    :func:`finite_n_det` builds one oracle per call.
    """

    def __init__(self, pair: DataPair):
        if pair.t is None:
            raise UnsupportedModelError(
                "determinant verification needs a pair that carries its spike "
                "strengths t, as the coupled sampler draws it"
            )
        factor = pair.factor
        self.t, self.p, self.q, self.n = factor.t, factor.p, factor.q, factor.n
        k = self.k = self.t.shape[0]
        R_yk = factor.Ryy[:, :k]
        A = factor.Ryx.copy()
        A[:, :k] -= R_yk * self.t
        # Sww = [A; Rxx]'[A; Rxx] / n
        guard_rank("Sww", np.vstack((A, factor.Rxx)))
        gram = A.T @ A
        self.E = gram / self.n
        self.S_ww = (gram + factor.Rxx.T @ factor.Rxx) / self.n
        self.S_wy = A.T @ R_yk / self.n
        self.S_yy = R_yk.T @ R_yk / self.n
        # null pencil: E vecs = S_ww vecs diag(mu), vecs' S_ww vecs = I
        self.mu, self.vecs = eigh(self.E, self.S_ww)
        # Delta = B C B' through its rank-2k range, checked against the direct formula
        p, t = self.p, self.t
        B = np.zeros((p, 2 * k))
        B[:k, :k] = np.eye(k)
        B[:, k:] = self.S_wy
        T = np.diag(t)
        C = np.block([[np.outer(t, t) * self.S_yy, T], [T, np.zeros((k, k))]])
        U = B @ C
        V = B.T
        delta = U @ V

        # T Swy' + Swy T' + T Syy T', with T's k nonzero entries t on the diagonal
        direct = np.zeros((p, p))
        direct[:k] += t[:, None] * self.S_wy.T
        direct[:, :k] += self.S_wy * t
        direct[:k, :k] += t[:, None] * self.S_yy * t
        scale = max(1.0, float(np.max(np.abs(direct))))
        err = float(np.max(np.abs(delta - direct)))
        if err > _DELTA_CHECK_TOL * scale:
            raise NumericalError(
                f"factorization check failed: |UV - Delta| = {err:.3e} "
                f"exceeds {_DELTA_CHECK_TOL:.0e} relative"
            )
        self._factors = PerturbationFactors(U=U, V=V, Delta=delta)
        self._V_vecs = V @ self.vecs
        self._vecs_U = self.vecs.T @ U

    def factors(self) -> PerturbationFactors:
        """U and V with Delta = U V, built and checked with the oracle."""
        return self._factors

    # -- determinant ------------------------------------------------------

    def reduced_matrix(self, lam: float) -> np.ndarray:
        """I + (1 - lam) V Phi(lam) U, read through the projections V vecs and vecs' U."""
        gaps = self.mu - lam
        nearest, farthest = np.min(np.abs(gaps)), np.max(np.abs(gaps))
        if farthest == 0.0 or nearest <= 1e-10 * farthest:
            cond = np.inf if nearest == 0.0 else farthest / nearest
            raise ResolventSingularityError(
                "resolvent argument",
                cond,
                f"lam = {lam} is too close to a null-case eigenvalue "
                f"(condition estimate {cond:.3e})",
            )
        core = (self._V_vecs / gaps) @ self._vecs_U
        return np.eye(core.shape[0]) + (1.0 - lam) * core

    def normalized_det(self, lam: float) -> float:
        M = self.reduced_matrix(lam)
        norms = np.linalg.norm(M, axis=1)
        if np.any(norms == 0.0):
            return 0.0
        return float(np.linalg.det(M) / np.prod(norms))

    def limit_matrix(self, z: float) -> np.ndarray:
        """Entrywise limit [[I + f T^2, f T], [h T, I]] of the reduced matrix.

        f = f(z) and h = h(z) at a real z beyond the bulk, T = diag(t).  In
        the limit B'Phi(z)B (1 - z) tends to diag(f I, h I) and chi to T^2,
        so spike i lives in the 2 x 2 block at rows and columns i and k + i,
        whose determinant is ``limiting_det_factor(z, t_i)``.
        """
        ratios = ratios_from_dims(self.p, self.q, self.n)
        fz = limit_f(z, ratios)
        hz = limit_h(z, ratios)
        t = self.t
        return np.block(
            [
                [np.diag(1.0 + fz * t * t), np.diag(fz * t)],
                [np.diag(hz * t), np.eye(self.k)],
            ]
        )

    def mn_comparison(self, z: float) -> MnComparison:
        """M_n(z) next to its limit M(z), at a real z beyond the bulk edge."""
        z = beyond_edge(z, ratios_from_dims(self.p, self.q, self.n))
        return MnComparison(finite=self.reduced_matrix(z), limit=self.limit_matrix(z))


def finite_n_det(pair: DataPair, lam: float) -> float:
    """det(I + (1 - lam) V Phi(lam) U), scaled by the product of row norms.

    The scaling makes "vanishes at an outlier" a scale-free statement: the
    normalized value is at most 1 in magnitude.
    """
    return DeterminantOracle(pair).normalized_det(lam)
