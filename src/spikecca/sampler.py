"""Paired Gaussian sampling under the finite-rank correlation model.

Two constructions are provided.  The coupled sampler draws noise W and a
second vector Y independently and sets X = W + T Y with a diagonal
rectangular coupling T; the pair carries T's k nonzero entries, the spike
strengths t, so the finite-sample perturbation identities can be checked.
The general sampler applies the block square root of the joint covariance to
two independent normal matrices and also supports unit spikes (perfect
correlation).

Randomness contract: a PCG64 bit generator seeded through a SeedSequence.
Per-replicate streams use the root seed with the replicate index as spawn
key, so parallel replicates are independent and order-insensitive.  Normal
variates are produced by the inverse distribution function applied to the
generator's 53-bit uniforms (exact zeros, probability 2^-53 per draw, are
lifted to 2^-55 so the map is total).  Fixing the transform keeps sampled
matrices bitwise reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .errors import ConfigurationError, SingularityError, UnsupportedModelError
from .model import ModelConfig, mixing_weights, spike_to_t

_MIN_UNIFORM = 2.0**-55

#: relative eigenvalue floor below which a covariance block counts as singular
COND_THRESHOLD = 1e-10


def seeded_rng(seed: int) -> np.random.Generator:
    """Root generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replicate, derived by spawn key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def standard_normal_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix of i.i.d. standard normals via the inverse distribution function."""
    u = rng.random((rows, cols))
    np.maximum(u, _MIN_UNIFORM, out=u)
    return ndtri(u, out=u)


def _clearly_nonsingular(R: np.ndarray) -> bool:
    """Cheap proof that R passes the rank guard with room to spare.

    R'R - c I has a Cholesky factor only when every squared singular value of
    R exceeds c.  With c = 100 COND_THRESHOLD |R|_F^2, and |R|_F bounding the
    largest singular value, success proves the guard passes, with a margin far
    above the rounding of R'R and of the factorization.  Failure proves
    nothing.  The proof is scale-invariant, so it runs on R scaled by the
    exact power of two that brings max|R| into [1/2, 1): R'R then cannot
    overflow, and only entries far below its scale can underflow.  One
    Cholesky costs a small fraction of the singular values, whose bidiagonal
    reduction is bound by memory bandwidth.
    """
    largest = np.max(np.abs(R))
    if not (0.0 < largest < np.inf):
        return False
    R = np.ldexp(R, -np.frexp(largest)[1])
    c = 100.0 * COND_THRESHOLD * np.linalg.norm(R) ** 2
    gram = R.T @ R
    gram[np.diag_indices_from(gram)] -= c
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def guard_rank(block: str, R: np.ndarray) -> None:
    """Raise SingularityError(block) when R'R's condition reaches 1 / COND_THRESHOLD."""
    if _clearly_nonsingular(R):
        return
    s = np.linalg.svd(R, compute_uv=False)
    if s[0] == 0.0 or (s[-1] / s[0]) ** 2 <= COND_THRESHOLD:
        cond = np.inf if s[-1] == 0.0 else (s[0] / s[-1]) ** 2
        raise SingularityError(block, cond)


@dataclass(frozen=True)
class JointFactor:
    """Guarded joint factor of a pair X (p x n), Y (q x n): the blocks CCA and the oracle read.

    [Y' X'] = Q [[Ryy, Ryx], [0, Rxx]] by one R-only Householder QR (Q is
    never formed), and [Ryx; Rxx] = Qx Rx; Rxx is (n - q) x p when p + q > n.
    The singular values of ``cosines`` = Qx[:q] are the cosines of the
    principal angles between the row spaces.  The blocks are read-only views
    of R and Qx, not copies.  :meth:`of` needs p < n and q < n; its rank guard
    (:func:`guard_rank`) checks Sxx on Rx, then Syy on Ryy.
    """

    Ryy: np.ndarray
    Ryx: np.ndarray
    Rxx: np.ndarray
    cosines: np.ndarray
    t: np.ndarray | None
    p: int
    q: int
    n: int

    @classmethod
    def of(cls, X: np.ndarray, Y: np.ndarray, t: np.ndarray | None = None) -> JointFactor:
        (p, n), q = X.shape, Y.shape[0]
        if not (p < n and q < n):
            raise ConfigurationError(f"need p < n and q < n, got p = {p}, q = {q}, n = {n}")
        R = np.linalg.qr(np.vstack((Y, X)).T, mode="r")
        Qx, Rx = np.linalg.qr(R[:, q:])
        guard_rank("Sxx", Rx)
        guard_rank("Syy", R[:q, :q])
        R.flags.writeable = False
        Qx.flags.writeable = False
        return cls(R[:q, :q], R[:q, q:], R[q:, q:], Qx[:q], t, p, q, n)


@dataclass(frozen=True)
class DataPair:
    """Paired data matrices X (p x n) and Y (q x n), columns are samples.

    X and Y are finite and read-only; a C-contiguous float64 array passed in
    is marked read-only in place, not copied.  The guarded joint factor
    (:attr:`factor`) is computed once, on first use, and shared by every
    consumer of the pair.  A coupled pair X = W + T Y also carries ``t``:
    T's k <= min(p, q) nonzero diagonal entries, read-only (else None).
    """

    X: np.ndarray
    Y: np.ndarray
    t: np.ndarray | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        Y = np.ascontiguousarray(np.asarray(self.Y, dtype=float))
        if X.ndim != 2 or Y.ndim != 2:
            raise ConfigurationError("X and Y must be two-dimensional matrices")
        if X.shape[1] != Y.shape[1]:
            raise ConfigurationError(
                f"X and Y must share the sample dimension: {X.shape} vs {Y.shape}"
            )
        if not (np.isfinite(X).all() and np.isfinite(Y).all()):
            raise ConfigurationError("X and Y must hold only finite values (no NaN or inf)")
        if self.t is not None:
            t = np.array(self.t, dtype=float)
            k_max = min(X.shape[0], Y.shape[0])
            if t.ndim != 1 or not np.isfinite(t).all() or t.shape[0] > k_max:
                raise ConfigurationError(
                    f"the spike strengths t must be a finite one-dimensional array "
                    f"of at most min(p, q) = {k_max} entries, got shape {t.shape}"
                )
            t.flags.writeable = False
            object.__setattr__(self, "t", t)
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def p(self) -> int:
        return self.X.shape[0]

    @property
    def q(self) -> int:
        return self.Y.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @cached_property
    def factor(self) -> JointFactor:
        """The pair's :class:`JointFactor`; raises for p >= n, q >= n or a singular block."""
        return JointFactor.of(self.X, self.Y, self.t)


def sample_coupled(config: ModelConfig, rng: np.random.Generator | None = None) -> DataPair:
    """Draw a pair via the coupled construction; the pair carries the strengths t.

    W (p x n) and Y (q x n) are independent standard normal matrices and
    X = W + T Y with T[i, i] = t_i the strength of spike i: W is drawn into X
    and its first k rows gain t_i Y[i] in place.  The population squared
    canonical correlations of this construction are exactly the spikes.
    Unit spikes are rejected here; use :func:`sample_general` for those.
    """
    if any(r == 1.0 for r in config.spikes.r):
        raise UnsupportedModelError(
            "the coupled construction has no finite strength for a unit spike; "
            "sample_general handles r = 1 (the top eigenvalue is then 1 "
            "deterministically)"
        )
    if rng is None:
        rng = seeded_rng(config.seed)
    X = standard_normal_matrix(rng, config.p, config.n)
    Y = standard_normal_matrix(rng, config.q, config.n)
    t = np.array([spike_to_t(r) for r in config.spikes.r])
    k = t.shape[0]
    X[:k] += t[:, None] * Y[:k]
    return DataPair(X=X, Y=Y, t=t)


def sample_general(config: ModelConfig, rng: np.random.Generator | None = None) -> DataPair:
    """Draw a pair through the block square root of the joint covariance.

    Stacks two independent standard normal matrices and mixes row i < k of
    each with weights (alpha_i, beta_i); rows beyond k pass through.  Unit
    spikes are supported: alpha = beta = 1/sqrt(2) makes the corresponding
    rows of X and Y identical, so the top sample eigenvalue is exactly 1.
    The pair carries no spike strengths (``t = None``).
    """
    if rng is None:
        rng = seeded_rng(config.seed)
    X = standard_normal_matrix(rng, config.p, config.n)
    Y = standard_normal_matrix(rng, config.q, config.n)
    k = config.spikes.k
    if k:
        alpha, beta = np.array([mixing_weights(r) for r in config.spikes.r]).T
        W1 = X[:k].copy()
        X[:k] = alpha[:, None] * W1 + beta[:, None] * Y[:k]
        Y[:k] = beta[:, None] * W1 + alpha[:, None] * Y[:k]
    return DataPair(X=X, Y=Y)


def subtract_means(pair: DataPair) -> DataPair:
    """Center each variable (row) at its sample mean.

    The spike strengths t are dropped: the coupled identity X = W + T Y no
    longer holds exactly after centering.
    """
    if pair.n < 2:
        raise ConfigurationError(f"centering needs at least two samples, got n = {pair.n}")
    X = pair.X - pair.X.mean(axis=1, keepdims=True)
    Y = pair.Y - pair.Y.mean(axis=1, keepdims=True)
    return DataPair(X=X, Y=Y)
