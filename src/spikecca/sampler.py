"""Paired Gaussian sampling under the finite-rank correlation model.

Two constructions are provided.  The coupled sampler draws noise W and a
second vector Y independently and sets X = W + T Y with a diagonal
rectangular coupling T; the pair carries T's k nonzero entries, the spike
strengths t, so the finite-sample perturbation identities can be checked.
The general sampler applies the block square root of the joint covariance to
two independent normal matrices and also supports unit spikes (perfect
correlation).  :func:`sample_factor` builds a sampled pair's joint factor
without holding X or Y, through the coupled construction unless a spike is 1;
held data reach theirs only through :attr:`DataPair.factor`.

Randomness contract: a PCG64 bit generator seeded through a SeedSequence.
Per-replicate streams use the root seed with the replicate index as spawn
key, so parallel replicates are independent and order-insensitive.  Both
constructions draw in one order, entry (i, j) of X (p x n) being draw i n + j
of the pair's stream and Y's entries following at p n, and one transform:
the inverse normal distribution function of the generator's 53-bit uniforms,
with exact zeros (probability 2^-53) lifted to 2^-55 so the map is total.
Each construction is one fill: the one routine that draws a block of samples,
seeking the stream with ``PCG64.advance``, then its in-place mix.  A sampled
pair is that fill of one block; the streamed factor folds it, so its blocks
hold the same bits and the generator ends where the sampler leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr, dpotrf, dtpqrt
from scipy.special import ndtri

from .errors import ConfigurationError, SingularityError, UnsupportedModelError
from .model import ModelConfig, mixing_weights, spike_to_t

_MIN_UNIFORM = 2.0**-55

#: relative eigenvalue floor below which a covariance block counts as singular
COND_THRESHOLD = 1e-10

#: samples per block folded into the joint R factor; R's last bits depend on
#: it, so it is fixed rather than tuned per machine
CHUNK = 1000
#: block size of dtpqrt's compact WY form; R's last bits depend on it too
NB = 32


def seeded_rng(seed: int) -> np.random.Generator:
    """Root generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replicate, derived by spawn key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def standard_normal_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix of i.i.d. standard normals via the inverse distribution function."""
    out = np.empty((rows, cols))
    _draw(rng, rows, cols, 0, out)
    return out


def _draw(rng: np.random.Generator, p: int, n: int, start: int, out: np.ndarray) -> None:
    """Standard normals of samples start .. start + c - 1 into ``out``, (q + p) x c, rows [Y; X].

    Enter with rng at the pair's first draw when start is 0, else just past its
    last, where the previous block left it; leave just past the last.  Each
    row's slice is drawn at its place in the stream, then transformed.
    """
    rows, c = out.shape
    bits = rng.bit_generator
    if start:
        bits.advance(start - rows * n)
    for row in (*range(rows - p, rows), *range(rows - p)):
        rng.random(out=out[row])
        if c < n:
            bits.advance(n - c)
    if start:
        bits.advance(-start)
    np.maximum(out, _MIN_UNIFORM, out=out)
    ndtri(out, out=out)


def _cholesky_with_margin(gram: np.ndarray) -> bool:
    """Whether gram - 100 COND_THRESHOLD trace(gram) I has a Cholesky factor; gram is overwritten.

    The one certificate that a Gram G = R'R passes the rank guard with room
    to spare: the trace bounds G's largest eigenvalue, so success proves its
    condition below 1 / COND_THRESHOLD, with a margin far above the rounding
    of G and of the factorization.  Failure proves nothing.  It answers only
    when trace(G) lies in (2^-512, inf) and declines elsewhere: a finite
    trace bounds every entry (Cauchy-Schwarz), so G neither overflowed nor
    holds NaN, and above 2^-512 the error of underflowed entries is far
    below the margin.  LAPACK's ``dpotrf`` factors the Gram in place (its
    transpose is Fortran-contiguous) and only its ``info`` is read.
    """
    trace = np.trace(gram)
    if not 2.0**-512 < trace < np.inf:
        return False
    gram[np.diag_indices_from(gram)] -= 100.0 * COND_THRESHOLD * trace
    return dpotrf(gram.T, overwrite_a=1)[1] == 0


def guard_rank(block: str, R: np.ndarray) -> None:
    """Raise SingularityError(block) unless R'R's condition is below 1 / COND_THRESHOLD.

    R'R is formed once, on R itself, for the Cholesky certificate, which
    costs a small fraction of the singular values; it is freed before they
    judge a block the certificate declines.
    """
    if R.shape[0] < R.shape[1]:  # R'R is singular
        raise SingularityError(block, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        if _cholesky_with_margin(R.T @ R):
            return
    s = np.linalg.svd(R, compute_uv=False)
    if not (s[0] > 0.0 and (s[-1] / s[0]) ** 2 > COND_THRESHOLD):
        cond = np.inf if s[-1] == 0.0 else (s[0] / s[-1]) ** 2
        raise SingularityError(block, cond)


def _fold(width: int, n: int, fill) -> np.ndarray:
    """R factor of an n x width matrix, folded in one block of samples at a time (TSQR).

    ``fill(block, start)`` writes samples start .. start + c - 1 into
    ``block``, width x c in C order with one variable per row.  Its transpose,
    the c x width Fortran-order block, goes through LAPACK's ``dtpqrt``, which
    updates the upper triangular R in place, starting from R = 0 (Demmel,
    Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 2012).  Only R and one
    block of CHUNK samples are held.  R is min(n, width) x width; when
    n < width, its leading n rows are copied once the last block is freed.
    """
    R = np.zeros((width, width), order="F")
    nb = min(NB, width)
    buffer = np.empty(width * min(CHUNK, n))
    for start in range(0, n, CHUNK):
        block = buffer[: width * min(CHUNK, n - start)].reshape(width, -1)
        fill(block, start)
        R, _, _, info = dtpqrt(0, nb, R, block.T, overwrite_a=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dtpqrt rejected argument {-info}")
    buffer = block = None  # so a copy of R is not held beside the last block
    # rows past n hold only rounding: R of n samples has n rows
    return R if n >= width else R[:n].copy()


@dataclass(frozen=True)
class JointFactor:
    """Guarded joint factor of a pair X (p x n), Y (q x n): the blocks CCA and the oracle read.

    [Y' X'] = Q [[Ryy, Ryx], [0, Rxx]], with R folded in from blocks of CHUNK
    samples (Q is never formed), and [Ryx; Rxx] = Qx Rx; Rxx is
    (n - q) x p when p + q > n.  ``cosines`` holds the min(p, q) cosines of
    the principal angles between the row spaces, the singular values of
    Qx[:q] in descending order; Qx itself is not kept.  The blocks are
    read-only views of R, and the cosines a read-only vector of their own.
    Both builders, :attr:`DataPair.factor` for held data and
    :func:`sample_factor` for a streamed sampled pair, finish in one shared
    step whose rank guard (:func:`guard_rank`) checks Sxx on Rx, then Syy on
    Ryy.
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
    def _guarded(cls, R: np.ndarray, t, p: int, q: int, n: int) -> JointFactor:
        """The factor of R: the small QR, the rank guard, the cosines, then read-only views.

        [Ryx; Rxx] is copied once, in Fortran order; LAPACK's ``dgeqrf``
        factors that copy in place, Sxx is guarded on Rx, its upper
        triangle, and ``dorgqr`` then forms Qx over it, both with a blocked
        workspace.  The cosines are taken from Qx[:q] and Qx is dropped
        before Syy is guarded on Ryy, so only R and the cosines outlive it.
        """
        a, tau, _, info = dgeqrf(np.array(R[:, q:], order="F"), lwork=64 * p, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrf rejected argument {-info}")
        guard_rank("Sxx", np.triu(a[:p]))
        Qx, _, info = dorgqr(a, tau, lwork=64 * p, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dorgqr rejected argument {-info}")
        cosines = np.linalg.svd(Qx[:q], compute_uv=False)
        a = Qx = None
        guard_rank("Syy", R[:q, :q])
        R.flags.writeable = False
        cosines.flags.writeable = False
        return cls(R[:q, :q], R[:q, q:], R[q:, q:], cosines, t, p, q, n)


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
        if X.shape[0] == 0 or Y.shape[0] == 0:
            raise ConfigurationError(f"X and Y need at least one row each: {X.shape} vs {Y.shape}")
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
        X, Y, (p, n), q = self.X, self.Y, self.X.shape, self.q
        if not (p < n and q < n):
            raise ConfigurationError(f"need p < n and q < n, got p = {p}, q = {q}, n = {n}")

        def fill(block, start):
            stop = start + block.shape[1]
            block[:q] = Y[:, start:stop]
            block[q:] = X[:, start:stop]

        return JointFactor._guarded(_fold(q + p, n, fill), self.t, p, q, n)


def _coupled(config: ModelConfig, rng: np.random.Generator):
    """Strengths t and the coupled construction's fill: drawn blocks gain X[:k] += t Y[:k]."""
    if 1.0 in config.spikes.r:
        raise UnsupportedModelError(
            "the coupled construction has no finite strength for a unit spike; sample_general "
            "handles r = 1 (the top eigenvalue is then 1 deterministically)"
        )
    t = np.array([spike_to_t(r) for r in config.spikes.r])
    t.flags.writeable = False
    p, q, n, k = config.p, config.q, config.n, t.shape[0]

    def fill(block, start):
        _draw(rng, p, n, start, block)
        block[q : q + k] += t[:, None] * block[:k]

    return t, fill


def _general(config: ModelConfig, rng: np.random.Generator):
    """No strengths t, and a fill mixing drawn row i < k with weights (alpha_i, beta_i)."""
    alpha, beta = np.reshape([mixing_weights(r) for r in config.spikes.r], (-1, 2)).T[:, :, None]
    p, q, n, k = config.p, config.q, config.n, config.spikes.k

    def fill(block, start):
        _draw(rng, p, n, start, block)
        x, y = block[q : q + k], block[:k]
        w = x.copy()
        x *= alpha
        x += beta * y
        y *= alpha
        y += beta * w

    return None, fill


def _sample(config: ModelConfig, rng: np.random.Generator | None, construction) -> DataPair:
    """A construction's pair: its fill (the one draw, then its mix) of one block of n samples."""
    t, fill = construction(config, seeded_rng(config.seed) if rng is None else rng)
    samples = np.empty((config.q + config.p, config.n))
    fill(samples, 0)
    return DataPair(X=samples[config.q :], Y=samples[: config.q], t=t)


def sample_coupled(config: ModelConfig, rng: np.random.Generator | None = None) -> DataPair:
    """Draw a pair via the coupled construction; the pair carries the strengths t.

    W (p x n) and Y (q x n) are independent standard normal matrices and
    X = W + T Y with T[i, i] = t_i the strength of spike i: W is drawn into X
    and its first k rows gain t_i Y[i] in place.  The population squared
    canonical correlations of this construction are exactly the spikes.
    Unit spikes are rejected here; use :func:`sample_general` for those.
    X and Y are C-contiguous row views of one (q + p) x n array.
    """
    return _sample(config, rng, _coupled)


def sample_general(config: ModelConfig, rng: np.random.Generator | None = None) -> DataPair:
    """Draw a pair through the block square root of the joint covariance.

    Row i < k of two independent standard normal matrices is mixed in place
    with weights (alpha_i, beta_i); rows beyond k pass through.  A unit spike
    has alpha = beta = 1/sqrt(2): rows i of X and Y are identical, so the top
    sample eigenvalue is exactly 1.  The pair carries no strengths (t = None);
    X and Y are C-contiguous row views of one (q + p) x n array.
    """
    return _sample(config, rng, _general)


def sample_factor(config: ModelConfig, rng: np.random.Generator) -> JointFactor:
    """The :class:`JointFactor` of a sampled pair, without the pair.

    The pair is :func:`sample_coupled`'s if every spike is below 1, else
    :func:`sample_general`'s (no strengths t).  Each block of CHUNK samples
    is drawn, mixed, folded into R and dropped, so X and Y are never held.
    R and the cosines equal that pair's factor bitwise, and rng ends where
    its sampler leaves it.
    """
    t, fill = (_general if 1.0 in config.spikes.r else _coupled)(config, rng)
    p, q, n = config.p, config.q, config.n
    return JointFactor._guarded(_fold(q + p, n, fill), t, p, q, n)


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
