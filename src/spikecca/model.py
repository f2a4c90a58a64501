"""Model configuration: dimension ratios, spike spectra and coupling constants.

The population model is a pair of jointly Gaussian vectors of dimensions p and
q observed n times, whose cross-covariance has fixed finite rank k.  The k
nonzero squared population canonical correlations r_1 >= ... >= r_k are the
"spikes".  Every limit formula in :mod:`spikecca.rmt` is driven only by the
dimension ratios (c1, c2) = (p/n, q/n); the samplers additionally need the
per-spike signal strengths t_i with r_i = t_i^2 / (1 + t_i^2).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class DimensionRatios:
    """Dimension-to-sample-size ratios (c1, c2) = (p/n, q/n).

    Both ratios must lie in [2^-64, 1) and their sum must stay below 1; c1 == c2
    (p = q) is accepted, though the paper assumes p/q stays away from 1.  The
    lower bound keeps c1 c2 clear of underflow and refuses no real design,
    since p/n >= 1/n > 2^-64 for any n that numpy can index.
    """

    c1: float
    c2: float

    def __post_init__(self):
        c1, c2 = float(self.c1), float(self.c2)
        if not (2.0**-64 <= c1 < 1.0):
            raise ConfigurationError(f"need 2^-64 <= c1 < 1, got c1 = {c1}")
        if not (2.0**-64 <= c2 < 1.0):
            raise ConfigurationError(f"need 2^-64 <= c2 < 1, got c2 = {c2}")
        if not c1 + c2 < 1.0:
            raise ConfigurationError(f"need c1 + c2 < 1, got c1 + c2 = {c1 + c2}")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def ratios_from_dims(p: int, q: int, n: int) -> DimensionRatios:
    """Dimension ratios (p/n, q/n) for a finite-sample design.

    Raises :class:`ConfigurationError` naming the violated inequality when the
    design does not satisfy 0 < p < n, 0 < q < n and p + q < n.
    """
    if not p > 0:
        raise ConfigurationError(f"violated 0 < p: p = {p}")
    if not q > 0:
        raise ConfigurationError(f"violated 0 < q: q = {q}")
    if not p < n:
        raise ConfigurationError(f"violated p < n: p = {p}, n = {n}")
    if not q < n:
        raise ConfigurationError(f"violated q < n: q = {q}, n = {n}")
    if not p + q < n:
        raise ConfigurationError(f"violated p + q < n: p + q = {p + q}, n = {n}")
    return DimensionRatios(p / n, q / n)


def _check_rank(k: int, p: int, q: int) -> None:
    """Raise :class:`ConfigurationError` unless k spikes fit the design: k <= min(p, q)."""
    if k > min(p, q):
        raise ConfigurationError(f"violated k <= min(p, q): k = {k}, min(p, q) = {min(p, q)}")


@dataclass(frozen=True)
class SpikeSpectrum:
    """Ordered squared population canonical correlations r_1 >= ... >= r_k.

    Values live in (0, 1]; the list may be empty (null model, k = 0).
    """

    r: tuple[float, ...]

    def __post_init__(self):
        if not (isinstance(self.r, (list, tuple)) and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in self.r
        )):
            raise ConfigurationError(f"spikes must be a list of numbers, got {self.r!r}")
        values = tuple(float(v) for v in self.r)
        for i, v in enumerate(values):
            if not (0.0 < v <= 1.0):
                raise ConfigurationError(f"spike r[{i}] = {v} outside (0, 1]")
        for i in range(1, len(values)):
            if values[i] > values[i - 1]:
                raise ConfigurationError(
                    f"spikes must be nonincreasing: r[{i - 1}] = {values[i - 1]} "
                    f"< r[{i}] = {values[i]}"
                )
        object.__setattr__(self, "r", values)

    @property
    def k(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class ModelConfig:
    """Finite-sample model: dimensions, spike spectrum, a sampling seed and the ratios."""

    p: int
    q: int
    n: int
    spikes: SpikeSpectrum
    seed: int = 0
    ratios: DimensionRatios = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("p", "q", "n"):
            v = getattr(self, name)
            if type(v) is not int or v <= 0:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        # numpy indexes an array's bytes with a Py_ssize_t.  The one-block
        # samplers' (p + q) x n buffer is the largest array a model needs: it
        # bounds R and every streamed block, as p + q < n
        if (self.p + self.q) * self.n * 8 > sys.maxsize:
            raise ConfigurationError(
                f"a {self.p + self.q}×{self.n} float64 sample block exceeds "
                f"numpy's {sys.maxsize}-byte array limit"
            )
        object.__setattr__(self, "ratios", ratios_from_dims(self.p, self.q, self.n))
        _check_rank(self.spikes.k, self.p, self.q)
        if not (type(self.seed) is int and 0 <= self.seed < 2**64):
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def spike_to_t(r: float) -> float:
    """Signal strength t = sqrt(r / (1 - r)) of a spike r in (0, 1).

    The map r = t^2 / (1 + t^2) inverts it (see :func:`t_to_spike`).  A unit
    spike has no finite strength: callers must branch to the deterministic
    unit-eigenvalue case instead.
    """
    r = float(r)
    if r == 1.0:
        raise DomainError(
            "r = 1 has divergent signal strength; handle the unit spike as "
            "the deterministic eigenvalue 1"
        )
    if not (0.0 < r < 1.0):
        raise DomainError(f"spike must lie in (0, 1), got {r}")
    return math.sqrt(r / (1.0 - r))


def t_to_spike(t: float) -> float:
    """Inverse of :func:`spike_to_t`: r = t^2 / (1 + t^2) for 0 <= t < inf, 1 once t^2 is inf."""
    t = float(t)
    if not (0.0 <= t < math.inf):
        raise DomainError(f"signal strength must be nonnegative and finite, got {t}")
    t2 = t * t
    return 1.0 if t2 == math.inf else t2 / (1.0 + t2)


def mixing_weights(r: float) -> tuple[float, float]:
    """Weights (alpha, beta) of the block square root of the joint covariance.

    alpha = (sqrt(1 + sqrt(r)) + sqrt(1 - sqrt(r))) / 2 and beta the same
    difference; they satisfy alpha^2 + beta^2 = 1 and 2*alpha*beta = sqrt(r).
    Valid for r in (0, 1]; at r = 1 both equal 1/sqrt(2).
    """
    r = float(r)
    if not (0.0 < r <= 1.0):
        raise DomainError(f"spike must lie in (0, 1], got {r}")
    s = math.sqrt(r)
    a = math.sqrt(1.0 + s)
    b = math.sqrt(1.0 - s)
    return (a + b) / 2.0, (a - b) / 2.0


@dataclass(frozen=True)
class CouplingConstants:
    """Per-spike constants of the coupled representation X = W + T Y.

    tau = beta / alpha and t = 2 tau / (1 - tau^2); t agrees with
    ``spike_to_t(r)`` and r = t^2 / (1 + t^2) recovers the spike.
    """

    alpha: float
    beta: float
    tau: float
    t: float


def coupling_constants(r: float) -> CouplingConstants:
    """Compute (alpha, beta, tau, t) for a spike r in (0, 1).

    Rejects r = 1, where tau = 1 makes t singular.
    """
    r = float(r)
    if r == 1.0:
        raise DomainError("r = 1 gives tau = 1 and a singular coupling strength t")
    if not (0.0 < r < 1.0):
        raise DomainError(f"spike must lie in (0, 1), got {r}")
    alpha, beta = mixing_weights(r)
    tau = beta / alpha
    t = 2.0 * tau / (1.0 - tau * tau)
    return CouplingConstants(alpha=alpha, beta=beta, tau=tau, t=t)
