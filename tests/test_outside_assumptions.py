"""What holds outside the paper's assumptions (README, "Outside the paper's assumptions").

The paper proves its limits for normal vectors with p/q bounded away from 1.
These seeded runs measure the package at p = q and certify outliers of
non-Gaussian pairs; the README quotes their numbers.
"""

import numpy as np
import pytest

from spikecca import (
    DataPair,
    DeterminantOracle,
    ModelConfig,
    SpikeSpectrum,
    gamma_inverse,
    ratios_from_dims,
    replicate_rng,
    spike_to_t,
    wachter_edges,
)
from spikecca.cca import squared_canonical_correlations
from spikecca.sampler import sample_factor

SPIKES = (0.8, 0.5)


def top_two(p, q, n, spikes, replicates=200, seed=9):
    """The two largest eigenvalues of each streamed replicate, and the model's ratios."""
    config = ModelConfig(p=p, q=q, n=n, spikes=SpikeSpectrum(spikes), seed=seed)
    lambdas = np.array([
        squared_canonical_correlations(sample_factor(config, replicate_rng(seed, i))).lambdas[:2]
        for i in range(replicates)
    ])
    return lambdas, config.ratios


def test_equal_dimensions_match_unequal_ones():
    # (60, 60, 400) against (60, 64, 400): r_hat is as close to r at p = q as at
    # p != q, and the null top eigenvalue sits as far below d_r
    means, gaps = [], []
    for q in (60, 64):
        lambdas, ratios = top_two(60, q, 400, SPIKES)
        r_hat = np.array([[gamma_inverse(float(lam), ratios) for lam in row] for row in lambdas])
        means.append(r_hat.mean(axis=0))
        null, _ = top_two(60, q, 400, ())
        gaps.append(wachter_edges(ratios).d_right - null[:, 0].mean())
    for mean in means:
        assert np.all(np.abs(mean - SPIKES) <= 0.02)
    assert np.all(np.abs(means[0] - means[1]) <= 0.015)
    assert abs(gaps[0] - gaps[1]) <= 0.006


@pytest.mark.parametrize(
    "draw, band",
    [
        (lambda rng, shape: rng.choice([-1.0, 1.0], size=shape), 0.03),
        (lambda rng, shape: rng.standard_t(3, size=shape) / np.sqrt(3.0), None),
    ],
    ids=["rademacher", "t3"],
)
def test_certificate_holds_for_non_gaussian_noise(draw, band):
    # the determinant equation is algebra on the sample, not a limit: it
    # certifies the outliers of Rademacher and standardized t3 pairs too.  r_hat
    # is checked only where the entries have a finite fourth moment
    p, q, n = 40, 80, 400
    t = np.array([spike_to_t(r) for r in SPIKES])
    ratios = ratios_from_dims(p, q, n)
    r_hat = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Y = draw(rng, (q, n))
        X = draw(rng, (p, n))
        X[:2] += t[:, None] * Y[:2]
        pair = DataPair(X=X, Y=Y, t=t)
        lambdas = squared_canonical_correlations(pair).lambdas[:2]
        oracle = DeterminantOracle(pair)
        for lam in lambdas:
            assert abs(oracle.normalized_det(float(lam))) < 1e-10
        assert abs(oracle.normalized_det(float(lambdas[0]) + 0.01)) > 1e-3
        r_hat.append([gamma_inverse(float(lam), ratios) for lam in lambdas])
    if band is not None:
        assert np.all(np.abs(np.mean(r_hat, axis=0) - SPIKES) <= band)
