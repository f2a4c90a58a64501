"""Property tests: estimator round trip and invariances of the sample spectrum."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spikecca import (
    DataPair,
    DimensionRatios,
    ModelConfig,
    SpikeSpectrum,
    critical_threshold,
    gamma_inverse,
    gamma_map,
    sample_coupled,
    squared_canonical_correlations,
    subtract_means,
)

small = settings(derandomize=True, deadline=None, max_examples=60)

unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def spiked_pairs(draw):
    """A small sampled pair with one spike; dimensions leave room for centering."""
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 6))
    n = draw(st.integers(p + q + 3, 40))
    r = draw(st.floats(min_value=0.05, max_value=0.95))
    seed = draw(st.integers(0, 2**32))
    return sample_coupled(ModelConfig(p=p, q=q, n=n, spikes=SpikeSpectrum((r,)), seed=seed))


@small
@given(c1=st.floats(0.01, 0.9), c2=st.floats(0.01, 0.9), u=unit)
def test_gamma_inverse_undoes_gamma(c1, c2, u):
    assume(c1 + c2 < 0.99 and c1 != c2)
    ratios = DimensionRatios(c1, c2)
    lo = critical_threshold(ratios).r_c + 1e-3
    assume(lo < 1.0)
    r = lo + u * (1.0 - lo)
    assert abs(gamma_inverse(gamma_map(r, ratios), ratios) - r) < 1e-9


@small
@given(pair=spiked_pairs())
def test_spectrum_invariant_under_swapping_views(pair):
    forward = squared_canonical_correlations(pair).lambdas
    swapped = squared_canonical_correlations(DataPair(X=pair.Y, Y=pair.X)).lambdas
    assert np.max(np.abs(forward - swapped)) < 1e-12


@small
@given(pair=spiked_pairs(), shift=st.floats(-10.0, 10.0), scale=st.floats(0.1, 10.0))
def test_centered_spectrum_invariant_under_shift_and_scale(pair, shift, scale):
    base = squared_canonical_correlations(subtract_means(pair)).lambdas
    offsets = shift * np.arange(1, pair.p + 1)[:, None]
    moved = DataPair(X=pair.X + offsets, Y=scale * pair.Y)
    transformed = squared_canonical_correlations(subtract_means(moved)).lambdas
    assert np.max(np.abs(base - transformed)) < 1e-12
