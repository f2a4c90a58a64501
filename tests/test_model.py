import math

import numpy as np
import pytest

from spikecca import (
    ConfigurationError,
    DimensionRatios,
    DomainError,
    ModelConfig,
    SpikeSpectrum,
    coupling_constants,
    mixing_weights,
    ratios_from_dims,
    spike_to_t,
    t_to_spike,
)
from spikecca import model


def test_ratios_figure_dims():
    ratios = ratios_from_dims(500, 1000, 5000)
    assert ratios.c1 == 0.1
    assert ratios.c2 == 0.2


def test_ratios_direct_division():
    ratios = ratios_from_dims(100, 200, 1000)
    assert ratios.c1 == 100 / 1000
    assert ratios.c2 == 200 / 1000


def test_ratios_tiny_design_equal():
    ratios = ratios_from_dims(1, 1, 4)
    assert ratios.c1 == 0.25
    assert ratios.c2 == 0.25


@pytest.mark.parametrize(
    "p, q, n, fragment",
    [
        (0, 5, 20, "0 < p"),
        (5, 0, 20, "0 < q"),
        (20, 5, 20, "p < n"),
        (5, 20, 20, "q < n"),
        (10, 10, 20, "p + q < n"),
    ],
)
def test_ratios_violations_name_the_inequality(p, q, n, fragment):
    with pytest.raises(ConfigurationError, match=fragment.replace("+", r"\+")):
        ratios_from_dims(p, q, n)


@pytest.mark.parametrize(
    "c1, c2",
    [(0.0, 0.2), (1.0, 0.2), (0.2, -0.1), (0.6, 0.5),
     (5e-324, 0.5), (1e-200, 1e-200), (2.0**-65, 0.5)],
)
def test_ratio_bounds(c1, c2):
    with pytest.raises(ConfigurationError):
        DimensionRatios(c1, c2)


def test_smallest_ratio_accepted():
    ratios = DimensionRatios(2.0**-64, 0.5)
    assert (ratios.c1, ratios.c2) == (2.0**-64, 0.5)


def test_spike_to_t_symmetry_point():
    assert spike_to_t(0.5) == 1.0


def test_spike_to_t_examples():
    assert abs(spike_to_t(0.8) - 2.0) < 1e-12
    assert abs(spike_to_t(0.9) - 3.0) < 1e-12


@pytest.mark.parametrize("r", [0.0, 1.0, -0.2, 1.3])
def test_spike_to_t_domain(r):
    with pytest.raises(DomainError):
        spike_to_t(r)


def test_t_to_spike_rejects_negative():
    with pytest.raises(DomainError):
        t_to_spike(-0.5)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_t_to_spike_rejects_non_finite(t):
    with pytest.raises(DomainError):
        t_to_spike(t)


def test_t_to_spike_saturates_where_the_square_overflows():
    assert t_to_spike(1e200) == 1.0


def test_spike_round_trip_dense_grid():
    grid = np.linspace(1e-3, 0.999, 1500)
    for r in grid:
        assert abs(t_to_spike(spike_to_t(r)) - r) < 1e-12


def test_coupling_constants_identities():
    for r in np.linspace(0.01, 0.99, 200):
        c = coupling_constants(r)
        assert abs(c.alpha**2 + c.beta**2 - 1.0) < 1e-12
        assert abs(2.0 * c.alpha * c.beta - math.sqrt(r)) < 1e-12
        assert abs(c.tau - c.beta / c.alpha) < 1e-15
        # two independent derivations of the strength
        assert abs(c.t - spike_to_t(r)) < 1e-12


def test_coupling_constants_example():
    assert abs(coupling_constants(0.8).t - 2.0) < 1e-12


@pytest.mark.parametrize("r", [1.0, 0.0, -1.0, 2.0])
def test_coupling_constants_domain(r):
    with pytest.raises(DomainError):
        coupling_constants(r)


def test_mixing_weights_accept_unit_spike():
    alpha, beta = mixing_weights(1.0)
    assert abs(alpha - 1.0 / math.sqrt(2.0)) < 1e-15
    assert alpha == beta
    with pytest.raises(DomainError):
        mixing_weights(1.5)


def test_spectrum_ordering_enforced():
    with pytest.raises(ConfigurationError):
        SpikeSpectrum((0.5, 0.8))


@pytest.mark.parametrize("values", [(0.5, 0.0), (1.2,), (-0.1,)])
def test_spectrum_range_enforced(values):
    with pytest.raises(ConfigurationError):
        SpikeSpectrum(values)


def test_spectrum_empty_and_count():
    assert SpikeSpectrum(()).k == 0
    assert SpikeSpectrum((0.9, 0.9, 0.2)).k == 3
    assert SpikeSpectrum((1.0, 0.3)).r == (1.0, 0.3)


def test_model_config_constraints():
    spikes = SpikeSpectrum((0.8,))
    with pytest.raises(ConfigurationError, match="p < n"):
        ModelConfig(p=30, q=5, n=20, spikes=spikes)
    with pytest.raises(ConfigurationError, match=r"p \+ q < n"):
        ModelConfig(p=10, q=10, n=20, spikes=spikes)
    with pytest.raises(ConfigurationError, match="min"):
        ModelConfig(p=2, q=5, n=20, spikes=SpikeSpectrum((0.9, 0.8, 0.7)))
    with pytest.raises(ConfigurationError, match="seed"):
        ModelConfig(p=4, q=5, n=20, spikes=spikes, seed=-1)
    config = ModelConfig(p=4, q=5, n=20, spikes=spikes, seed=2**64 - 1)
    assert config.ratios.c1 == 0.2


def test_model_config_computes_its_ratios_once(monkeypatch):
    calls = []

    def counting_ratios_from_dims(p, q, n):
        calls.append((p, q, n))
        return ratios_from_dims(p, q, n)

    monkeypatch.setattr(model, "ratios_from_dims", counting_ratios_from_dims)
    config = ModelConfig(p=100, q=100, n=1000, spikes=SpikeSpectrum((0.8,)))
    reads = [config.ratios for _ in range(3)]
    assert config.ratios is config.ratios
    assert all(ratios is config.ratios for ratios in reads)
    assert calls == [(100, 100, 1000)]
    assert (config.ratios.c1, config.ratios.c2) == (0.1, 0.1)
    assert "ratios" not in repr(config)
