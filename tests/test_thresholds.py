import math

import numpy as np
import pytest

from pemi.errors import ConfigurationError
from pemi.thresholds import (
    FixedThreshold,
    LondEngine,
    default_gamma,
    lond_threshold,
)


def test_lond_threshold_examples():
    assert lond_threshold(0.1, 0.5, 0) == pytest.approx(0.05)
    assert lond_threshold(0.1, 0.5, 3) == pytest.approx(0.2)
    assert lond_threshold(0.1, default_gamma(1), 0) == pytest.approx(0.1 * 6 / math.pi**2)


def test_lond_threshold_invalid_gamma():
    with pytest.raises(ConfigurationError):
        lond_threshold(0.1, -0.5, 0)
    with pytest.raises(ConfigurationError):
        lond_threshold(0.1, 0.5, -1)


def test_default_gamma_is_summable():
    assert sum(default_gamma(t) for t in range(1, 200_000)) < 1.0


def test_lond_engine_discovery_scaling():
    eng = LondEngine(alpha=0.4, gamma=lambda t: 0.5**t)
    p = np.array([0.01, 0.9, 0.01, 0.9])
    a = eng.alphas(p)
    # step 1: 0.4*0.5; rejection there doubles the multiplier afterwards
    assert a[0] == pytest.approx(0.2)
    assert a[1] == pytest.approx(0.4 * 0.25 * 2)
    assert a[2] == pytest.approx(0.4 * 0.125 * 2)
    assert a[3] == pytest.approx(0.4 * 0.0625 * 3)


@pytest.mark.parametrize("engine", [FixedThreshold(0.3), LondEngine(alpha=0.4)])
def test_engines_read_only_the_past(engine):
    """alpha_j may depend on p_1..p_{j-1} only."""
    rng = np.random.default_rng(11)
    p = rng.uniform(size=12)
    base = engine.alphas(p)
    for j in range(12):
        q = p.copy()
        q[j:] = rng.uniform(size=12 - j)  # rewrite the present and future
        assert np.allclose(engine.alphas(q)[: j], base[: j])


@pytest.mark.parametrize("engine", [FixedThreshold(0.3), LondEngine(alpha=0.4)])
def test_batch_matches_rowwise(engine):
    """Bit for bit: the engine decides a batch of permuted rows through the same ``alphas``."""
    for R in (5, 200):
        p = np.random.default_rng(3).uniform(size=(R, 7))
        batch = engine.alphas(p)
        for r in range(R):
            assert np.array_equal(batch[r], engine.alphas(p[r]))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -0.1])
def test_lond_alpha_outside_unit_interval_rejected(alpha):
    with pytest.raises(ConfigurationError):
        LondEngine(alpha=alpha)
