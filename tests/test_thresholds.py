import math

import numpy as np
import pytest

from pemi.errors import ConfigurationError
from pemi.thresholds import (
    FixedThreshold,
    LondEngine,
    default_gamma,
    lond_rejections,
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


def test_lond_rejections_matches_engine():
    eng = LondEngine(alpha=0.3, gamma=lambda t: 0.5**t)
    rngp = np.random.default_rng(5).uniform(size=(4, 9))
    batch = eng.alphas_batch(rngp)
    rej = lond_rejections(rngp, 0.3, lambda t: 0.5**t)
    for r in range(4):
        assert np.array_equal(rej[r], rngp[r] <= batch[r])
        assert np.allclose(batch[r], eng.alphas(rngp[r]))


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
    p = np.random.default_rng(3).uniform(size=(5, 7))
    batch = engine.alphas_batch(p)
    for r in range(5):
        assert np.allclose(batch[r], engine.alphas(p[r]))


def test_next_alpha_consistent_with_alphas():
    eng = LondEngine(alpha=0.4, gamma=lambda t: 0.5**t)
    hist = np.array([0.05, 0.9, 0.1])
    assert eng.next_alpha(hist) == pytest.approx(eng.alphas(np.append(hist, 0.77))[-1])
