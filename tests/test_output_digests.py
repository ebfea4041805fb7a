"""Pinned output bits: a small run of each simulation family writes an
``events.csv`` whose sha256 is recorded here.

A speed-up must leave every output bit unchanged, and the permutation
stream is an invariant, so a change that moves either fails here rather
than only in the benchmark's seed-1 digests.  Re-record a constant only
in a change that argues an output move.
"""

import hashlib

import pytest

from pemi.experiment import ExperimentConfig, run_experiment, write_outputs

TRUE_MEAN = {"name": "true_mean"}
BASE = {
    "T": 20,
    "N": 2,
    "M": 50,
    "alpha": 0.4,
    "seed": 1,
    "generator": {"setting": "nonlinear_1d", "sigma": 1.0, "offset": 5.0},
    "score": {"name": "abs_residual", "model": TRUE_MEAN},
}
# family -> (config entries, sha256 of events.csv)
FAMILIES = {
    "decision_driven": (
        {
            "rule": {"name": "decision_driven", "tau0": 200, "tau1": 5.5, "model": TRUE_MEAN},
            "methods": ["pemi_det", "pemi_rand", "vanilla"],
        },
        "9e70b7caeef24ee7e71f09bd8bd6a30bb8f5f299b721455e6dbfe3521f5091d7",
    ),
    "weighted_quantile": (
        {
            "rule": {"name": "weighted_quantile", "q_sel": 0.3, "model": TRUE_MEAN},
            "methods": ["pemi_det", "pemi_rand", "vanilla"],
        },
        "3d814d36006c7373cb912c926d08a2fdd5c1c98a4bfc8f3821e56bdb6931161e",
    ),
    "conformal_pvalue": (
        {
            "rule": {"name": "conformal_pvalue", "q": 0.3, "decay": 0.99, "model": TRUE_MEAN},
            "cutoff": {"quantile": 0.7},
            "methods": ["pemi_det", "vanilla"],
        },
        "29a85d112e1656bf67cd54c3a5d942aae07207f95a501fcaddc94a045587735a",
    ),
    "elond": (
        {
            "rule": {"name": "elond", "test_alpha": 0.5, "model": TRUE_MEAN},
            "cutoff": {"quantile": 0.3},
            "offline_n": 20,
            "methods": ["pemi_det", "vanilla"],
        },
        "d7ffd61ef8885e08b65652eb31a5f8609b38504366111a61bcfcf9b46bb28581",
    ),
    "earlier_outcome": (
        {
            "rule": {"name": "earlier_outcome", "beta_sel": 0.9, "model": TRUE_MEAN},
            "methods": ["pemi_det", "vanilla"],
        },
        "502b1eec7639b0b6ba87781d66ccb3d62fbcdfde3233799acd3a220c3b364e07",
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_events_csv_keeps_its_recorded_digest(tmp_path, family):
    extra, digest = FAMILIES[family]
    result = run_experiment(ExperimentConfig.from_dict({**BASE, **extra}))
    assert {e.method for e in result.events} == set(extra["methods"]), "a method issued no set"
    events = write_outputs(result, tmp_path)["events"]
    assert hashlib.sha256(events.read_bytes()).hexdigest() == digest
