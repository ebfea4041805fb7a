"""Experiment harness: configuration, replication loop, and output files.

A run draws ``N`` independent streams, walks each one through time,
issues prediction sets by every configured method at the selected steps,
and logs one event per (replication, time, method).  All randomness is
derived from the root seed per replication, so outputs are byte-identical
across runs and independent of worker count.

Outputs: ``events.csv`` (the append-only event log), ``metrics.csv``
(per-time aggregates), and ``summary.json`` (config echo, totals, FCR)
— enough to recompute every aggregate offline.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import fast
from .datasets import StreamData, load_dataset
from .errors import ConfigurationError, GuardError
from .generators import GeneratorConfig, TrueMeanModel, generate
from .metrics import Event, FcrReport, MetricsRow, fcr_report, summarize
from .oracle import all_orders_sample
from .permutations import sample_permutations
from .quantiles import inflated_quantile
from .rules import (
    AlwaysSelectRule,
    ConformalPValueRule,
    CovariateRule,
    DecisionDrivenRule,
    EarlierOutcomeRule,
    ELondRule,
    SelectionRule,
    SelectionTaxonomy,
    UncertaintyBudgetRule,
    WeightedPredictionRule,
)
from .scores import AbsoluteResidualScore, LastPointScore, fit_linear_model
from .sets import ThresholdSet
from .thresholds import FixedThreshold, LondEngine
from .types import DataSequence, OrderedSequence

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "resolve_experiment",
    "run_experiment",
    "write_outputs",
    "recompute_metrics",
    "vanilla_set",
    "OUT_DIR_ENV",
]

OUT_DIR_ENV = "PEMI_OUT_DIR"

METHODS = ("pemi_det", "pemi_rand", "vanilla", "oracle")


@dataclass(frozen=True)
class ExperimentConfig:
    T: int
    N: int
    alpha: float
    M: int
    seed: int
    rule: dict
    score: dict
    methods: tuple[str, ...] = ("pemi_det", "vanilla")
    generator: dict | None = None
    dataset: str | None = None
    offline_n: int = 0
    cutoff: dict | None = None
    taxonomy_fcr: bool = False
    out: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.T < 1 or self.N < 1:
            raise ConfigurationError("horizon and replication count must be >= 1")
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0,1), got {self.alpha}")
        if self.M < 0:
            raise ConfigurationError("M must be >= 0")
        if self.offline_n < 0:
            raise ConfigurationError("offline_n must be >= 0")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigurationError(f"unknown methods {bad}; choose from {METHODS}")
        if (self.generator is None) == (self.dataset is None):
            raise ConfigurationError("give exactly one of generator / dataset")
        object.__setattr__(self, "methods", tuple(self.methods))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigurationError(f"unknown config keys: {sorted(extra)}")
        missing = {"T", "N", "alpha", "M", "seed", "rule", "score"} - set(raw)
        if missing:
            raise ConfigurationError(f"missing config keys: {sorted(missing)}")
        raw = dict(raw)
        if "methods" in raw:
            raw["methods"] = tuple(raw["methods"])
        return cls(**raw)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["methods"] = list(self.methods)
        return out


# ---------------------------------------------------------------------------
# spec resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnModel:
    """Prediction read straight from a feature column (precomputed mu)."""

    index: int

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return X[:, self.index]


@dataclass(frozen=True)
class CutoffScoreFromModel:
    """F(x, c) = mu(x) - c, the canonical monotone cutoff score."""

    mu: Any

    def __call__(self, X: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.asarray(self.mu(X), dtype=float) - np.asarray(c, dtype=float)


def _no_options_left(spec: dict, what: str) -> None:
    if spec:
        raise ConfigurationError(f"unknown options for {what}: {sorted(spec)}")


def _resolve_model(spec: dict | None, gen: GeneratorConfig | None, stream: StreamData | None):
    spec = dict(spec or {"name": "true_mean" if gen is not None else "column"})
    name = spec.pop("name")
    if name == "true_mean":
        if gen is None:
            raise ConfigurationError("true_mean model needs a generator run")
        _no_options_left(spec, "model 'true_mean'")
        return TrueMeanModel(gen)
    if name == "column":
        idx = int(spec.pop("index", 0))
        _no_options_left(spec, "model 'column'")
        if stream is not None and idx >= stream.X.shape[1]:
            raise ConfigurationError(f"model column {idx} outside the dataset's columns")
        return ColumnModel(idx)
    if name == "linear_fit":
        if gen is None:
            raise ConfigurationError("linear_fit model needs a generator run")
        train_n = int(spec.pop("train_n", 500))
        train_seed = int(spec.pop("train_seed", 1))
        _no_options_left(spec, "model 'linear_fit'")
        rng = np.random.default_rng(np.random.SeedSequence((train_seed, 88261)))
        X, Y = generate(gen, train_n, rng)
        return fit_linear_model(X, Y)
    raise ConfigurationError(f"unknown model {name!r}")


def _resolve_rule(
    spec: dict, gen: GeneratorConfig | None, stream: StreamData | None
) -> SelectionRule:
    spec = dict(spec)
    try:
        name = spec.pop("name")
    except KeyError:
        raise ConfigurationError("rule spec needs a 'name'") from None

    def model(key: str = "model"):
        return _resolve_model(spec.pop(key, None), gen, stream)

    def done(rule: SelectionRule) -> SelectionRule:
        _no_options_left(spec, f"rule {name!r}")
        return rule

    try:
        if name == "always":
            return done(AlwaysSelectRule())
        if name == "decision_driven":
            return done(
                DecisionDrivenRule(
                    tau0=float(spec.pop("tau0")), tau1=float(spec.pop("tau1")), mu=model()
                )
            )
        if name in ("weighted_quantile", "weighted_average"):
            mode = "quantile" if name == "weighted_quantile" else "average"
            return done(
                WeightedPredictionRule(
                    mu=model(),
                    mode=mode,
                    q_sel=float(spec.pop("q_sel", 0.1)),
                    decay=spec.pop("decay", None),
                )
            )
        if name == "uncertainty_budget":
            models = tuple(_resolve_model(s, gen, stream) for s in spec.pop("models"))
            return done(UncertaintyBudgetRule(models=models, gamma=float(spec.pop("gamma"))))
        if name == "conformal_pvalue":
            if "q" in spec:
                engine = FixedThreshold(float(spec.pop("q")))
            else:
                engine = LondEngine(alpha=float(spec.pop("test_alpha", 0.1)))
            return done(
                ConformalPValueRule(
                    f_score=CutoffScoreFromModel(model()),
                    engine=engine,
                    decay=spec.pop("decay", None),
                )
            )
        if name == "elond":
            return done(
                ELondRule(
                    f_score=CutoffScoreFromModel(model()),
                    alpha=float(spec.pop("test_alpha", 0.1)),
                )
            )
        if name == "earlier_outcome":
            return done(
                EarlierOutcomeRule(
                    mu=model(), beta_sel=float(spec.pop("beta_sel")), decay=spec.pop("decay", None)
                )
            )
    except KeyError as err:
        raise ConfigurationError(f"rule {name!r} is missing option {err}") from None
    raise ConfigurationError(f"unknown rule {name!r}")


def _resolve_score(
    spec: dict, gen: GeneratorConfig | None, stream: StreamData | None
) -> LastPointScore:
    spec = dict(spec)
    name = spec.pop("name", "abs_residual")
    if name == "abs_residual":
        model = _resolve_model(spec.pop("model", None), gen, stream)
        _no_options_left(spec, f"score {name!r}")
        return AbsoluteResidualScore(model=model)
    raise ConfigurationError(f"unknown score {name!r}")


def _resolve_cutoff(spec: dict | None, gen: GeneratorConfig | None) -> float | None:
    if spec is None:
        return None
    spec = dict(spec)
    if "value" in spec:
        value = float(spec.pop("value"))
        _no_options_left(spec, "cutoff 'value'")
        return value
    if "quantile" not in spec:
        raise ConfigurationError("cutoff needs a 'value' or a 'quantile'")
    if gen is None:
        raise ConfigurationError("cutoff quantile needs a generator run (datasets carry a c column)")
    q = float(spec.pop("quantile"))
    sample_n = int(spec.pop("sample_n", 2000))
    seed = int(spec.pop("seed", 7))
    _no_options_left(spec, "cutoff 'quantile'")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 55117)))
    _, Y = generate(gen, sample_n, rng)
    return float(np.quantile(Y, q))


@dataclass(frozen=True)
class ResolvedExperiment:
    config: ExperimentConfig
    gen: GeneratorConfig | None
    stream: StreamData | None
    rule: SelectionRule
    score: LastPointScore
    cutoff_value: float | None

    @property
    def needs_cutoffs(self) -> bool:
        return isinstance(self.rule, (ConformalPValueRule, ELondRule))


def resolve_experiment(config: ExperimentConfig) -> ResolvedExperiment:
    gen = GeneratorConfig(**config.generator) if config.generator is not None else None
    stream = load_dataset(config.dataset) if config.dataset is not None else None
    rule = _resolve_rule(config.rule, gen, stream)
    score = _resolve_score(config.score, gen, stream)
    cutoff_value = _resolve_cutoff(config.cutoff, gen)
    res = ResolvedExperiment(config, gen, stream, rule, score, cutoff_value)
    if res.needs_cutoffs and cutoff_value is None and (stream is None or stream.cutoffs is None):
        raise ConfigurationError("this rule needs cutoffs: configure 'cutoff' or provide a c column")
    if isinstance(rule, ELondRule) and config.offline_n < 1:
        raise ConfigurationError("the e-value rule needs offline_n >= 1")
    if config.taxonomy_fcr and not isinstance(rule, CovariateRule):
        raise ConfigurationError("trajectory-pinned sets are implemented for label-free rules")
    if config.taxonomy_fcr and config.offline_n:
        raise ConfigurationError("trajectory-pinned sets run on plain online sequences")
    if "pemi_rand" in config.methods and not isinstance(rule, CovariateRule):
        raise ConfigurationError("pemi_rand has a closed form for label-free rules only")
    if "oracle" in config.methods:
        if not isinstance(rule, CovariateRule):
            raise ConfigurationError("the oracle method supports label-free rules only")
        if config.offline_n + config.T > 8:
            raise GuardError("oracle method enumerates all orderings; needs offline_n + T <= 8")
    if stream is not None and config.offline_n + config.T > len(stream):
        raise ConfigurationError("dataset shorter than offline_n + T")
    return res


def vanilla_set(past_scores: np.ndarray, alpha: float) -> ThresholdSet:
    """Split-conformal baseline: calibrate on all past points' scores.

    Threshold = the ceil((1-alpha) * t)-th smallest of the t-1 past
    scores, +inf when the rank runs past the end (no calibration yet).
    """
    return ThresholdSet(inflated_quantile(1 - alpha, past_scores))


# ---------------------------------------------------------------------------
# the replication loop
# ---------------------------------------------------------------------------


def _stream_for_rep(res: ResolvedExperiment, rep: int, rng: np.random.Generator):
    cfg = res.config
    n = cfg.offline_n + cfg.T
    if res.gen is not None:
        X, Y = generate(res.gen, n, rng)
        cuts = np.full(n, res.cutoff_value) if res.needs_cutoffs else None
        return X, Y, cuts
    stream = res.stream
    order = np.arange(len(stream)) if rep == 0 else rng.permutation(len(stream))
    order = order[:n]
    cuts = None
    if res.needs_cutoffs:
        cuts = stream.cutoffs[order] if stream.cutoffs is not None else np.full(n, res.cutoff_value)
    return stream.X[order], stream.y[order], cuts


def _observed_trajectory(res: ResolvedExperiment, X, Y, cuts) -> np.ndarray:
    """Selection decisions s_1..s_T on the observed online stream."""
    cfg = res.config
    n_off = cfg.offline_n
    if isinstance(res.rule, CovariateRule) and n_off == 0:
        # the reference decision on each prefix, as the closed form's precondition checks it
        vals = res.rule.point_values(X)
        return np.array([res.rule.select_values(vals[: i + 1]) for i in range(vals.shape[0])])
    seq = OrderedSequence(
        prefix_x=X[:-1],
        prefix_y=Y[:-1],
        final_x=X[-1],
        prefix_cutoffs=None if cuts is None else cuts[:-1],
        final_cutoff=None if cuts is None else float(cuts[-1]),
        n_offline=n_off,
    )
    return np.asarray(res.rule.trajectory(seq), dtype=bool)


def _data_at(res: ResolvedExperiment, X, Y, cuts, t: int) -> DataSequence:
    n_off = res.config.offline_n
    kw: dict = {}
    if n_off:
        kw.update(offline_x=X[:n_off], offline_y=Y[:n_off])
        if cuts is not None:
            kw.update(offline_cutoffs=cuts[:n_off])
    if cuts is not None:
        kw.update(cutoffs=cuts[n_off : n_off + t - 1], test_cutoff=float(cuts[n_off + t - 1]))
    return DataSequence(
        x=X[n_off : n_off + t - 1],
        y=Y[n_off : n_off + t - 1],
        test_x=X[n_off + t - 1],
        **kw,
    )


def _run_replication(res: ResolvedExperiment, rep: int) -> list[Event]:
    cfg = res.config
    ss = np.random.SeedSequence(entropy=(cfg.seed, rep))
    data_child, perm_child, u_child = ss.spawn(3)
    data_rng = np.random.default_rng(data_child)
    perm_base = int(np.random.default_rng(perm_child).integers(0, 2**63))
    u_rng = np.random.default_rng(u_child)

    X, Y, cuts = _stream_for_rep(res, rep, data_rng)
    n_off = cfg.offline_n
    traj = _observed_trajectory(res, X, Y, cuts)

    point_scores = res.score.of_points(X[n_off:], Y[n_off:])  # vanilla calibration pool
    events: list[Event] = []
    for t in range(1, cfg.T + 1):
        if not traj[t - 1]:
            continue
        u = float(u_rng.random())
        data = _data_at(res, X, Y, cuts, t)
        taxonomy = SelectionTaxonomy.singleton(traj[:t]) if cfg.taxonomy_fcr else None
        perms = None
        y_true = float(Y[n_off + t - 1])
        x_t = X[n_off + t - 1]
        for method in cfg.methods:
            if method == "vanilla":
                dset = vanilla_set(point_scores[: t - 1], cfg.alpha)
            elif method == "oracle":
                full = all_orders_sample(data.n_slots, 1 - n_off, skip_identity=True)
                dset = fast.covariate_set(data, res.rule, res.score, full, cfg.alpha)
            else:
                if perms is None:
                    perms = sample_permutations(
                        t, cfg.M, seed=(perm_base + t) & ((1 << 64) - 1), n_offline=n_off
                    )
                u_rand = u if method == "pemi_rand" else None
                dset = fast._closed_form(data, res.rule, res.score, perms, cfg.alpha, u_rand, taxonomy)
            events.append(
                Event(
                    rep=rep,
                    t=t,
                    method=method,
                    covered=int(dset.contains(y_true, res.score, x_t)),
                    size=float(dset.measure(res.score, x_t)),
                )
            )
    return events


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    events: list[Event]
    rows: list[MetricsRow]
    fcr: list[FcrReport]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute every replication and aggregate; deterministic in the seed."""
    res = resolve_experiment(config)
    events: list[Event] = []
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for chunk in pool.map(
                _run_replication, [res] * config.N, range(config.N), chunksize=16
            ):
                events.extend(chunk)
    else:
        for rep in range(config.N):
            events.extend(_run_replication(res, rep))
    rows = summarize(events)
    fcr = [fcr_report(events, m, config.N, config.T) for m in config.methods]
    return ExperimentResult(config=config, events=events, rows=rows, fcr=fcr)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _out_dir(config: ExperimentConfig) -> Path:
    env = os.environ.get(OUT_DIR_ENV)
    base = env if env else (config.out or "pemi-results")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(x: float) -> str:
    return repr(float(x))


def write_outputs(result: ExperimentResult, out_dir: str | Path | None = None) -> dict[str, Path]:
    out = Path(out_dir) if out_dir is not None else _out_dir(result.config)
    out.mkdir(parents=True, exist_ok=True)
    events_path = out / "events.csv"
    with open(events_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("rep,t,method,covered,size\n")
        for e in result.events:
            fh.write(f"{e.rep},{e.t},{e.method},{e.covered},{_fmt(e.size)}\n")
    metrics_path = out / "metrics.csv"
    _write_metrics(metrics_path, result.rows)
    summary_path = out / "summary.json"
    payload = {
        "config": result.config.to_dict(),
        "fcr": {r.method: r.fcr for r in result.fcr},
        "rows": [dataclasses.asdict(r) for r in result.rows],
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"events": events_path, "metrics": metrics_path, "summary": summary_path}


def _write_metrics(path: Path, rows: Sequence[MetricsRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("method,t,selected,covered,coverage,median_size,infinite_fraction\n")
        for r in rows:
            fh.write(
                f"{r.method},{r.t},{r.selected},{r.covered},{_fmt(r.coverage)},"
                f"{_fmt(r.median_size)},{_fmt(r.infinite_fraction)}\n"
            )


def recompute_metrics(events_path: str | Path, out_path: str | Path | None = None) -> list[MetricsRow]:
    """Rebuild the per-time aggregates from an event log (audit path)."""
    import csv as _csv

    events = []
    with open(events_path, newline="", encoding="utf-8") as fh:
        for row in _csv.DictReader(fh):
            events.append(
                Event(
                    rep=int(row["rep"]),
                    t=int(row["t"]),
                    method=row["method"],
                    covered=int(row["covered"]),
                    size=float(row["size"]),
                )
            )
    rows = summarize(events)
    if out_path is not None:
        _write_metrics(Path(out_path), rows)
    return rows
