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
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import fast
from .datasets import StreamData, load_dataset
from .errors import ConfigurationError, GuardError, ParseError
from .generators import GeneratorConfig, TrueMeanModel, feature_dim, generate
from .metrics import Event, FcrReport, MetricsRow, fcr_report, summarize
from .oracle import MAX_ENUM_SIZE, all_orders_sample
from .permutations import sample_permutations
from .quantiles import coverage_rank, kth_smallest_or_inf
from .rules import (
    AlwaysSelectRule,
    ConformalPValueRule,
    CutoffScoreFromModel,
    DecisionDrivenRule,
    EarlierOutcomeRule,
    ELondRule,
    SelectionRule,
    SelectionTaxonomy,
    UncertaintyBudgetRule,
    WeightedPredictionRule,
    recency_weights,
)
from .scores import AbsoluteResidualScore, LastPointScore, fit_linear_model
from .sets import ThresholdSet
from .thresholds import FixedThreshold, LondEngine, lond_threshold
from .types import DataSequence

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "resolve_experiment",
    "run_experiment",
    "write_outputs",
    "recompute_metrics",
    "vanilla_set",
]

METHODS = ("pemi_det", "pemi_rand", "vanilla", "oracle")

# The type each config field must have; bool is an Integral, so it is rejected separately.
_FIELD_TYPES = {
    **dict.fromkeys(("T", "N", "M", "seed", "offline_n", "workers"), Integral),
    "alpha": Real,
    **dict.fromkeys(("rule", "score"), dict),
    **dict.fromkeys(("generator", "cutoff"), (dict, type(None))),
    **dict.fromkeys(("dataset", "out"), (str, type(None))),
    "methods": (list, tuple),
    "taxonomy_fcr": bool,
}


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
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
                raise ConfigurationError(f"config key {name!r} has the wrong type: {value!r}")
        if self.T < 1 or self.N < 1:
            raise ConfigurationError("horizon and replication count must be >= 1")
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0,1), got {self.alpha}")
        if self.M < 0:
            raise ConfigurationError("M must be >= 0")
        if self.offline_n < 0:
            raise ConfigurationError("offline_n must be >= 0")
        if self.workers < 1:
            raise ConfigurationError(f"config key 'workers' must be >= 1, got {self.workers}")
        if not self.methods:
            raise ConfigurationError("config key 'methods' must name at least one method")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigurationError(f"unknown methods {bad}; choose from {METHODS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigurationError(f"duplicate methods {repeated}; list each method once")
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


_REQUIRED = object()


class _Options:
    """One config section's options, each popped once as it is read: as
    a finite number (integral for an integer option) or as a model built
    through ``_MODELS``.  ``done`` rejects any option left unread."""

    def __init__(self, spec: dict, what: str, gen: GeneratorConfig | None, stream: StreamData | None):
        self.spec, self.what, self.gen, self.stream = dict(spec), what, gen, stream

    def pop(self, key: str, default: Any = _REQUIRED) -> Any:
        if key in self.spec:
            return self.spec.pop(key)
        if default is _REQUIRED:
            raise ConfigurationError(f"{self.what} is missing option {key!r}")
        return default

    def number(self, key: str, default: Any = _REQUIRED, integer: bool = False) -> Any:
        raw = self.pop(key, default)
        if raw is default:  # absent, or the default itself: a None default leaves a null option off
            return raw
        try:
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if isinstance(raw, bool) or not math.isfinite(value):
            raise ConfigurationError(f"option {key!r} must be a finite number, got {raw!r}")
        if integer and not value.is_integer():
            raise ConfigurationError(f"option {key!r} must be an integer, got {raw!r}")
        return value if not integer else int(raw) if isinstance(raw, Integral) else int(value)

    def model(self, key: str = "model") -> Any:
        return self.model_of(self.pop(key, None))

    def model_of(self, spec: Any) -> Any:
        """An absent or empty spec is a generator's true mean or a dataset's first column."""
        if spec in (None, {}):
            spec = {"name": "true_mean" if self.gen is not None else "column"}
        return _build(_MODELS, spec, "model", self.gen, self.stream)

    def generator(self) -> GeneratorConfig:
        if self.gen is None:
            raise ConfigurationError(f"{self.what} needs a generator run")
        return self.gen

    def done(self, built: Any = None) -> Any:
        if self.spec:
            raise ConfigurationError(f"unknown options for {self.what}: {sorted(self.spec)}")
        return built


def _build(table: dict, spec: Any, section: str, gen, stream, default: Any = _REQUIRED) -> Any:
    """The entry of ``table`` that ``spec`` names, built from the spec's other options."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"a {section} spec must be a mapping, got {spec!r}")
    opts = _Options(spec, section, gen, stream)
    name = opts.pop("name", default)
    if not isinstance(name, str) or name not in table:
        raise ConfigurationError(f"unknown {section} {name!r}")
    opts.what = f"{section} {name!r}"
    return opts.done(table[name](opts))


def _column_model(o: _Options) -> ColumnModel:
    idx = o.number("index", 0, integer=True)
    dim = o.stream.X.shape[1] if o.stream is not None else feature_dim(o.gen)
    if not -dim <= idx < dim:
        raise ConfigurationError(f"model column {idx} outside the {dim} feature columns")
    return ColumnModel(idx)


def _linear_fit_model(o: _Options):
    gen = o.generator()
    train_n = o.number("train_n", 500, integer=True)
    train_seed = o.number("train_seed", 1, integer=True)
    n_coef = feature_dim(gen) + 1
    if train_n < n_coef:
        raise ConfigurationError(
            f"option 'train_n' must be >= {n_coef}, one row per fitted coefficient, got {train_n}"
        )
    rng = np.random.default_rng(np.random.SeedSequence((train_seed, 88261)))
    return fit_linear_model(*generate(gen, train_n, rng))


_MODELS = {
    "true_mean": lambda o: TrueMeanModel(o.generator()),
    "column": _column_model,
    "linear_fit": _linear_fit_model,
}


def _uncertainty_budget(o: _Options) -> UncertaintyBudgetRule:
    specs = o.pop("models")
    if not isinstance(specs, list):
        raise ConfigurationError(f"option 'models' must be a list, got {specs!r}")
    return UncertaintyBudgetRule(models=tuple(o.model_of(s) for s in specs), gamma=o.number("gamma"))


def _conformal_pvalue(o: _Options) -> ConformalPValueRule:
    engine = FixedThreshold(o.number("q")) if "q" in o.spec else LondEngine(o.number("test_alpha", 0.1))
    return ConformalPValueRule(CutoffScoreFromModel(o.model()), engine, o.number("decay", None))


_RULES = {
    "always": lambda o: AlwaysSelectRule(),
    "decision_driven": lambda o: DecisionDrivenRule(
        tau0=o.number("tau0"), tau1=o.number("tau1"), mu=o.model()
    ),
    "weighted_quantile": lambda o: WeightedPredictionRule(
        mu=o.model(), q_sel=o.number("q_sel", 0.1), decay=o.number("decay", None)
    ),
    "weighted_average": lambda o: WeightedPredictionRule(
        mu=o.model(), mode="average", decay=o.number("decay", None)
    ),
    "uncertainty_budget": _uncertainty_budget,
    "conformal_pvalue": _conformal_pvalue,
    "elond": lambda o: ELondRule(
        f_score=CutoffScoreFromModel(o.model()), alpha=o.number("test_alpha", 0.1)
    ),
    "earlier_outcome": lambda o: EarlierOutcomeRule(
        mu=o.model(), beta_sel=o.number("beta_sel"), decay=o.number("decay", None)
    ),
}

_SCORES = {"abs_residual": lambda o: AbsoluteResidualScore(model=o.model())}


def _resolve_generator(spec: dict) -> GeneratorConfig:
    o = _Options(spec, "generator", None, None)
    setting = {"setting": o.pop("setting")} if "setting" in o.spec else {}
    # every other generator option is a number
    numbers = {f.name: o.number(f.name) for f in dataclasses.fields(GeneratorConfig) if f.name in o.spec}
    return o.done(GeneratorConfig(**setting, **numbers))


def _resolve_cutoff(spec: dict | None, gen: GeneratorConfig | None) -> float | None:
    if spec is None:
        return None
    o = _Options(spec, "cutoff", gen, None)
    if "value" in spec:
        return o.done(o.number("value"))
    if "quantile" not in spec:
        raise ConfigurationError("cutoff needs a 'value' or a 'quantile'")
    if gen is None:
        raise ConfigurationError("cutoff quantile needs a generator run (datasets carry a c column)")
    q = o.done(o.number("quantile"))
    if not 0 <= q <= 1:
        raise ConfigurationError(f"option 'quantile' must be in [0, 1], got {q}")
    # the quantile of 2,000 fresh labels from a fixed seed, so a config fixes its cutoff
    rng = np.random.default_rng(np.random.SeedSequence((7, 55117)))
    return float(np.quantile(generate(gen, 2000, rng)[1], q))


def _lond_reaches_floor(lond: LondEngine | ELondRule, T: int, floor: Callable[[int], float]) -> bool:
    """Whether some step t <= T has a LOND level (every earlier step a
    discovery) at or above ``floor(t)``, the least p-value step t can see."""
    return any(lond_threshold(lond.alpha, lond.gamma(t), t - 1) >= floor(t) for t in range(1, T + 1))


@dataclass(frozen=True)
class ResolvedExperiment:
    config: ExperimentConfig
    gen: GeneratorConfig | None
    stream: StreamData | None
    rule: SelectionRule
    score: LastPointScore
    cutoff_value: float | None


def resolve_experiment(config: ExperimentConfig) -> ResolvedExperiment:
    gen = _resolve_generator(config.generator) if config.generator is not None else None
    stream = load_dataset(config.dataset) if config.dataset is not None else None
    rule = _build(_RULES, config.rule, "rule", gen, stream)
    score = _build(_SCORES, config.score, "score", gen, stream, default="abs_residual")
    cutoff_value = _resolve_cutoff(config.cutoff, gen)
    if rule.needs_cutoffs and cutoff_value is None and (stream is None or stream.cutoffs is None):
        raise ConfigurationError("this rule needs cutoffs: configure 'cutoff' or provide a c column")
    if rule.needs_offline and config.offline_n < 1:
        raise ConfigurationError("the e-value rule needs offline_n >= 1")
    # a p-value's floor: w_t / sum(w) for the weighted conformal one, 1 / (offline_n + 1) for e-LOND's
    if isinstance(getattr(rule, "engine", None), LondEngine) and not _lond_reaches_floor(
        rule.engine, config.T, lambda t: 1 / np.cumsum(recency_weights(t, rule.decay))[-1]
    ):
        raise ConfigurationError(
            "this LOND rule never selects: test_alpha * gamma(t) * t < 1 / sum(weights) at every t <= T"
        )
    if isinstance(rule, ELondRule) and not _lond_reaches_floor(
        rule, config.T, lambda t: 1 / (config.offline_n + 1)
    ):
        raise ConfigurationError(
            "this e-LOND rule never selects: test_alpha * gamma(t) * t < 1 / (offline_n + 1) at every t <= T"
        )
    if rule.online_only and config.offline_n:
        raise ConfigurationError("this rule runs on online slots only: offline_n must be 0")
    if config.taxonomy_fcr and not rule.covariate_only:
        raise ConfigurationError("trajectory-pinned sets are implemented for label-free rules")
    if config.taxonomy_fcr and config.offline_n:
        raise ConfigurationError("trajectory-pinned sets run on plain online sequences")
    if "pemi_rand" in config.methods and not rule.covariate_only:
        raise ConfigurationError("pemi_rand has a closed form for label-free rules only")
    if "oracle" in config.methods:
        if not rule.covariate_only:
            raise ConfigurationError("the oracle method supports label-free rules only")
        if config.offline_n + config.T > MAX_ENUM_SIZE:
            raise GuardError(
                f"oracle method enumerates all orderings; needs offline_n + T <= {MAX_ENUM_SIZE}"
            )
    if stream is not None and config.offline_n + config.T > len(stream):
        raise ConfigurationError("dataset shorter than offline_n + T")
    return ResolvedExperiment(config, gen, stream, rule, score, cutoff_value)


def vanilla_set(past_scores: np.ndarray, alpha: float) -> ThresholdSet:
    """Split-conformal baseline: calibrate on all past points' scores.

    Threshold = the rank-``coverage_rank(alpha, t)`` smallest of the t-1
    past scores, the rank a closed form takes on a reference of size t;
    +inf when the rank runs past the end (no calibration yet).
    """
    return ThresholdSet(kth_smallest_or_inf(coverage_rank(alpha, len(past_scores) + 1), past_scores))


# ---------------------------------------------------------------------------
# the replication loop
# ---------------------------------------------------------------------------


def _stream_for_rep(res: ResolvedExperiment, rep: int, rng: np.random.Generator):
    cfg = res.config
    n = cfg.offline_n + cfg.T
    if res.gen is not None:
        X, Y = generate(res.gen, n, rng)
        cuts = np.full(n, res.cutoff_value) if res.rule.needs_cutoffs else None
        return X, Y, cuts
    stream = res.stream
    order = np.arange(len(stream)) if rep == 0 else rng.permutation(len(stream))
    order = order[:n]
    cuts = None
    if res.rule.needs_cutoffs:
        cuts = stream.cutoffs[order] if stream.cutoffs is not None else np.full(n, res.cutoff_value)
    return stream.X[order], stream.y[order], cuts


def _observed_trajectory(res: ResolvedExperiment, X, Y, cuts) -> np.ndarray:
    """Selection decisions s_1..s_T on the observed online stream, from point values computed once."""
    return np.asarray(res.rule.trajectory(_data_at(res, X, Y, cuts, res.config.T)), dtype=bool)


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
                dset = fast.covariate_set(data, res.rule, res.score, full, cfg.alpha, taxonomy)
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

    @property
    def warnings(self) -> list[str]:
        """One line per method that issued no set."""
        issued = {e.method for e in self.events}
        return [f"method {m} issued no prediction sets" for m in self.config.methods if m not in issued]


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
    fcr = [fcr_report(events, m, config.N) for m in config.methods]
    return ExperimentResult(config=config, events=events, rows=rows, fcr=fcr)


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def write_outputs(result: ExperimentResult, out_dir: str | Path | None = None) -> dict[str, Path]:
    out = Path(out_dir if out_dir is not None else result.config.out or "pemi-results")
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
    if warnings := result.warnings:
        payload["warnings"] = warnings
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
    """Rebuild the per-time aggregates from an event log (audit path).

    A row that lacks a column, holds a cell that does not parse, a ``rep``
    below 0, a ``t`` below 1, a method outside ``METHODS``, a ``covered``
    other than 0 or 1, or a NaN or negative ``size`` is a ``ParseError``
    naming ``path:line``; an infinite size is valid.
    """
    import csv as _csv

    events = []
    with open(events_path, newline="", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        for row in reader:
            try:
                rep, t, covered, size = int(row["rep"]), int(row["t"]), int(row["covered"]), float(row["size"])
                if rep < 0 or t < 1 or row["method"] not in METHODS or covered not in (0, 1) or not size >= 0:
                    raise ValueError
                events.append(Event(rep=rep, t=t, method=row["method"], covered=covered, size=size))
            except (KeyError, TypeError, ValueError):  # a short row leaves None cells
                raise ParseError(f"{events_path}:{reader.line_num}: cannot parse event {row}") from None
    rows = summarize(events)
    if out_path is not None:
        _write_metrics(Path(out_path), rows)
    return rows
