"""Per-layer tracing of pemi from outside the library.

The tracer swaps pemi's functions and methods for timing wrappers, and
puts the originals back when it is uninstalled.  A module-level function
is replaced at every place a caller looks its name up: ``pemi.fast``
imports ``weighted_pvalue_history`` by name, so patching ``pemi.rules``
alone would miss the calls made from ``fast``.  Methods are replaced on
the class that defines them, which covers every subclass that inherits
them.

Every timed call adds its duration to its layer's busy time (counted
once while calls of that layer nest) and its duration minus that of the
timed calls it made to the layer's self time.  Calls into the coarse
layers (experiment, crosscheck, oracle, fast, engine) and permutation
sampling are also kept as spans: name, start, end, parent span id and the
unit of work they belong to.  Calls below them are timed but not kept,
so a traced run stays small in memory, and the hottest leaves (model
evaluations, per-permutation concatenations, per-step weights) are only
counted, which keeps the tracing overhead down.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

# pemi module -> layer.  ``thresholds`` holds the adaptive testing levels
# the p-value rules call, so it is booked under ``rules``.
MODULE_LAYER = {
    "pemi.permutations": "permutations",
    "pemi.types": "types",
    "pemi.rules": "rules",
    "pemi.thresholds": "rules",
    "pemi.scores": "scores",
    "pemi.fast": "fast",
    "pemi.engine": "engine",
    "pemi.quantiles": "quantiles",
    "pemi.sets": "sets",
    "pemi.oracle": "oracle",
    "pemi.crosscheck": "crosscheck",
    "pemi.generators": "generators",
    "pemi.metrics": "metrics",
    "pemi.experiment": "experiment",
}
LAYERS = tuple(dict.fromkeys(MODULE_LAYER.values()))

SPAN_LAYERS = frozenset({"experiment", "crosscheck", "oracle", "fast", "engine"})
SPAN_FUNCTIONS = frozenset({"sample_permutations"})

# The prediction-set constructors of pemi.fast; their durations give fast.set_ms.
FAST_SET_FUNCTIONS = frozenset(
    {"covariate_set", "covariate_set_randomized", "conformal_pvalue_set", "elond_set", "earlier_outcome_set"}
)
PVALUE_FUNCTIONS = frozenset({"pemi_pvalue", "pemi_pvalue_randomized"})
# A model maps covariates to predictions; these are the model classes a
# config or the battery can reach.  Their calls are counted, not timed.
MODEL_CLASSES = frozenset({"LinearModel", "TrueMeanModel", "ColumnModel", "CutoffScoreFromModel"})
# Leaves called once per permutation or per step: counted in their layer's
# calls but not timed, so their time stays in the caller's self time.
HOT_LEAVES = frozenset(
    {
        "DataSequence.full_x",
        "DataSequence.full_y",
        "DataSequence.full_cutoffs",
        "mean_nonlinear",
        "mean_setting3",
        "recency_weights",
        "EarlierOutcomeRule.weights",
        "ConformalPValueRule.weights",
        "default_gamma",
    }
)
# The battery's gamma sequence is a rule parameter evaluated per step, not a check.
UNWRAPPED = frozenset({"GeometricGamma.__call__"})


class LayerStats:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Wraps pemi while installed; collects layer totals, counters and spans."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers = {name: LayerStats() for name in LAYERS}
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple] = []  # (span id, parent id, name, start, end, unit)
        self.unit = 0
        self._stack: list[list] = []  # frames: [child seconds, enclosing span id]
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pemi" or name.startswith("pemi."))
        ]
        wrapped_functions: dict[int, object] = {}
        for mod in modules:
            layer = MODULE_LAYER.get(mod.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped_functions[id(obj)] = obj
        # rebind every module-level lookup site, the package namespace included
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped_functions:
                    layer = MODULE_LAYER[obj.__module__]
                    self._patch(mod, name, self._wrapper(obj, layer, obj.__name__, site=mod.__name__))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        if cls.__name__ in MODEL_CLASSES and "__call__" in vars(cls):
            self._patch(cls, "__call__", self._model_counter(vars(cls)["__call__"]))
            return
        for name, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__", False):
                continue
            if name.startswith("_") and name not in ("__call__", "__post_init__"):
                continue
            label = f"{cls.__name__}.{name}"
            if label not in UNWRAPPED:
                self._patch(cls, name, self._wrapper(fn, layer, label, site=cls.__module__))

    # -- wrappers -------------------------------------------------------

    def _model_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["model_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrapper(self, fn, layer: str, label: str, site: str):
        stats = self.layers[layer]
        if label in HOT_LEAVES:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats.calls += 1
                return fn(*args, **kwargs)

            return counted
        stack = self._stack
        clock = self.clock
        hook = self._hook_for(label, site)
        span = layer in SPAN_LAYERS or label in SPAN_FUNCTIONS
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on return
                frame = [0.0, span_id]
            else:
                frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_time += dur - frame[0]
                if not stats.depth:
                    stats.busy += dur
                if stack:
                    stack[-1][0] += dur
                if span:
                    parent = stack[-1][1] if stack else -1
                    spans[span_id] = (span_id, parent, label, start, end, tracer.unit)
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return wrapper

    def _hook_for(self, label: str, site: str):
        counts, times, samples = self.counts, self.times, self.samples
        if label == "sample_permutations":
            def hook(args, kwargs, result, dur):
                counts["permutation_rows"] += result.m
            return hook
        if label == "permute_with_imputation" and site == "pemi.engine":
            def hook(args, kwargs, result, dur):
                counts["engine_apply_calls"] += 1
            return hook
        if label == "PermutationSample.__post_init__":
            def hook(args, kwargs, result, dur):
                times["validate"] += dur
            return hook
        if label.endswith(".select") and site == "pemi.rules":
            def hook(args, kwargs, result, dur):
                counts["select_calls"] += 1
            return hook
        if label in PVALUE_FUNCTIONS:
            def hook(args, kwargs, result, dur):
                perms = kwargs["perms"] if "perms" in kwargs else args[4]
                counts["pvalue_calls"] += 1
                counts["ref_reselected"] += result.ref_size - 1
                counts["ref_sampled"] += perms.m
            return hook
        if label in FAST_SET_FUNCTIONS:
            def hook(args, kwargs, result, dur):
                if self.layers["fast"].depth == 0:
                    samples["fast_set_ms"].append(dur * 1e3)
            return hook
        if label == "check_instance":
            def hook(args, kwargs, result, dur):
                samples["check_ms"].append(dur * 1e3)
            return hook
        return None

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        """One CSV line per span, in the order the spans started."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,name,start_s,end_s,unit\n")
            for rec in self.spans:
                if rec is not None:
                    sid, parent, name, start, end, unit = rec
                    fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f},{unit}\n")
