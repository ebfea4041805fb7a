"""Selection-conditional conformal prediction for online selection rules.

The central object is a reference set of permutations: orderings of the
observed data under which the (order-sensitive) selection rule would
still have picked the test point.  Calibrating conformity scores over
that reference set yields prediction sets with finite-sample coverage
conditional on selection, for any rule and any score.

Layers:

* :mod:`pemi.types`, :mod:`pemi.permutations`, :mod:`pemi.quantiles` —
  data model, seeded sampling, quantile primitives;
* :mod:`pemi.rules`, :mod:`pemi.thresholds`, :mod:`pemi.scores` — the
  selection-rule families, adaptive testing levels, conformity scores;
* :mod:`pemi.engine` — direct (per-label) inference for arbitrary rules,
  including offline blocks, trajectory taxonomies, multiple test points;
* :mod:`pemi.fast` — closed-form prediction sets for the structured rule
  families and for label-free multi-test rules;
* :mod:`pemi.oracle`, :mod:`pemi.crosscheck` — exhaustive-enumeration
  ground truth and the consistency battery;
* :mod:`pemi.generators`, :mod:`pemi.experiment`, :mod:`pemi.cli` — the
  simulation bench.
"""

from .engine import (
    SelectionPValue,
    multi_test_pvalue,
    pemi_pvalue,
    pemi_pvalue_randomized,
    pemi_set_grid,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GuardError,
    ParseError,
    PemiError,
    PreconditionError,
    SchemaError,
)
from .fast import multi_test_threshold_set
from .permutations import sample_permutations
from .quantiles import weighted_quantile
from .types import DataSequence, MultiTestData, PermutationSample

__all__ = [
    "DataSequence",
    "MultiTestData",
    "PermutationSample",
    "SelectionPValue",
    "sample_permutations",
    "weighted_quantile",
    "pemi_pvalue",
    "pemi_pvalue_randomized",
    "pemi_set_grid",
    "multi_test_pvalue",
    "multi_test_threshold_set",
    "PemiError",
    "DomainError",
    "ConfigurationError",
    "PreconditionError",
    "GuardError",
    "SchemaError",
    "ParseError",
]

__version__ = "0.1.0"
