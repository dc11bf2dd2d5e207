"""Multi-objective design-space exploration over appliance configurations.

The subsystem answers ROADMAP open item 3: given the Backend registry —
where every candidate appliance is one ``make_backend`` call — which
configuration (backend, devices, scheduler, batch policy, fleet mix, rack
count, tile shape) wins on latency x throughput x energy x cost?

Layers, bottom up:

* :mod:`repro.dse.space` — declarative :class:`SearchSpace` of named
  :class:`Dimension`\\ s; candidates are label-keyed and stable across runs.
* :mod:`repro.dse.objectives` — :class:`Objective` /
  :class:`ObjectiveVector` vocabulary with minimized-space dominance.
* :mod:`repro.dse.pareto` — NSGA-II primitives: non-dominated sorting,
  crowding distance, :class:`ParetoFront` extraction.
* :mod:`repro.dse.generators` — factorial and seeded evolutionary
  candidate generators behind one ask/tell protocol.
* :mod:`repro.dse.pool` — parallel, resumable :class:`EvaluationPool`
  (``--jobs N`` bit-identical to serial; JSON persistence per candidate).
* :mod:`repro.dse.engine` — the search loop and the
  :func:`factorial_search` / :func:`evolutionary_search` entry points.
* :mod:`repro.dse.appliance` / :mod:`repro.dse.figure8` /
  :mod:`repro.dse.serving` — the built-in evaluators: the four-objective
  appliance scorer, the Fig. 8 tile sweep re-expressed as a factorial
  slice, and the report-metrics evaluator behind every serving study in
  :mod:`repro.analysis.experiments`.
"""

from repro.dse.appliance import (
    DEVICE_UNIT_PRICE_USD,
    ApplianceEvaluator,
    appliance_search_space,
)
from repro.dse.engine import (
    ExplorationResult,
    evolutionary_search,
    factorial_search,
    run_search,
)
from repro.dse.figure8 import (
    FIGURE8_OBJECTIVES,
    TilingEvaluator,
    figure8_search_space,
)
from repro.dse.generators import (
    CandidateGenerator,
    EvolutionaryGenerator,
    FactorialGenerator,
)
from repro.dse.objectives import (
    SENSES,
    EvaluatedCandidate,
    Evaluator,
    Objective,
    ObjectiveVector,
    check_vector,
    feasible_only,
)
from repro.dse.pareto import (
    FrontMember,
    ParetoFront,
    crowding_distances,
    non_dominated_sort,
    pareto_front,
)
from repro.dse.pool import EvaluationPool, candidate_seed, result_filename
from repro.dse.serving import REPORT_METRICS, ServingEvaluator
from repro.dse.space import KEY_SEPARATOR, Candidate, Dimension, SearchSpace

__all__ = [
    "KEY_SEPARATOR",
    "SENSES",
    "REPORT_METRICS",
    "DEVICE_UNIT_PRICE_USD",
    "FIGURE8_OBJECTIVES",
    "Candidate",
    "CandidateGenerator",
    "Dimension",
    "EvaluatedCandidate",
    "EvaluationPool",
    "Evaluator",
    "EvolutionaryGenerator",
    "ExplorationResult",
    "FactorialGenerator",
    "FrontMember",
    "Objective",
    "ObjectiveVector",
    "ParetoFront",
    "SearchSpace",
    "ServingEvaluator",
    "ApplianceEvaluator",
    "TilingEvaluator",
    "appliance_search_space",
    "candidate_seed",
    "check_vector",
    "crowding_distances",
    "evolutionary_search",
    "factorial_search",
    "feasible_only",
    "figure8_search_space",
    "non_dominated_sort",
    "pareto_front",
    "result_filename",
    "run_search",
]
