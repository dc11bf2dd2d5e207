"""The exploration loop: generator asks, pool evaluates, front falls out.

:func:`run_search` is the one loop every search mode shares — factorial,
evolutionary, or any future :class:`~repro.dse.generators.CandidateGenerator`.
:func:`factorial_search` and :func:`evolutionary_search` are the two
conveniences the CLI, the experiment drivers, and the examples call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.dse.generators import (
    CandidateGenerator,
    EvolutionaryGenerator,
    FactorialGenerator,
)
from repro.dse.objectives import EvaluatedCandidate, Evaluator, Objective
from repro.dse.pareto import ParetoFront, pareto_front
from repro.dse.pool import EvaluationPool
from repro.dse.space import SearchSpace
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ExplorationResult:
    """Everything a finished search produced.

    ``evaluated`` holds every distinct candidate evaluated (first-seen
    order, infeasible ones included); ``front`` is the crowding-ranked
    Pareto set of the feasible subset.
    """

    space: SearchSpace
    objectives: tuple[Objective, ...]
    evaluated: tuple[EvaluatedCandidate, ...]
    front: ParetoFront
    mode: str
    generations: int

    @property
    def num_evaluated(self) -> int:
        return len(self.evaluated)

    @property
    def num_feasible(self) -> int:
        return sum(1 for entry in self.evaluated if entry.feasible)

    def evaluation(self, key: str) -> EvaluatedCandidate:
        for entry in self.evaluated:
            if entry.key == key:
                return entry
        raise ConfigurationError(f"no evaluation with key {key!r}")

    def table(self) -> dict[str, dict[str, float]]:
        """Candidate key -> objective name -> value (feasible candidates)."""
        return {e.key: e.vector.as_dict() for e in self.evaluated if e.vector is not None}

    def value(self, objective: str, **labels: object) -> float:
        """``objective`` of the one candidate whose labels include ``labels``
        (dimensions that do not tell candidates apart may be left out)."""
        matches = [
            entry for entry in self.evaluated
            if all(entry.candidate.label_map().get(name) == str(label)
                   for name, label in labels.items())
        ]
        if len(matches) != 1:
            raise ConfigurationError(f"labels {labels} match {len(matches)} candidates, not one")
        if matches[0].vector is None:
            raise ConfigurationError(
                f"candidate {matches[0].key!r} is infeasible: {matches[0].infeasible_reason}"
            )
        return matches[0].vector.value(objective)


def run_search(
    space: SearchSpace,
    evaluator: Evaluator,
    generator: CandidateGenerator,
    *,
    pool: EvaluationPool | None = None,
    jobs: int = 1,
    results_dir: str | Path | None = None,
    mode: str = "custom",
) -> ExplorationResult:
    """Drive a generator to exhaustion and extract the Pareto front."""
    if pool is None:
        pool = EvaluationPool(
            evaluator, jobs=jobs, results_dir=results_dir, space=space
        )
    archive: dict[str, EvaluatedCandidate] = {}
    generations = 0
    while (batch := generator.ask()) is not None:
        evaluated = pool.evaluate(batch)
        generator.tell(evaluated)
        for entry in evaluated:
            archive.setdefault(entry.key, entry)
        generations += 1
    entries = tuple(archive.values())
    return ExplorationResult(
        space=space,
        objectives=tuple(evaluator.objectives),
        evaluated=entries,
        front=pareto_front(entries),
        mode=mode,
        generations=generations,
    )


def factorial_search(
    space: SearchSpace,
    evaluator: Evaluator,
    *,
    fixed: Mapping[str, str] | None = None,
    jobs: int = 1,
    results_dir: str | Path | None = None,
) -> ExplorationResult:
    """Exhaustive (optionally sliced) grid search over the space."""
    return run_search(
        space,
        evaluator,
        FactorialGenerator(space, fixed=fixed),
        jobs=jobs,
        results_dir=results_dir,
        mode="factorial",
    )


def evolutionary_search(
    space: SearchSpace,
    evaluator: Evaluator,
    *,
    population_size: int = 16,
    generations: int = 6,
    seed: int = 0,
    mutation_rate: float = 0.25,
    crossover_rate: float = 0.9,
    jobs: int = 1,
    results_dir: str | Path | None = None,
) -> ExplorationResult:
    """Seeded NSGA-II-style search; deterministic for a fixed seed."""
    generator = EvolutionaryGenerator(
        space,
        population_size=population_size,
        generations=generations,
        seed=seed,
        mutation_rate=mutation_rate,
        crossover_rate=crossover_rate,
    )
    return run_search(
        space,
        evaluator,
        generator,
        jobs=jobs,
        results_dir=results_dir,
        mode="evolutionary",
    )
