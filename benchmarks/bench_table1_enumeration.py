"""Table 1: template characteristics and plan-enumeration space.

Reproduces the per-template operator counts, number of enumerated plans
and number of generated training pairs, and benchmarks the enumeration
itself (the paper reports it takes under a second even for the largest
template) and the whole plan *selection* — enumerate, encode without
executing, rank — on that template, for each kind of comparator.
"""

import statistics
import time

import numpy as np
import pytest

from repro.bench.experiments import table1
from repro.bench.templates import get_template
from repro.bench.workload import WorkloadGenerator
from repro.core import (
    HeuristicComparator,
    PlanComparator,
    RandomForestComparator,
    RankSVMComparator,
    VegaPlusOptimizer,
)
from repro.core.enumerator import PlanEnumerator
from repro.ml import RandomForestClassifier, RankSVM
from repro.net import MiddlewareServer
from repro.vega.spec import parse_spec_dict


def test_table1_enumeration_space(benchmark):
    """Enumerate all templates and print the Table 1 reproduction."""
    result = benchmark.pedantic(table1, rounds=1, iterations=1)
    print("\n" + str(result))
    by_name = {r.template: r for r in result.rows_by_template}
    assert len(result.rows_by_template) == 7
    assert by_name["crossfilter"].n_plans == max(r.n_plans for r in result.rows_by_template)


def test_crossfilter_enumeration_under_a_second(benchmark):
    """Enumerating the largest plan space stays fast (paper: < 1 s)."""
    instance = WorkloadGenerator(seed=0).instantiate(get_template("crossfilter"), "flights")
    spec = parse_spec_dict(instance.spec)

    plans = benchmark(lambda: PlanEnumerator(spec).enumerate())
    assert len(plans) > 100


def _seeded_comparator(kind: str) -> PlanComparator:
    """A comparator of ``kind``; the learned ones fitted on seeded synthetic pairs."""
    if kind == "heuristic":
        return HeuristicComparator()
    rng = np.random.default_rng(11)
    differences = rng.normal(size=(300, 26))
    labels = (differences @ rng.normal(size=26) < 0).astype(int)
    if kind == "ranksvm":
        return RankSVMComparator(RankSVM(seed=0, epochs=20).fit(differences, labels))
    forest = RandomForestClassifier(n_estimators=25, max_depth=8, seed=0)
    return RandomForestComparator(forest.fit(differences, labels))


#: ``(comparator kind, seconds allowed, stride of the pairwise cross-check)``.
#: The forest's literal pairwise loop over all 756 plans is 285,390 single
#: predictions, so its cross-check runs on every fourth plan.
_SELECTION_CASES = [("heuristic", 0.25, 1), ("ranksvm", 1.0, 1), ("random_forest", 1.0, 4)]


@pytest.mark.parametrize(
    "kind,allowed_seconds,stride", _SELECTION_CASES, ids=[case[0] for case in _SELECTION_CASES]
)
def test_crossfilter_plan_selection(benchmark, harness, kind, allowed_seconds, stride):
    """Choosing among the largest plan space stays interactive (paper: < 1 s)."""
    fields = {"field_a": "distance", "field_b": "air_time", "field_c": "dep_delay"}
    instance = WorkloadGenerator(seed=0).instantiate("crossfilter", "flights", fields=fields)
    backend = harness.database_for("flights", 20_000)
    comparator = _seeded_comparator(kind)

    seconds: list[float] = []

    def choose_on_a_fresh_optimizer():
        start = time.perf_counter()
        optimizer = VegaPlusOptimizer(instance.spec, MiddlewareServer(backend), comparator)
        chosen = optimizer.choose_plan()
        seconds.append(time.perf_counter() - start)
        return chosen

    result = benchmark.pedantic(choose_on_a_fresh_optimizer, rounds=5, iterations=1)
    while len(seconds) < 5:  # --benchmark-disable runs the function once
        choose_on_a_fresh_optimizer()
    benchmark.extra_info["comparator"] = comparator.name
    benchmark.extra_info["n_plans"] = result.n_candidates
    assert result.n_candidates == 756
    assert statistics.median(seconds) <= allowed_seconds

    # The batch ranking picks what the literal pairwise loop picks.
    assert result.plan == result.candidate_plans[comparator.select_best(result.vectors)]
    sample = result.vectors[::stride]
    if kind == "ranksvm":
        literal = int(np.argmin([comparator.cost(vector) for vector in sample]))
    else:
        literal = int(np.argmax(PlanComparator.wins(comparator, sample)))
    assert comparator.select_best(sample) == literal
