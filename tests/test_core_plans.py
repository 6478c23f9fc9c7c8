"""Tests for execution plans, enumeration and plan encoding."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.backends import backend_names, create_backend
from repro.bench.templates import template_names
from repro.bench.workload import WorkloadGenerator
from repro.core import (
    ExecutionPlan,
    HeuristicComparator,
    PlanEncoder,
    PlanEnumerator,
    VegaPlusOptimizer,
    VegaPlusSystem,
)
from repro.core.comparators import learned_features, normalize_cardinalities
from repro.core.encoder import (
    FEATURE_OPERATOR_TYPES,
    PlanVector,
    feature_names,
    fold_records,
    vdt_shape_key,
)
from repro.datasets import generate_dataset
from repro.errors import OptimizationError
from repro.expr import parser as expr_parser
from repro.net import MiddlewareServer
from repro.rewrite import SpecRewriter, rewritable_prefix
from repro.sql import Database
from repro.storage.column import sort_rank_key
from repro.storage.statistics import CardinalityFeedback
from repro.vega.spec import parse_spec_dict
from helpers import reference_vector, rows_match, values_equal


@pytest.fixture()
def spec(histogram_spec):
    return parse_spec_dict(histogram_spec)


# --------------------------------------------------------------------------- #
# ExecutionPlan
# --------------------------------------------------------------------------- #


def test_plan_accessors(spec):
    plan = ExecutionPlan.from_mapping({"source": 0, "binned": 2}, plan_id=3)
    assert plan.split_for("binned") == 2
    assert plan.split_for("unknown") == 0
    assert plan.total_server_transforms() == 2
    assert "binned=server[2]/client[2]" in plan.describe(spec)


def test_plan_all_client_all_server(spec):
    assert ExecutionPlan.from_mapping({"source": 0, "binned": 0}).total_server_transforms() == 0
    assert ExecutionPlan.from_mapping({"source": 0, "binned": 4}).total_server_transforms() == 4


def test_plan_equality_and_hash():
    a = ExecutionPlan.from_mapping({"x": 1})
    b = ExecutionPlan.from_mapping({"x": 1})
    assert a == b
    assert hash(a) == hash(b)


# --------------------------------------------------------------------------- #
# PlanEnumerator
# --------------------------------------------------------------------------- #


def test_enumerator_histogram_plan_count(spec):
    """The running example has 4 rewritable transforms → 5 split points."""
    plans = PlanEnumerator(spec).enumerate()
    assert len(plans) == 5
    splits = sorted(p.split_for("binned") for p in plans)
    assert splits == [0, 1, 2, 3, 4]
    assert [p.plan_id for p in plans] == list(range(5))


def test_enumerator_blocks_after_unsupported_transform(flights_db):
    spec = parse_spec_dict(
        {
            "data": [
                {"name": "source", "table": "flights"},
                {
                    "name": "derived",
                    "source": "source",
                    "transform": [
                        {"type": "filter", "expr": "datum.delay > 0"},
                        {"type": "joinaggregate", "groupby": ["carrier"], "ops": ["count"]},
                        {"type": "aggregate", "groupby": ["carrier"], "ops": ["count"]},
                    ],
                },
            ],
            "marks": [{"type": "rect", "from": {"data": "derived"}}],
        }
    )
    enumerator = PlanEnumerator(spec)
    # joinaggregate is not rewritable, so the server prefix stops at 1.
    assert rewritable_prefix(spec.data_entry("derived").transforms) == 1
    assert len(enumerator.enumerate()) == 2


def test_enumerator_child_depends_on_parent():
    spec = parse_spec_dict(
        {
            "data": [
                {"name": "source", "table": "t"},
                {"name": "filtered", "source": "source",
                 "transform": [{"type": "filter", "expr": "datum.x > 0"}]},
                {"name": "agg", "source": "filtered",
                 "transform": [{"type": "aggregate", "groupby": ["g"], "ops": ["count"]}]},
            ],
            "marks": [{"type": "rect", "from": {"data": "agg"}}],
        }
    )
    plans = PlanEnumerator(spec).enumerate()
    # filtered has 2 options; agg can only offload when filtered == 1:
    # (0,0), (1,0), (1,1) -> 3 plans.
    assert len(plans) == 3
    for plan in plans:
        if plan.split_for("agg") == 1:
            assert plan.split_for("filtered") == 1


def test_enumerator_inline_values_never_offloaded():
    spec = parse_spec_dict(
        {
            "data": [
                {"name": "inline", "values": [{"x": 1}],
                 "transform": [{"type": "aggregate", "ops": ["count"]}]},
            ],
            "marks": [{"type": "rect", "from": {"data": "inline"}}],
        }
    )
    plans = PlanEnumerator(spec).enumerate()
    assert len(plans) == 1
    assert plans[0].total_server_transforms() == 0


def test_enumerator_all_client_all_server_helpers(spec):
    enumerator = PlanEnumerator(spec)
    assert enumerator.all_client_plan().as_dict() == {"source": 0, "binned": 0}
    assert enumerator.all_server_plan().as_dict() == {"source": 0, "binned": 4}


def test_enumerator_max_plans_guard(spec, monkeypatch):
    monkeypatch.setattr("repro.core.enumerator.MAX_PLANS", 2)
    with pytest.raises(OptimizationError, match="exceeded 2 plans"):
        PlanEnumerator(spec).enumerate()


#: Each template's enumerated assignments, in enumeration order (so plan
#: ids too): count and the first 16 hex digits of the SHA-256 of
#: ``json.dumps([sorted(plan.as_dict().items()) for plan in plans])``.
ENUMERATED_PLANS = {
    "trellis_stacked_bar": (4, "edf07e732e123167"),
    "line_chart": (3, "0c979fabd2720f25"),
    "interactive_histogram": (4, "4bca282505c361f0"),
    "zoomable_heatmap": (5, "2734df7e21caa223"),
    "crossfilter": (756, "cf94dd871fd7158a"),
    "heatmap_bar": (15, "972d8ecbdb700c34"),
    "overview_detail": (40, "804098f4f6637179"),
}


def template_spec(template_name):
    return WorkloadGenerator(seed=0).instantiate(template_name, "flights").spec


@pytest.mark.parametrize("template_name", template_names())
def test_each_template_enumerates_the_pinned_assignments(template_name):
    plans = PlanEnumerator(parse_spec_dict(template_spec(template_name))).enumerate()
    text = json.dumps([sorted(plan.as_dict().items()) for plan in plans])
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (len(plans), digest) == ENUMERATED_PLANS[template_name]
    assert [plan.plan_id for plan in plans] == list(range(len(plans)))


def assert_only_enumerated_splits_build(spec):
    """Move one entry's split of the all-client or the all-server plan to
    every value from -1 to one past its transforms: ``use_plan`` builds
    the result exactly when the enumerator offers it, and otherwise raises
    :class:`OptimizationError` from the legality rule."""
    parsed = parse_spec_dict(spec)
    enumerator = PlanEnumerator(parsed)
    offered = {plan.assignment for plan in enumerator.enumerate()}
    system = VegaPlusSystem(spec, Database())
    refused = 0
    for base in (enumerator.all_client_plan(), enumerator.all_server_plan()):
        assert base.assignment in offered
        for entry in parsed.data:
            for split in range(-1, len(entry.transforms) + 2):
                plan = ExecutionPlan.from_mapping({**base.as_dict(), entry.name: split})
                if plan.assignment in offered:
                    system.use_plan(plan)
                    continue
                with pytest.raises(OptimizationError, match="is not legal"):
                    system.use_plan(plan)
                refused += 1
    assert refused


@pytest.mark.parametrize("template_name", template_names())
def test_every_template_builds_only_enumerated_splits(template_name):
    assert_only_enumerated_splits_build(template_spec(template_name))


def test_a_child_of_inline_values_builds_only_enumerated_splits():
    """Inline rows live on the client, so an entry sourcing them may not
    offload its filter, although the inline entry has no transforms."""
    spec = {
        "data": [
            {"name": "inline", "values": [{"x": 1}, {"x": 2}]},
            {"name": "kept", "source": "inline",
             "transform": [{"type": "filter", "expr": "datum.x > 1"}]},
        ],
        "marks": [{"type": "rect", "from": {"data": "kept"}}],
    }
    assert [plan.as_dict() for plan in PlanEnumerator(parse_spec_dict(spec)).enumerate()] == [
        {"inline": 0, "kept": 0}
    ]
    assert_only_enumerated_splits_build(spec)


# --------------------------------------------------------------------------- #
# PlanEncoder / PlanVector
# --------------------------------------------------------------------------- #


def test_plan_vector_array_layout():
    vector = PlanVector(plan_id=0, counts={"vdt": 2}, cardinalities={"vdt": 100.0})
    array = vector.to_array()
    assert len(array) == 2 * len(FEATURE_OPERATOR_TYPES)
    assert array[FEATURE_OPERATOR_TYPES.index("vdt")] == 2
    assert len(feature_names()) == len(array)


def test_normalize_cardinalities_log_scale():
    scaled = normalize_cardinalities(np.array([0.0, 50.0, 100.0, 1e7, 1e9])).tolist()
    # Zero stays zero, larger cardinalities map to strictly larger values,
    # everything lands in [0, 1] and the cap clamps.
    assert scaled[0] == 0.0
    assert scaled[0] < scaled[1] < scaled[2] < scaled[3]
    assert all(0.0 <= value <= 1.0 for value in scaled)
    assert scaled[4] == 1.0
    # Set-independence: a vector encodes the same alone as in a group.
    vectors = [PlanVector(plan_id=i, cardinalities={"vdt": c}) for i, c in enumerate([50.0, 1e9])]
    vdt = len(FEATURE_OPERATOR_TYPES) + FEATURE_OPERATOR_TYPES.index("vdt")
    assert learned_features(vectors[:1])[0, vdt] == learned_features(vectors)[0, vdt] == scaled[1]
    assert learned_features([]).shape == (0, 2 * len(FEATURE_OPERATOR_TYPES))


def test_encoder_measured_vs_estimated(spec, flights_db):
    middleware = MiddlewareServer(flights_db)
    rewriter = SpecRewriter(spec, middleware)
    encoder = PlanEncoder(flights_db)

    built = rewriter.build({"source": 0, "binned": 4})
    estimated = encoder.encode_estimated(built, plan_id=4)
    assert estimated.counts["vdt"] == 2  # extent VDT + bin/aggregate VDT
    built.dataflow.run()
    measured = encoder.encode_measured(built, plan_id=4)
    assert measured.counts == estimated.counts
    assert measured.cardinalities["vdt"] > 0

    client_plan = rewriter.build({"source": 0, "binned": 0})
    client_estimated = encoder.encode_estimated(client_plan, plan_id=0)
    # The all-client plan moves the whole table, so its estimated cardinality
    # far exceeds the fully offloaded plan's.
    assert client_estimated.total_cardinality > estimated.total_cardinality * 3
    assert client_estimated.counts["aggregate"] == 1


def test_encoder_measured_episode_subset(spec, flights_db):
    middleware = MiddlewareServer(flights_db)
    rewriter = SpecRewriter(spec, middleware)
    encoder = PlanEncoder(flights_db)
    built = rewriter.build({"source": 0, "binned": 0})
    built.dataflow.run()
    report = built.dataflow.update_signals({"maxbins": 30})
    episode_vector = encoder.encode_measured(
        built, plan_id=0, operator_ids=report.evaluated_operators, episode=1
    )
    full_vector = encoder.encode_measured(built, plan_id=0)
    assert episode_vector.episode == 1
    assert sum(episode_vector.counts.values()) < sum(full_vector.counts.values())


# --------------------------------------------------------------------------- #
# Plan-space encoding: fragments vs one build per plan
# --------------------------------------------------------------------------- #


def assert_same_vector(got, want):
    # Item *order* matters too: ``total_cardinality`` sums the dict's values.
    assert (got.plan_id, got.episode) == (want.plan_id, want.episode)
    assert list(got.counts.items()) == list(want.counts.items())
    assert list(got.cardinalities.items()) == list(want.cardinalities.items())


def assert_plan_space_matches_builds(optimizer, interactions):
    plans = optimizer.enumerate_plans()
    episodes = optimizer.encode_candidates(plans, interactions)
    assert len(episodes) == 1 + len(interactions)
    for index, plan in enumerate(plans):
        built = optimizer.build(plan)
        want = reference_vector(optimizer.encoder, built, plan.plan_id)
        assert_same_vector(episodes[0][index], want)
        assert_same_vector(optimizer.encoder.encode_estimated(built, plan.plan_id), want)
        for episode, interaction in enumerate(interactions, start=1):
            assert_same_vector(
                episodes[episode][index],
                reference_vector(optimizer.encoder, built, plan.plan_id, episode, interaction),
            )
    return plans


@pytest.fixture(scope="module")
def template_rows():
    return generate_dataset("flights", 3_000, seed=11)


@pytest.fixture(params=["embedded", "sqlite"])
def template_backend(request, template_rows):
    backend = create_backend(request.param)
    backend.register_rows("flights", template_rows)
    yield backend
    backend.close()


@pytest.mark.parametrize("template_name", template_names())
def test_plan_space_vectors_equal_per_plan_builds(template_name, template_backend):
    """Every plan of every template, episode 0 and three interactions."""
    instance = WorkloadGenerator(seed=0).instantiate(template_name, "flights")
    rng = np.random.default_rng(4)
    interactions = (
        [instance.sample_interaction(rng) for _ in range(3)]
        if instance.template.interactive
        else []
    )
    optimizer = VegaPlusOptimizer(instance.spec, MiddlewareServer(template_backend))
    assert_plan_space_matches_builds(optimizer, interactions)


@pytest.mark.parametrize("template_name", template_names())
def test_encoder_staleness_is_what_an_interaction_evaluates(template_name, template_rows):
    """For every plan (a seeded 40 of crossfilter's), the records
    ``fold_records`` keeps for an interaction are the operators
    ``update_signals`` evaluates: relabelling each record's type with its
    key makes the folded vector's counts name the encoder's stale set.
    The interactions are three seeded ``sample_interaction`` draws."""
    instance = WorkloadGenerator(seed=0).instantiate(template_name, "flights")
    plans = PlanEnumerator(parse_spec_dict(instance.spec)).enumerate()
    if len(plans) > 40:
        picked = np.random.default_rng(0).choice(len(plans), size=40, replace=False)
        plans = [plans[index] for index in sorted(picked)]
    rng = np.random.default_rng(4)
    interactions = [instance.sample_interaction(rng) for _ in range(3)]
    backend = create_backend("embedded")
    backend.register_rows("flights", template_rows)
    optimizer = VegaPlusOptimizer(instance.spec, MiddlewareServer(backend, enable_cache=False))
    evaluated = 0
    for plan in plans:
        built = optimizer.build(plan)
        records = [
            dataclasses.replace(record, op_type=repr(record.key))
            for record in optimizer.encoder.operator_records(built)
        ]
        key_of = {
            operator.id: repr((entry, index))
            for entry, operators in built.entry_operators.items()
            for index, operator in enumerate(operators)
        }
        built.dataflow.run()
        for interaction in interactions:
            # A signal set to the value it holds changes nothing.
            current = built.dataflow.signals.values()
            changed = {name for name, value in interaction.items() if value != current[name]}
            stale = fold_records(records, plan.plan_id, changed_signals=changed)
            report = built.dataflow.update_signals(interaction)
            assert set(stale.counts) == {key_of[i] for i in report.evaluated_operators}, (
                plan.plan_id, interaction
            )
            evaluated += len(report.evaluated_operators)
    assert evaluated or not instance.template.interactive
    backend.close()


#: Per pass of the seeded crossfilter session below (initial render, then
#: four interactions): modelled network seconds, modelled serialisation
#: seconds and payload bytes fetched.  The LAN model and the Arrow codec
#: cost bytes only, so both backends pay the same.
CROSSFILTER_PASS_COSTS = [
    (0.02408192, 3.84e-06, 5120),
    (0.01203712, 1.74e-06, 2320),
    (0.012034048, 1.596e-06, 2128),
    (0.01202944, 1.38e-06, 1840),
    (0.012027904, 1.308e-06, 1744),
]


@pytest.mark.parametrize("backend_name", backend_names())
def test_crossfilter_session_pass_costs_are_pinned(backend_name):
    """Each pass's breakdown sums that pass's own replies: its server
    seconds are theirs exactly, and its modelled costs are pinned."""
    backend = create_backend(backend_name)
    backend.register_rows("flights", generate_dataset("flights", 2_000, seed=0))
    instance = crossfilter_instance()
    system = VegaPlusSystem(instance.spec, backend)
    system.optimize()
    served = []
    execute = system.middleware.execute
    system.middleware.execute = lambda sql: served.append(execute(sql)) or served[-1]
    rng = np.random.default_rng(11)
    costs = []
    for index in range(len(CROSSFILTER_PASS_COSTS)):
        served.clear()
        if index == 0:
            result = system.initialize()
        else:
            result = system.interact(instance.sample_interaction(rng))
        breakdown = result.breakdown
        assert breakdown.server_seconds == sum(r.server_seconds for r in served)
        costs.append(
            (breakdown.network_seconds, breakdown.serialization_seconds,
             breakdown.bytes_transferred)
        )
    assert system.plan.plan_id == 755
    assert costs == [
        (pytest.approx(network, rel=1e-12), pytest.approx(codec, rel=1e-12), size)
        for network, codec, size in CROSSFILTER_PASS_COSTS
    ]
    backend.close()


@pytest.fixture(scope="module", params=backend_names())
def invariance_backend(request):
    backend = create_backend(request.param)
    backend.register_rows("flights", generate_dataset("flights", 2_000, seed=11))
    yield backend
    backend.close()


def _mark_datasets(system: VegaPlusSystem) -> dict[str, list[dict]]:
    """Every mark's dataset, each row's keys in sorted order."""
    return {
        mark.data: [dict(sorted(row.items())) for row in system.dataset(mark.data)]
        for mark in system.spec.marks
    }


def _sorted_rows(rows: list[dict]) -> list[dict]:
    """``rows`` in one canonical order: by value, numbers < strings < NULL."""
    return sorted(rows, key=lambda row: tuple(map(sort_rank_key, row.values())))


@pytest.mark.parametrize("template_name", template_names())
def test_every_plan_renders_the_same_marks(template_name, invariance_backend):
    """Plan choice must not change what the user sees.

    For every plan of a template with at most 40 plans (a seeded 40 of
    crossfilter's 756), every mark dataset must equal the all-client plan
    #0's after ``initialize()`` and after each of three sampled
    interactions.  On the embedded backend the sorted datasets compare
    with ``==``: the client runtime and the engine reduce through one
    kernel, so a float sum has the same bits whichever side computes it.
    On sqlite rows compare as multisets with floats within
    :func:`helpers.values_equal`'s 1e-9 tolerance, because
    SQLite 3.40's ``SUM`` adds one value at a time while the kernel's
    ``reduceat`` sums pairwise.
    """
    instance = WorkloadGenerator(seed=0).instantiate(template_name, "flights")
    rng = np.random.default_rng(0)
    interactions = (
        [instance.sample_interaction(rng) for _ in range(3)]
        if instance.template.interactive
        else []
    )
    plans = PlanEnumerator(parse_spec_dict(instance.spec)).enumerate()
    assert plans[0].total_server_transforms() == 0
    others = np.arange(1, len(plans))
    if len(plans) > 40:
        others = rng.choice(others, size=40, replace=False)
    exact = isinstance(invariance_backend, Database)

    def passes(plan: ExecutionPlan) -> list[dict[str, list[dict]]]:
        system = VegaPlusSystem(instance.spec, invariance_backend)
        system.use_plan(plan)
        system.initialize()
        seen = [_mark_datasets(system)]
        for interaction in interactions:
            system.interact(interaction)
            seen.append(_mark_datasets(system))
        return seen

    reference = passes(plans[0])
    for index in others:
        for step, (got, want) in enumerate(zip(passes(plans[index]), reference)):
            for name, rows in want.items():
                where = (plans[index].plan_id, step, name)
                if exact:
                    assert _sorted_rows(got[name]) == _sorted_rows(rows), where
                else:
                    assert rows_match(got[name], rows), where


@pytest.fixture(scope="module")
def both_backends():
    rows = generate_dataset("flights", 500, seed=11)
    backends = {name: create_backend(name) for name in backend_names()}
    for backend in backends.values():
        backend.register_rows("flights", rows)
    yield backends
    for backend in backends.values():
        backend.close()


@pytest.mark.parametrize("template_name", template_names())
def test_every_plan_sends_one_sql_text_to_every_backend(template_name, both_backends):
    """The rewrite layer states the NULL-placement and window-frame
    contract in the SQL itself, so no VDT's text depends on the backend.

    Every plan of a template with at most 50 plans, a seeded sample of 24
    otherwise (crossfilter has hundreds)."""
    instance = WorkloadGenerator(seed=0).instantiate(template_name, "flights")
    plans = PlanEnumerator(parse_spec_dict(instance.spec)).enumerate()
    if len(plans) > 50:
        picked = np.random.default_rng(0).choice(len(plans), size=24, replace=False)
        plans = [plans[index] for index in sorted(picked)]
    for plan in plans:
        texts = {}
        for name, backend in both_backends.items():
            system = VegaPlusSystem(instance.spec, backend)
            system.use_plan(plan)
            report = system.rewritten.dataflow.run()
            texts[name] = [str(response.sql) for response in report.responses.values()]
        assert texts["embedded"] == texts["sqlite"], plan.plan_id


#: Filter expression → carrier → rows kept, whichever side evaluates it.
#: ``!`` of a NULL or falsy operand is true on the client, and so is
#: ``null != 0``, so the server must keep those rows too.
NUMERIC_FILTERS = {
    "datum.delay": {"A": 1, "B": 2, "C": 1},
    "!datum.delay": {"A": 1, "C": 1},
    "!(datum.delay > 3)": {"A": 2, "B": 1, "C": 2},
    "datum.delay != 0": {"A": 1, "B": 2, "C": 2},
    "datum.delay !== 0": {"A": 1, "B": 2, "C": 2},
    "0 != datum.delay": {"A": 1, "B": 2, "C": 2},
    "!(datum.delay != 0)": {"A": 1},
}


@pytest.mark.parametrize("backend_name", backend_names())
def test_numeric_field_as_filter_renders_the_same_marks(backend_name):
    """``filter datum.delay`` keeps every row whose delay is a non-zero
    number, whichever side evaluates it: 0 and NULL drop, 0.5 and -2 stay;
    its negations keep the complement.  ``!=`` keeps the NULL row.  The
    all-server plan runs the filter in SQL."""
    backend = create_backend(backend_name)
    delays = [("A", 0.0), ("A", 1.0), ("B", 5.0), ("B", -2.0), ("C", None), ("C", 0.5)]
    backend.register_rows(
        "flights", [{"carrier": carrier, "delay": delay} for carrier, delay in delays]
    )
    for expr, want in NUMERIC_FILTERS.items():
        spec = {
            "data": [
                {"name": "source", "table": "flights"},
                {
                    "name": "counts",
                    "source": "source",
                    "transform": [
                        {"type": "filter", "expr": expr},
                        {"type": "aggregate", "groupby": ["carrier"], "ops": ["count"],
                         "as": ["n"]},
                    ],
                },
            ],
            "marks": [{"type": "rect", "from": {"data": "counts"}}],
        }
        enumerator = PlanEnumerator(parse_spec_dict(spec))
        want_rows = [{"carrier": carrier, "n": n} for carrier, n in want.items()]
        server = enumerator.all_server_plan()
        assert dict(server.assignment)["counts"] == 2, expr
        for plan in (enumerator.all_client_plan(), server):
            system = VegaPlusSystem(spec, backend)
            system.use_plan(plan)
            system.initialize()
            assert rows_match(system.dataset("counts"), want_rows), (expr, plan.plan_id)
    backend.close()


@pytest.mark.parametrize("backend_name", backend_names())
def test_string_and_all_null_aggregates_render_the_same_marks(backend_name):
    """COUNT, COUNT DISTINCT and MIN count and order strings, and a group
    with only NULLs counts 0, whichever side runs the aggregate."""
    backend = create_backend(backend_name)
    backend.register_rows(
        "data",
        [
            {"g": g, "s": s, "v": v}
            for g, s, v in (
                ("a", "x", 1.0), ("a", "y", None), ("a", "x", 3.0),
                ("b", "z", None), ("b", None, None),
            )
        ],
    )
    spec = {
        "data": [
            {"name": "source", "table": "data"},
            {
                "name": "stats",
                "source": "source",
                "transform": [
                    {"type": "aggregate", "groupby": ["g"],
                     "ops": ["count", "distinct", "min", "count", "distinct"],
                     "fields": ["s", "s", "s", "v", "v"]},
                ],
            },
        ],
        "marks": [{"type": "rect", "from": {"data": "stats"}}],
    }
    want = [
        {"g": "a", "count_s": 3, "distinct_s": 2, "min_s": "x", "count_v": 2, "distinct_v": 2},
        {"g": "b", "count_s": 1, "distinct_s": 1, "min_s": "z", "count_v": 0, "distinct_v": 0},
    ]
    enumerator = PlanEnumerator(parse_spec_dict(spec))
    for plan in (enumerator.all_client_plan(), enumerator.all_server_plan()):
        system = VegaPlusSystem(spec, backend)
        system.use_plan(plan)
        system.initialize()
        got = sorted(system.dataset("stats"), key=lambda row: row["g"])
        assert got == want, plan.plan_id
    backend.close()


@pytest.mark.parametrize("backend_name", backend_names())
def test_global_aggregate_of_no_rows_renders_the_same_marks(backend_name):
    """An aggregate without groupby emits one row even when its filter
    keeps no rows: count 0 and a NULL sum, whichever side runs it."""
    backend = create_backend(backend_name)
    backend.register_rows("data", [{"v": 1.0}, {"v": 2.0}])
    spec = {
        "data": [
            {"name": "source", "table": "data"},
            {
                "name": "totals",
                "source": "source",
                "transform": [
                    {"type": "filter", "expr": "datum.v > 5"},
                    {"type": "aggregate", "ops": ["count", "sum"], "fields": [None, "v"]},
                ],
            },
        ],
        "marks": [{"type": "rect", "from": {"data": "totals"}}],
    }
    enumerator = PlanEnumerator(parse_spec_dict(spec))
    for plan in (enumerator.all_client_plan(), enumerator.all_server_plan()):
        system = VegaPlusSystem(spec, backend)
        system.use_plan(plan)
        system.initialize()
        assert system.dataset("totals") == [{"count": 0, "sum_v": None}], plan.plan_id
    backend.close()


def stacked_offsets(backend_name, extents, sort=True):
    """``(y0, y1)`` of a stack over ``extents`` (rows k = 0, 1, ...; one
    group), all-client and all-server."""
    backend = create_backend(backend_name)
    backend.register_rows(
        "bars", [{"g": "a", "k": float(k), "v": v} for k, v in enumerate(extents)]
    )
    stack = {"type": "stack", "field": "v", "groupby": ["g"]}
    if sort:
        stack["sort"] = {"field": "k"}
    spec = {
        "data": [
            {"name": "source", "table": "bars"},
            {"name": "stacked", "source": "source", "transform": [stack]},
        ],
        "marks": [{"type": "rect", "from": {"data": "stacked"}}],
    }
    enumerator = PlanEnumerator(parse_spec_dict(spec))
    seen = []
    for plan in (enumerator.all_client_plan(), enumerator.all_server_plan()):
        system = VegaPlusSystem(spec, backend)
        system.use_plan(plan)
        system.initialize()
        seen.append([(row["y0"], row["y1"]) for row in system.dataset("stacked")])
    backend.close()
    return seen


@pytest.mark.parametrize("backend_name", backend_names())
def test_stack_over_a_null_extent_renders_the_same_marks(backend_name):
    """The client stacks a NULL extent as 0, so the NULL row sits on top
    of the row before it (y0 = y1 = 2) whichever side runs the stack."""
    client, server = stacked_offsets(backend_name, [2.0, None, 5.0])
    assert client == server == [(0, 2), (2, 2), (2, 7)]


@pytest.mark.parametrize("backend_name", backend_names())
def test_stack_over_float_extents_renders_the_same_marks(backend_name):
    """Both offsets are running sums, as on the client: ``y0`` is the sum
    of the rows before, not ``y1 - v``, which differs in the last bits
    (0.10000000000000003 for 0.1), so each bar starts exactly where the
    one below it ends.  sqlite 3.43+ compensates its SUM, so there the
    rows agree with the client's to 1e-9."""
    client, server = stacked_offsets(backend_name, [0.1, 0.2, 0.3, 0.7, 1.1, 2.3])
    assert [y0 for y0, _y1 in server[1:]] == [y1 for _y0, y1 in server[:-1]]
    if backend_name == "embedded":
        assert server == client
    else:
        assert len(server) == len(client)
        for got, want in zip(server, client):
            assert all(map(values_equal, got, want)), (got, want)


@pytest.mark.parametrize("backend_name", backend_names())
def test_stack_without_a_sort_stays_on_the_client(backend_name):
    """Without a sort the client stacks rows in input order, which a SQL
    window partition does not keep, so no plan offers the stack to the
    server and every plan renders (0, 1), (1, 3), (3, 6)."""
    client, server = stacked_offsets(backend_name, [1.0, 2.0, 3.0], sort=False)
    assert client == server == [(0, 1), (1, 3), (3, 6)]
    transforms = [{"type": "stack", "field": "v", "groupby": ["g"]}]
    assert rewritable_prefix(transforms) == 0


#: ``dash_crossfilter``'s three brush-dependent VDT queries at the initial
#: signals: ``(field, bin threshold, last bin start, bin start, bin step)``.
CROSSFILTER_BINS = (
    ("distance", "4600.0", "4400.0", "0.0", "200.0"),
    ("air_time", "600.0", "575.0", "0.0", "25.0"),
    ("dep_delay", "300.0", "280.0", "-40.0", "20.0"),
)
CROSSFILTER_SQL_AT_START = (
    "SELECT CASE WHEN {0} >= {1} THEN {2} WHEN {0} < {3} THEN {3} "
    "ELSE FLOOR(({0} - {3}) / {4}) * {4} + {3} END AS bin0, COUNT(*) AS count "
    "FROM flights WHERE (((((distance >= {5}) AND (distance <= {6})) "
    "AND ((air_time >= {7}) AND (air_time <= {8}))) "
    "AND ((dep_delay >= {9}) AND (dep_delay <= {10})))) GROUP BY bin0"
)


def test_crossfilter_prepared_sql_is_pinned():
    """The crossfilter's hot SQL is the contract that plan-invariance
    fixes must leave alone: with the e2e binding (distance, air_time,
    dep_delay) the chosen plan's three brush-dependent VDTs send these
    texts, and their :class:`~repro.sql.tokenizer.PreparedSQL` shapes slot
    every bin number and brush bound."""
    fields = {"field_a": "distance", "field_b": "air_time", "field_c": "dep_delay"}
    instance = WorkloadGenerator(seed=0).instantiate("crossfilter", "flights", fields=fields)
    backend = create_backend("embedded")
    backend.register_rows("flights", generate_dataset("flights", 2_000, seed=0))
    system = VegaPlusSystem(instance.spec, backend)
    system.optimize()
    responses = system.rewritten.dataflow.run().responses
    sent = [responses[vdt.id].sql for vdt in system.rewritten.vdts if vdt.signal_dependencies()]
    brush = ("50", "4500", "20", "600", "-30", "300")
    assert [str(sql) for sql in sent] == [
        CROSSFILTER_SQL_AT_START.format(*bins, *brush) for bins in CROSSFILTER_BINS
    ]
    assert [sql.shape for sql in sent] == [
        CROSSFILTER_SQL_AT_START.format(field, *["?"] * 10) for field, *_ in CROSSFILTER_BINS
    ]
    backend.close()


def filter_count_spec(expr):
    """``filter expr`` then ``count`` by ``g`` over the table ``data``."""
    return {
        "data": [
            {"name": "source", "table": "data"},
            {
                "name": "counts",
                "source": "source",
                "transform": [
                    {"type": "filter", "expr": expr},
                    {"type": "aggregate", "groupby": ["g"], "ops": ["count"], "as": ["n"]},
                ],
            },
        ],
        "marks": [{"type": "rect", "from": {"data": "counts"}}],
    }


#: Filter expression → count by ``g`` of the rows kept over
#: ``STRING_FILTER_ROWS``.  The client's ``+`` concatenates a string, and
#: its loose ``==`` reads ``'0'`` as 0: SQL does neither, so both stay on
#: the client.
STRING_FILTERS = {
    "datum.s + 'z' == 'az'": {"a": 1, "c": 1},
    "datum.x == '0'": {"a": 1, "b": 1},
    "'0' != datum.x": {"a": 1, "b": 1, "c": 1},
}
STRING_FILTER_ROWS = [
    {"g": g, "x": x, "s": s}
    for g, x, s in (
        ("a", 0.0, "a"), ("a", 1.0, "b"), ("b", None, None), ("b", 0.0, "q"), ("c", 2.0, "a"),
    )
]


@pytest.mark.parametrize("backend_name", backend_names())
def test_string_concatenation_and_loose_equality_stay_on_the_client(backend_name):
    """All-client and all-server plans render the client's rows; the
    all-server plan keeps the filter on the client."""
    backend = create_backend(backend_name)
    backend.register_rows("data", STRING_FILTER_ROWS)
    for expr, want in STRING_FILTERS.items():
        spec = filter_count_spec(expr)
        enumerator = PlanEnumerator(parse_spec_dict(spec))
        want_rows = [{"g": g, "n": n} for g, n in want.items()]
        for plan in (enumerator.all_client_plan(), enumerator.all_server_plan()):
            system = VegaPlusSystem(spec, backend)
            system.use_plan(plan)
            system.initialize()
            assert rows_match(system.dataset("counts"), want_rows), (expr, plan.plan_id)
        assert dict(enumerator.all_server_plan().assignment)["counts"] == 0, expr
    backend.close()


def test_not_equal_between_two_fields_stays_on_the_client():
    """``null != null`` is false on the client and has no one SQL
    spelling, so the filter is not offered to the server."""
    spec = parse_spec_dict(filter_count_spec("datum.x != datum.y"))
    assert rewritable_prefix(spec.data_entry("counts").transforms) == 0


@pytest.mark.parametrize("backend_name", backend_names())
def test_untranslatable_filter_is_never_offered_to_the_server(backend_name):
    """A filter with no SQL form (``min`` over per-row arguments) keeps
    the whole entry on the client: the optimizer's plan initialises."""
    backend = create_backend(backend_name)
    backend.register_rows(
        "data",
        [{"g": g, "x": x, "y": y} for g, x, y in (("a", 1.0, 2.0), ("a", -1.0, 3.0), ("b", 2.0, 5.0))],
    )
    spec = filter_count_spec("min(datum.x, datum.y) > 0")
    system = VegaPlusSystem(spec, backend)
    system.optimize()
    system.initialize()
    got = sorted(system.dataset("counts"), key=lambda row: row["g"])
    assert got == [{"g": "a", "n": 1}, {"g": "b", "n": 1}]
    assert rewritable_prefix(parse_spec_dict(spec).data_entry("counts").transforms) == 0
    backend.close()


#: The SQL the all-server crossfilter sends for one interaction.  Its
#: brushes use only ``>=``, ``<=`` and ``&&``, so no rendering rule for
#: other operators may change it.
CROSSFILTER_WHERE = (
    "WHERE (((((distance >= 200) AND (distance <= 1500.5)) AND ((air_time >= 20) AND "
    "(air_time <= 600))) AND ((dep_delay >= -10) AND (dep_delay <= 60)))) GROUP BY bin0"
)
CROSSFILTER_SQL = [
    "SELECT CASE WHEN distance >= 4600.0 THEN 4400.0 WHEN distance < 0.0 THEN 0.0 ELSE "
    "FLOOR((distance - 0.0) / 200.0) * 200.0 + 0.0 END AS bin0, COUNT(*) AS count FROM flights "
    + CROSSFILTER_WHERE,
    "SELECT CASE WHEN air_time >= 600.0 THEN 575.0 WHEN air_time < 0.0 THEN 0.0 ELSE "
    "FLOOR((air_time - 0.0) / 25.0) * 25.0 + 0.0 END AS bin0, COUNT(*) AS count FROM flights "
    + CROSSFILTER_WHERE,
    "SELECT CASE WHEN dep_delay >= 300.0 THEN 280.0 WHEN dep_delay < -40.0 THEN -40.0 ELSE "
    "FLOOR((dep_delay - -40.0) / 20.0) * 20.0 + -40.0 END AS bin0, COUNT(*) AS count FROM flights "
    + CROSSFILTER_WHERE,
]


def test_crossfilter_sql_text_is_pinned(template_rows):
    backend = create_backend("embedded")
    backend.register_rows("flights", template_rows)
    sent = []
    execute = backend.execute
    backend.execute = lambda sql: sent.append(str(sql)) or execute(sql)
    spec = crossfilter_instance().spec
    system = VegaPlusSystem(spec, backend)
    system.use_plan(PlanEnumerator(parse_spec_dict(spec)).all_server_plan())
    system.initialize()
    sent.clear()
    system.interact({"brush_a_lo": 200, "brush_a_hi": 1500.5, "brush_c_lo": -10, "brush_c_hi": 60})
    assert sent == CROSSFILTER_SQL
    backend.close()


def crossfilter_instance():
    fields = {"field_a": "distance", "field_b": "air_time", "field_c": "dep_delay"}
    return WorkloadGenerator(seed=0).instantiate("crossfilter", "flights", fields=fields)


def test_plan_space_reads_zone_maps_and_feedback_like_a_build(template_rows):
    """Partitioned table (zone-map selectivities) plus live observations."""
    instance = crossfilter_instance()
    rng = np.random.default_rng(9)
    interactions = [instance.sample_interaction(rng) for _ in range(2)]
    # Every brush numeric (moved once), so the filter's range selectivities
    # are analysed.
    spec = {
        **instance.spec,
        "signals": [
            {**signal, "value": interactions[0].get(signal["name"], signal["value"])}
            for signal in instance.spec["signals"]
        ],
    }
    clustered = sorted(template_rows, key=lambda row: row["distance"])

    def first_episode(partitioned, feedback=None):
        backend = create_backend("embedded")
        backend.register_rows("flights", clustered)
        if partitioned:
            backend.repartition("flights", 400)
        optimizer = VegaPlusOptimizer(spec, MiddlewareServer(backend), feedback=feedback)
        plans = assert_plan_space_matches_builds(optimizer, interactions)
        vectors = optimizer.encode_candidates(plans)[0]
        backend.close()
        return optimizer, plans, vectors

    optimizer, plans, zoned = first_episode(partitioned=True)
    feedback = CardinalityFeedback()
    for plan in (plans[0], plans[len(plans) // 2], plans[-1]):
        for position, vdt in enumerate(optimizer.build(plan).vdts):
            feedback.observe(vdt_shape_key(vdt.table, vdt.transforms), 37.0 * (position + 1))
    _, _, corrected = first_episode(partitioned=True, feedback=feedback)
    _, _, uniform = first_episode(partitioned=False)
    # Neither scenario is vacuous: zone maps and observations move the vectors.
    assert any(a.cardinalities != b.cardinalities for a, b in zip(zoned, uniform))
    assert any(a.cardinalities != b.cardinalities for a, b in zip(zoned, corrected))


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a function or method) from now on."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_crossfilter_plan_selection_work_is_per_fragment_not_per_plan(
    monkeypatch, template_rows
):
    """Count pins on ``choose_plan()``; a fresh optimizer repeats them exactly."""
    spec = crossfilter_instance().spec
    builds = count_calls(monkeypatch, SpecRewriter, "build")
    compares = count_calls(monkeypatch, HeuristicComparator, "compare")
    tokenizer_runs = count_calls(monkeypatch, expr_parser, "tokenize_expression")
    expressions = {
        transform["expr"]
        for entry in spec["data"]
        for transform in entry.get("transform", [])
        if "expr" in transform
    }
    observed = []
    for _ in range(2):
        # Fresh backend, middleware and optimizer; the only process-wide
        # state in reach, the parse memo, is emptied too.
        expr_parser._parse.cache_clear()
        backend = create_backend("embedded")
        backend.register_rows("flights", template_rows)
        optimizer = VegaPlusOptimizer(spec, MiddlewareServer(backend))
        before = (builds[0], compares[0], tokenizer_runs[0])
        result = optimizer.choose_plan()
        observed.append(
            (builds[0] - before[0], compares[0] - before[1], tokenizer_runs[0] - before[2])
        )
        backend.close()
        assert result.n_candidates == 756
        assert result.plan.plan_id == 755
    n_builds, n_compares, n_tokenized = observed[0]
    assert 0 < n_builds <= 64
    assert n_compares == 0
    assert 0 < n_tokenized <= len(expressions)
    assert observed[1] == observed[0]
