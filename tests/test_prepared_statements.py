"""Prepared statements end to end: the rewriter's SQL reaches the engine as
shape + values, and a shape the engine has seen is bound, never lexed or
parsed.

The contract is twofold.  *Counting*: after each VDT's first evaluation,
an interaction lexes and parses only shapes no query sent before.
*Differential*: marks are ``==`` whether the VDTs' SQL is sent as
:class:`PreparedSQL` or as its plain text, on every template and both
backends.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

import repro.sql.parser
import repro.sql.plancache
from repro.backends import backend_names, create_backend
from repro.bench.templates import template_names
from repro.bench.workload import WorkloadGenerator
from repro.core import PlanEnumerator, VegaPlusSystem
from repro.datasets import generate_dataset
from repro.expr import to_sql
from repro.rewrite.vdt import VegaDBMSTransform
from repro.sql.optimizer import optimize_plan
from repro.sql.parser import parse_sql
from repro.sql.planner import build_logical_plan
from repro.sql.plancache import prepare, token_shape
from repro.sql.tokenizer import PreparedSQL, TokenType, tokenize
from repro.vega.spec import parse_spec_dict


def _shape(sql: str) -> tuple[str, list[object]]:
    """The plan cache's shape key and slot values of raw ``sql``."""
    key, values, _slotted = token_shape(tokenize(sql))
    return key, values


@pytest.fixture(scope="module")
def flights_rows():
    return generate_dataset("flights", 1_500, seed=11)


@pytest.fixture(params=backend_names())
def backend(request, flights_rows):
    backend = create_backend(request.param)
    backend.register_rows("flights", flights_rows)
    yield backend
    backend.close()


def _interactions(instance, seed: int, count: int) -> list[dict]:
    if not instance.template.interactive:
        return []
    rng = np.random.default_rng(seed)
    return [instance.sample_interaction(rng) for _ in range(count)]


def _marks(system: VegaPlusSystem) -> dict[str, list[dict]]:
    return {mark.data: system.dataset(mark.data) for mark in system.spec.marks}


# --------------------------------------------------------------------------- #
# Counting: a known shape is never lexed or parsed
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("template_name", template_names())
def test_interactions_lex_and_parse_only_new_shapes(template_name, backend, monkeypatch):
    instance = WorkloadGenerator(seed=0).instantiate(template_name, "flights")
    plans = PlanEnumerator(parse_spec_dict(instance.spec)).enumerate()
    system = VegaPlusSystem(instance.spec, backend)
    system.use_plan(max(plans, key=lambda plan: plan.total_server_transforms()))

    lexed: list[str] = []
    for module in (repro.sql.plancache, repro.sql.parser):
        lex = module.tokenize
        monkeypatch.setattr(
            module, "tokenize", lambda sql, lex=lex: lexed.append(sql) or lex(sql)
        )
    shapes: set[str] = set()
    new_shapes: list[str] = []
    planned_in_interactions: list[str] = []
    plan = backend.plan

    def planned(sql):
        # A VDT's SQL with slots reaches planning with its shape; SQL
        # without slots is plain text, its own shape.
        planned_in_interactions.append(sql)
        shape = sql.shape if type(sql) is PreparedSQL else sql
        if shape not in shapes:
            shapes.add(shape)
            new_shapes.append(shape)
        return plan(sql)

    monkeypatch.setattr(backend, "plan", planned)
    system.initialize()
    assert shapes, "the plan sends no query"
    planned_in_interactions.clear()
    interactions = _interactions(instance, seed=3, count=6)
    for interaction in interactions:
        lexed.clear()
        new_shapes.clear()
        parsed = backend.stats()["queries_parsed"]
        system.interact(interaction)
        assert len(lexed) == len(new_shapes), (interaction, lexed)
        assert backend.stats()["queries_parsed"] - parsed == len(new_shapes)
    # Interactions reach planning with prepared SQL, so the counts above
    # are not vacuous.
    prepared = [sql for sql in planned_in_interactions if type(sql) is PreparedSQL]
    assert bool(prepared) == bool(interactions)


# --------------------------------------------------------------------------- #
# Differential: prepared and plain text render the same marks
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("template_name", template_names())
def test_prepared_and_plain_sql_render_identical_marks(template_name, backend, monkeypatch):
    instance = WorkloadGenerator(seed=0).instantiate(template_name, "flights")
    interactions = _interactions(instance, seed=1, count=3)
    plans = PlanEnumerator(parse_spec_dict(instance.spec)).enumerate()
    rng = np.random.default_rng(2)
    sample = rng.choice(len(plans), size=min(20, len(plans)), replace=False)
    build_sql = VegaDBMSTransform.build_sql
    sent: list[PreparedSQL] = []
    plain = False

    def render(self, params, context):
        sql = build_sql(self, params, context)
        sent.append(sql)
        return str(sql) if plain else sql

    monkeypatch.setattr(VegaDBMSTransform, "build_sql", render)

    def passes(plan) -> list[dict[str, list[dict]]]:
        backend.clear_plan_cache()
        system = VegaPlusSystem(instance.spec, backend)
        system.use_plan(plan)
        system.initialize()
        seen = [_marks(system)]
        for interaction in interactions:
            system.interact(interaction)
            seen.append(_marks(system))
        return seen

    for index in sample:
        plain = False
        prepared = passes(plans[index])
        plain = True
        assert passes(plans[index]) == prepared, plans[index].plan_id

    # Every prepared query's shape lexes to its text's tokens with a slot
    # for each value: a string or number valued as the lexer reads the
    # text, a number under a leading minus negated.
    prepared_sent = [sql for sql in sent if type(sql) is PreparedSQL]
    assert bool(prepared_sent) == instance.template.interactive
    for sql in prepared_sent:
        assert _slot_values(sql) == [(type(v), v) for v in sql.values], sql


def _slot_values(sql: PreparedSQL) -> list[tuple[type, object]]:
    """``(type, value)`` of each slot, read off the text's tokens where
    the shape's tokens hold a ``?``; every other token must match."""
    text, shape = tokenize(sql), tokenize(sql.shape)
    slots = []
    position = 0
    for token in shape:
        here = text[position]
        if token.ttype is not TokenType.PARAMETER:
            assert (here.ttype, here.value) == (token.ttype, token.value)
            position += 1
        elif here.ttype is TokenType.STRING:
            slots.append(here.value)
            position += 1
        elif here.value == "-" and here.ttype is TokenType.OPERATOR:
            number = text[position + 1]
            assert number.ttype is TokenType.NUMBER
            slots.append(-number.number)
            position += 2
        else:
            assert here.ttype is TokenType.NUMBER
            slots.append(here.number)
            position += 1
    assert position == len(text)
    return [(type(value), value) for value in slots]


# --------------------------------------------------------------------------- #
# The currency and the shared plan
# --------------------------------------------------------------------------- #


def test_a_brush_crossing_zero_keeps_its_shape(backend):
    """A negative value is one slot (its minus folded in, as constant
    folding does), so the brush's sign never changes the shape, and the
    bound plan is the text's."""
    expression = "datum.dep_delay >= lo && datum.dep_delay <= hi"
    queries = []
    for low, high in ((-20.5, -3), (-4, 12.25), (0, 30)):
        where = to_sql(expression, {"lo": low, "hi": high})
        queries.append(
            PreparedSQL(
                f"SELECT carrier, COUNT(*) AS n FROM flights WHERE {where} GROUP BY carrier",
                f"SELECT carrier, COUNT(*) AS n FROM flights WHERE {where.shape} GROUP BY carrier",
                where.values,
            )
        )
    assert len({sql.shape for sql in queries}) == 1
    parsed = backend.stats()["queries_parsed"]
    for sql in queries:
        assert backend.plan(sql) == optimize_plan(build_logical_plan(parse_sql(sql)))
    assert backend.stats()["queries_parsed"] - parsed == 1
    for sql in queries:
        assert backend.execute(sql).to_rows() == backend.execute(str(sql) + " ").to_rows()


def test_prepared_sql_survives_a_pickle_round_trip():
    sql = PreparedSQL("SELECT a FROM t WHERE b > -2.5 AND c = 'x'", "SELECT a FROM t "
                      "WHERE b > -? AND c = ?", [2.5, "x"])
    again = pickle.loads(pickle.dumps(sql))
    assert type(again) is PreparedSQL
    assert again == sql and str(again) == str(sql)
    assert again.shape == sql.shape and again.values == (2.5, "x")


def test_concurrent_binds_never_mutate_the_shared_plan():
    text = (
        "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM (SELECT g, v FROM t WHERE w > 1) AS sub "
        "WHERE v >= 10 AND v < 20 AND g <> 'x' GROUP BY g ORDER BY g"
    )
    shape, values = _shape(text)
    prepared = prepare(shape)
    assert prepared is not None and prepared.slots == 4
    before = repr(prepared.plan)
    expected = {low: prepared.bind([1, low, low + 10, "x"]) for low in range(8)}
    errors: list[BaseException] = []

    def bind_many(low: int) -> None:
        try:
            for _ in range(200):
                assert prepared.bind([1, low, low + 10, "x"]) == expected[low]
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=bind_many, args=(low,)) for low in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert repr(prepared.plan) == before
    assert prepared.bind(values) == prepared.bind([1, 10, 20, "x"])
