"""Unit tests for the pipeline join operator ./ij."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.clock import VirtualClock
from repro.errors import PlanError
from repro.mjoin.executor import MJoinExecutor
from repro.operators.base import BatchProbeMemo, ExecContext
from repro.operators.join_op import JoinOperator
from repro.relations.predicates import JoinGraph
from repro.relations.relation import Relation
from repro.streams.tuples import CompositeTuple, RowFactory, Schema
from repro.streams.workloads import star_graph, three_way_chain


def chain_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


@pytest.fixture
def ctx():
    return ExecContext()


@pytest.fixture
def rows():
    return RowFactory()


class TestIndexedJoin:
    def test_matches_by_index(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["S"], ("A",))
        relation.insert(rows.make((1, 10)))
        relation.insert(rows.make((1, 11)))
        relation.insert(rows.make((2, 12)))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        composite = CompositeTuple.of("R", rows.make((1,)))
        out = op.apply([composite], ctx)
        assert len(out) == 2
        assert all(o.value("S", 0) == 1 for o in out)
        assert ctx.clock.now_us > 0  # probes were charged

    def test_unbound_operator_raises(self, ctx, rows):
        graph = chain_graph()
        op = JoinOperator(graph, prior=["R"], target="S")
        with pytest.raises(PlanError, match="unbound"):
            op.apply([CompositeTuple.of("R", rows.make((1,)))], ctx)

    def test_bind_wrong_relation(self, rows):
        graph = chain_graph()
        op = JoinOperator(graph, prior=["R"], target="S")
        with pytest.raises(PlanError, match="bound"):
            op.bind(Relation(graph.schemas["T"], ()))

    def test_residual_predicates_verified(self, ctx, rows):
        # R and S join on two attributes: the index answers S.A and S.B
        # is verified as a residual on every candidate row.
        graph = JoinGraph.parse(
            [Schema("R", ("A", "B")), Schema("S", ("A", "B"))],
            ["R.A = S.A", "R.B = S.B"],
        )
        relation = Relation(graph.schemas["S"], ("A",))
        relation.insert(rows.make((5, 7)))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        assert op.predicate_count == 2
        matching = CompositeTuple.of("R", rows.make((5, 7)))
        assert len(op.apply([matching], ctx)) == 1
        # Residual mismatch: R.A=5 matches the index but R.B=8 fails.
        mismatched = CompositeTuple.of("R", rows.make((5, 8)))
        assert op.apply([mismatched], ctx) == []

    def test_implied_residual_is_still_charged(self, rows):
        # Star graph: joining R3 to prior {R1, R2} has two predicates on
        # R3.A. The prefix already enforced R1.A = R2.A, so once the index
        # answers R1.A = R3.A the R2 predicate holds and is not compared
        # again; the cost model still charges its verification.
        graph = star_graph(3)
        relation = Relation(graph.schemas["R3"], ("A",))
        relation.insert(rows.make((5,)))
        relation.insert(rows.make((5,)))
        op = JoinOperator(graph, prior=["R1", "R2"], target="R3").bind(
            relation
        )
        assert op.predicate_count == 2
        composite = CompositeTuple.of("R1", rows.make((5,))).extended(
            "R2", rows.make((5,))
        )
        ctx = ExecContext()
        assert len(op.apply([composite], ctx)) == 2
        cm = ctx.cost_model
        expected = VirtualClock()
        expected.charge(cm.index_probe)
        expected.charge(cm.predicate_eval * 2 * 1)
        expected.charge(cm.per_match * 2)
        assert ctx.clock.now_us == expected.now_us


class TestScanJoin:
    def test_scan_without_index(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["S"], ())  # no indexes at all
        relation.insert(rows.make((1, 10)))
        relation.insert(rows.make((2, 11)))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        composite = CompositeTuple.of("R", rows.make((1,)))
        out = op.apply([composite], ctx)
        assert len(out) == 1

    def test_scan_cost_scales_with_relation(self, rows):
        graph = chain_graph()
        small = Relation(graph.schemas["S"], ())
        large = Relation(graph.schemas["S"], ())
        for i in range(10):
            small.insert(rows.make((99, i)))
        for i in range(1000):
            large.insert(rows.make((99, i)))
        probe = CompositeTuple.of("R", rows.make((1,)))
        ctx_small, ctx_large = ExecContext(), ExecContext()
        JoinOperator(graph, ["R"], "S").bind(small).apply(
            [probe], ctx_small
        )
        JoinOperator(graph, ["R"], "S").bind(large).apply(
            [probe], ctx_large
        )
        assert ctx_large.clock.now_us > 10 * ctx_small.clock.now_us

    def test_cross_product_when_unconnected(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["T"], ("B",))
        relation.insert(rows.make((7,)))
        relation.insert(rows.make((8,)))
        # R and T share no predicate: the join degenerates to a product.
        op = JoinOperator(graph, prior=["R"], target="T").bind(relation)
        assert op.is_cross_product()
        out = op.apply([CompositeTuple.of("R", rows.make((1,)))], ctx)
        assert len(out) == 2

    def test_match_rows_counts_without_extending(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["S"], ("A",))
        relation.insert(rows.make((1, 10)))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        matches = op.match_rows(CompositeTuple.of("R", rows.make((1,))), ctx)
        assert len(matches) == 1
        assert matches[0].values == (1, 10)


# ----------------------------------------------------------------------
# compiled operator vs a brute-force filter over every bound predicate
# ----------------------------------------------------------------------

ATTRS = ("A", "B")


@st.composite
def join_setups(draw):
    """A random join graph over relations with attributes (A, B), a
    prior/target split, live rows, and the target's index set.

    Predicates are drawn freely, so the graphs include chains and stars on
    either attribute, a relation joined on both of its attributes (or on
    two of its attributes to one target attribute), and targets with no
    predicate to the prefix at all (cross products).
    """
    n = draw(st.integers(min_value=2, max_value=4))
    names = [f"R{i}" for i in range(n)]
    refs = [(r, a) for r in names for a in ATTRS]
    pairs = [
        (x, y) for x, y in itertools.combinations(refs, 2) if x[0] != y[0]
    ]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=0, max_size=5, unique=True)
    )
    graph = JoinGraph.parse(
        [Schema(r, ATTRS) for r in names],
        [f"{a[0]}.{a[1]} = {b[0]}.{b[1]}" for a, b in chosen],
    )
    order = draw(st.permutations(names))
    split = draw(st.integers(min_value=1, max_value=n - 1))
    prior, target = list(order[:split]), order[split]
    value = st.integers(min_value=0, max_value=2)
    row_values = st.lists(
        st.tuples(value, value), min_size=0, max_size=4
    )
    prior_rows = {r: draw(row_values) for r in prior}
    target_rows = draw(st.lists(st.tuples(value, value), max_size=8))
    indexed = draw(st.lists(st.sampled_from(ATTRS), unique=True))
    return graph, prior, target, prior_rows, target_rows, indexed


def _prefix_composites(graph, prior, prior_rows, factory):
    """Every prefix composite a pipeline could deliver: combinations of
    prior rows satisfying every predicate among the prior relations."""
    internal = graph.internal_predicates(prior)
    out = []
    for combo in itertools.product(
        *[[factory.make(v) for v in prior_rows[r]] for r in prior]
    ):
        composite = CompositeTuple(dict(zip(prior, combo)))
        if all(
            composite.value(p.left.relation, graph.attr_position(p.left))
            == composite.value(p.right.relation, graph.attr_position(p.right))
            for p in internal
        ):
            out.append(composite)
    return out


def _bound(graph, prior, target):
    bound = []
    for pred in graph.predicates_between(prior, target):
        t, p = pred.side_for(target), pred.other_side(target)
        bound.append(
            (t.attribute, graph.attr_position(t),
             p.relation, graph.attr_position(p))
        )
    return bound


def _reference(graph, prior, target, relation, composites, memo=False):
    """Brute-force rows per composite and the clock the interpreted
    operator charged (index: probe + every other predicate as a residual
    per candidate; scan: every row against every predicate; memo: one
    ``batch_memo_hit`` per repeated sorted constraint signature)."""
    cm = ExecContext().cost_model
    clock = VirtualClock()
    bound = _bound(graph, prior, target)
    index = next((b for b in bound if relation.has_index(b[0])), None)
    seen = set()
    rows_out = []
    for composite in composites:
        matches = [
            row for row in relation.rows()
            if all(
                row.values[tpos] == composite.value(rel, ppos)
                for _, tpos, rel, ppos in bound
            )
        ]
        signature = tuple(sorted(
            (tpos, composite.value(rel, ppos)) for _, tpos, rel, ppos in bound
        ))
        if memo and signature in seen:
            clock.charge(cm.batch_memo_hit)
        elif index is not None:
            attribute, _, rel, ppos = index
            clock.charge(cm.index_probe)
            candidates = relation.matching(
                attribute, composite.value(rel, ppos)
            )
            if len(bound) > 1:
                clock.charge(
                    cm.predicate_eval * len(candidates) * (len(bound) - 1)
                )
        else:
            clock.charge(cm.scan_tuple * len(relation))
            if bound:
                clock.charge(
                    cm.predicate_eval * len(relation) * len(bound)
                )
        seen.add(signature)
        clock.charge(cm.per_match * len(matches))
        rows_out.append([row.rid for row in matches])
    return rows_out, clock.now_us


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(setup=join_setups(), memo=st.booleans())
def test_compiled_operator_matches_brute_force(setup, memo):
    graph, prior, target, prior_rows, target_rows, indexed = setup
    factory = RowFactory()
    relation = Relation(graph.schemas[target], indexed)
    for values in target_rows:
        relation.insert(factory.make(values))
    composites = _prefix_composites(graph, prior, prior_rows, factory)
    op = JoinOperator(graph, prior, target).bind(relation)
    ctx = ExecContext()
    if memo:
        ctx.probe_memo = BatchProbeMemo()
    got = [
        [out.row(target).rid for out in op.apply([composite], ctx)]
        for composite in composites
    ]
    expected_rows, expected_us = _reference(
        graph, prior, target, relation, composites, memo
    )
    assert got == expected_rows
    assert ctx.clock.now_us == expected_us


# ----------------------------------------------------------------------
# index-set changes between updates re-pick the probe
# ----------------------------------------------------------------------

def _chain_stream(arrivals):
    workload = three_way_chain(
        t_multiplicity=3.0, window_r=24, window_s=24, window_t=24
    )
    return workload.graph, list(workload.updates(arrivals))


def _run(executor, updates):
    out = []
    for update in updates:
        out.extend(
            (d.sign, d.composite.identity(("R", "S", "T")))
            for d in executor.process(update)
        )
    return out


def _second_half(executor, updates, change=None):
    """Run the first half, apply ``change``, then time the second half on
    a fresh clock; returns its deltas and virtual time."""
    half = len(updates) // 2
    _run(executor, updates[:half])
    if change is not None:
        change(executor)
    executor.ctx.clock = VirtualClock()
    deltas = _run(executor, updates[half:])
    return deltas, executor.ctx.clock.now_us


class TestIndexSetChanges:
    def test_dropped_index_switches_to_scan(self):
        graph, updates = _chain_stream(1200)
        full = {"S": ("A", "B")}
        scan = {"S": ("A",)}  # Figure 10: no index on S.B

        def drop(executor):
            executor.relations["S"].drop_index("B")

        got = _second_half(
            MJoinExecutor(graph, indexed_attributes=full), updates, drop
        )
        fresh = _second_half(
            MJoinExecutor(graph, indexed_attributes=scan), updates
        )
        assert got == fresh
        # ∆T probes S on B: keeping the stale index probe would give the
        # same deltas at the indexed engine's (lower) cost.
        indexed = _second_half(
            MJoinExecutor(graph, indexed_attributes=full), updates
        )
        assert got[0] == indexed[0]
        assert got[1] > indexed[1]

    def test_index_added_on_warm_shared_relation_switches_back(self):
        graph, updates = _chain_stream(1200)
        full = {"S": ("A", "B")}
        scan = {"S": ("A",)}

        def register_sharing_query(executor):
            # A second query over the same (warm) S window asks for S.B,
            # as multi-query registration does: the shared relation gains
            # the index, backfilled from the live rows.
            MJoinExecutor(
                graph,
                indexed_attributes=full,
                relations={"S": executor.relations["S"]},
            )

        changed = MJoinExecutor(graph, indexed_attributes=scan)
        got = _second_half(changed, updates, register_sharing_query)
        assert changed.relations["S"].has_index("B")
        fresh = _second_half(
            MJoinExecutor(graph, indexed_attributes=full), updates
        )
        assert got == fresh
        scanning = _second_half(
            MJoinExecutor(graph, indexed_attributes=scan), updates
        )
        assert got[1] < scanning[1]
