"""The pipeline join operator ``./ij`` (Section 3.1).

Each operator joins incoming (possibly composite) tuples with one target
relation, enforcing every predicate between the target and the relations
already present in the composite. It uses a hash index on the target side
of one such predicate when available and verifies the rest as residuals;
with no usable index it degrades to a nested-loop scan, which is the
configuration Figure 10 studies.

The operator is compiled once, when its plan is built: attribute positions
are resolved, and for every predicate that could serve as the index probe
the residual comparisons the prefix does not already imply are
precomputed. The index choice is re-resolved only when the target
relation's index set changes (:attr:`Relation.index_version`).

**Implied residuals.** ``JoinGraph`` materializes the transitive closure,
so the operator for the k-th relation of ``R1(A) ⋈ … ⋈ Rk(A)`` carries
k−1 predicates on the same target attribute. Every closure predicate among
the prior relations was enforced upstream (the same invariant
:class:`~repro.caching.key.CacheKey` relies on to drop duplicate key
components), so once a row's target attribute is known to equal one prior
relation's attribute, a predicate equating it to *another* prior
relation's attribute holds too and is not compared again. Two attributes
of one prior relation are not known to be equal (intra-relation
equalities stay implicit in the graph), so such residuals are kept, as are
residuals on other target attributes. Skipped residuals are still charged:
the cost model counts every bound predicate, whatever the interpreter
actually compares.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.operators.base import ExecContext
from repro.relations.predicates import JoinGraph
from repro.relations.relation import Relation
from repro.streams.tuples import CompositeTuple, Row

# (prior relation, prior position, target position): one equality check
# of a target row against a composite.
Check = Tuple[str, int, int]


class _BoundPredicate(NamedTuple):
    """A predicate with attribute positions resolved at plan-build time."""

    prior_relation: str
    prior_position: int
    target_attribute: str
    target_position: int


class _IndexProbe(NamedTuple):
    """One bound predicate compiled as the operator's index probe."""

    attribute: str
    prior_relation: str
    prior_position: int
    checks: Tuple[Check, ...]  # residuals the prefix does not imply


def _unimplied(
    enforced: Sequence[_BoundPredicate], rest: Iterable[_BoundPredicate]
) -> Tuple[Check, ...]:
    """The predicates of ``rest`` that ``enforced`` (and each other) do
    not imply, as prebound checks (see the module docstring)."""
    pinned = list(enforced)
    checks = []
    for bound in rest:
        if any(
            bound.target_position == p.target_position
            and bound.prior_relation != p.prior_relation
            for p in pinned
        ):
            continue
        pinned.append(bound)
        checks.append(
            (bound.prior_relation, bound.prior_position, bound.target_position)
        )
    return tuple(checks)


def _filter(
    rows: Iterable[Row], composite: CompositeTuple, checks: Tuple[Check, ...]
) -> List[Row]:
    """The rows passing every check against ``composite``, in order."""
    if len(checks) == 1:
        ((relation, position, target_position),) = checks
        value = composite.value(relation, position)
        return [row for row in rows if row.values[target_position] == value]
    wanted = [(t, composite.value(r, p)) for r, p, t in checks]
    return [
        row for row in rows
        if all(row.values[t] == value for t, value in wanted)
    ]


class JoinOperator:
    """Joins composites with ``target`` using predicates to prior relations."""

    def __init__(
        self,
        graph: JoinGraph,
        prior: Sequence[str],
        target: str,
        relation: Optional[Relation] = None,
    ):
        self.target = target
        self.prior = tuple(prior)
        bound = []
        for pred in graph.predicates_between(prior, target):
            target_ref = pred.side_for(target)
            prior_ref = pred.other_side(target)
            bound.append(
                _BoundPredicate(
                    prior_relation=prior_ref.relation,
                    prior_position=graph.attr_position(prior_ref),
                    target_attribute=target_ref.attribute,
                    target_position=graph.attr_position(target_ref),
                )
            )
        self._bound: Tuple[_BoundPredicate, ...] = tuple(bound)
        # Candidate index probes in predicate order (the first indexed one
        # wins), each with its own residual checks.
        self._probes: Tuple[_IndexProbe, ...] = tuple(
            _IndexProbe(
                attribute=b.target_attribute,
                prior_relation=b.prior_relation,
                prior_position=b.prior_position,
                checks=_unimplied([b], (o for o in self._bound if o is not b)),
            )
            for b in self._bound
        )
        self._scan_checks = _unimplied((), self._bound)
        # Residuals charged per candidate row: every bound predicate but
        # the one the index answers.
        self._charged_residuals = max(0, len(self._bound) - 1)
        # Batch-memo signature: (target position, value) pairs in the
        # order ``sorted`` would give them. Ties on a target position hold
        # equal values when the prior relations differ; two attributes of
        # one prior relation may differ, and then the values must sort.
        slots = sorted(
            ((b.target_position, b.prior_relation, b.prior_position)
             for b in self._bound),
            key=lambda slot: slot[0],
        )
        self._signature_slots: Tuple[Tuple[int, str, int], ...] = tuple(slots)
        self._sort_signature = len(
            {(t, r) for t, r, _ in slots}
        ) < len(slots)
        self.relation: Optional[Relation] = None
        self._index_version = -1
        self._probe: Optional[_IndexProbe] = None
        self._lookup = None
        if relation is not None:
            self.bind(relation)

    def bind(self, relation: Relation) -> "JoinOperator":
        """Attach the live relation state this operator joins against."""
        if relation.schema.relation != self.target:
            raise PlanError(
                f"operator targets {self.target!r} but was bound to "
                f"{relation.schema.relation!r}"
            )
        self.relation = relation
        self._index_version = -1
        return self

    @property
    def predicate_count(self) -> int:
        """Number of predicates this operator enforces."""
        return len(self._bound)

    def is_cross_product(self) -> bool:
        """True when no predicate links the target to the prefix."""
        return not self._bound

    def _resolve_index(self, relation: Relation) -> None:
        """Pick the index probe for the relation's current index set."""
        self._probe = self._lookup = None
        for probe in self._probes:
            if relation.has_index(probe.attribute):
                self._probe = probe
                self._lookup = relation.index(probe.attribute).lookup
                break
        self._index_version = relation.index_version

    def _refresh(self) -> None:
        """Raise if unbound; re-pick the probe if the index set changed."""
        relation = self.relation
        if relation is None:
            raise PlanError(f"operator for {self.target!r} is unbound")
        if self._index_version != relation.index_version:
            self._resolve_index(relation)

    def apply(
        self, composites: Sequence[CompositeTuple], ctx: ExecContext
    ) -> List[CompositeTuple]:
        """Join every input composite with the target relation.

        Inside a micro-batch (``ctx.probe_memo`` set) the match set for a
        given constraint signature is computed once and reused — across
        composites, updates, and pipelines — until the target's window
        changes. The match set depends only on the target window and the
        ``(target_position, value)`` constraint pairs, so a memo hit is
        exact; reuse charges ``batch_memo_hit`` instead of the probe and
        residual-verification costs.
        """
        self._refresh()
        clock, cm = ctx.clock, ctx.cost_model
        memo = ctx.probe_memo
        target = self.target
        match = self._indexed if self._probe is not None else self._scan
        outputs: List[CompositeTuple] = []
        for composite in composites:
            if memo is None:
                matches = match(composite, clock, cm)
            else:
                signature = self._signature(composite)
                matches = memo.get(target, signature)
                if matches is None:
                    matches = match(composite, clock, cm)
                    memo.put(target, signature, matches)
                else:
                    clock.charge(cm.batch_memo_hit)
            clock.charge(cm.per_match * len(matches))
            if matches:
                outputs += composite.extensions(target, matches)
        return outputs

    def match_rows(
        self, composite: CompositeTuple, ctx: ExecContext
    ) -> List[Row]:
        """Rows of the target joining ``composite`` (no extension)."""
        self._refresh()
        if self._probe is not None:
            return self._indexed(composite, ctx.clock, ctx.cost_model)
        return self._scan(composite, ctx.clock, ctx.cost_model)

    # ------------------------------------------------------------------
    # matching strategies
    # ------------------------------------------------------------------
    def _signature(self, composite: CompositeTuple) -> tuple:
        signature = tuple([
            (target_position, composite.value(relation, position))
            for target_position, relation, position in self._signature_slots
        ])
        if self._sort_signature:
            return tuple(sorted(signature))
        return signature

    def _indexed(self, composite: CompositeTuple, clock, cm) -> List[Row]:
        probe = self._probe
        probe_value = composite.value(
            probe.prior_relation, probe.prior_position
        )
        clock.charge(cm.index_probe)
        candidates = self._lookup(probe_value)
        if not self._charged_residuals:
            return candidates
        clock.charge(
            cm.predicate_eval * len(candidates) * self._charged_residuals
        )
        if not probe.checks or not candidates:
            return candidates
        return _filter(candidates, composite, probe.checks)

    def _scan(self, composite: CompositeTuple, clock, cm) -> List[Row]:
        relation = self.relation
        size = len(relation)
        clock.charge(cm.scan_tuple * size)
        if not self._bound:
            return list(relation.rows())
        clock.charge(cm.predicate_eval * size * len(self._bound))
        return _filter(relation.rows(), composite, self._scan_checks)

    def __repr__(self) -> str:
        preds = ", ".join(
            f"{b.prior_relation}[{b.prior_position}]="
            f"{self.target}.{b.target_attribute}"
            for b in self._bound
        )
        return f"Join({self.target}; {preds or 'cross'})"
