"""An independent windowed equi-join oracle, and the checker built on it.

The oracle shares no code with the engine. It keeps its own count windows
and hash indexes, and for each update recomputes the delta multiset by
joining the updated row against the live windows of every other relation.
Results are compared as a multiset digest per update: the number of
deltas plus the sum of their key hashes (mod 2**64), which is independent
of emission order.

Keys come in two forms. ``rid`` keys are ``(sign, rids in relation
order)``, for in-process runs where the engine hands back the very rows
the stream carried. ``values`` keys are ``(sign, ((relation, values),
...))`` sorted by relation, which is the rid-free form the service puts
on its delta frames.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

MASK = (1 << 64) - 1

Digest = Tuple[int, int]           # (delta count, sum of key hashes)


def digest_keys(keys: Iterable[tuple]) -> Digest:
    count = 0
    total = 0
    for key in keys:
        count += 1
        total += hash(key)
    return count, total & MASK


class WindowedJoinOracle:
    """Count windows + equi-join recomputation over plain values."""

    def __init__(
        self,
        schemas: Dict[str, Tuple[str, ...]],
        predicates: Sequence[Tuple[str, str, str, str]],
        windows: Dict[str, int],
        key_mode: str = "rid",
    ):
        if key_mode not in ("rid", "values"):
            raise ValueError(f"unknown key mode {key_mode!r}")
        self.key_mode = key_mode
        self.relations = tuple(schemas)
        self.sorted_relations = tuple(sorted(schemas))
        self.sizes = dict(windows)
        self.window: Dict[str, deque] = {r: deque() for r in schemas}
        # relation -> attribute position -> value -> {rid: values}
        self.index: Dict[str, Dict[int, Dict[object, Dict[int, tuple]]]] = {
            r: {} for r in schemas
        }
        edges: Dict[str, List[Tuple[int, str, int]]] = {r: [] for r in schemas}
        for left, left_attr, right, right_attr in predicates:
            lpos = schemas[left].index(left_attr)
            rpos = schemas[right].index(right_attr)
            edges[left].append((lpos, right, rpos))
            edges[right].append((rpos, left, lpos))
            self.index[left].setdefault(lpos, {})
            self.index[right].setdefault(rpos, {})
        self.plans = {r: self._plan(r, edges) for r in schemas}
        self.next_rid = 0
        self.next_seq = 0

    def _plan(self, start: str, edges) -> List[Tuple[str, List[tuple]]]:
        """Join order from ``start``: each step names a relation and its
        constraints ``(own position, bound relation, bound position)``;
        the first constraint picks the index, the rest filter."""
        bound = [start]
        steps = []
        remaining = [r for r in self.relations if r != start]
        while remaining:
            for relation in remaining:
                constraints = [
                    (own, other, other_pos)
                    for own, other, other_pos in edges[relation]
                    if other in bound
                ]
                if constraints:
                    break
            else:
                raise ValueError("oracle supports connected join graphs only")
            steps.append((relation, constraints))
            bound.append(relation)
            remaining.remove(relation)
        return steps

    # ------------------------------------------------------------------
    # window maintenance
    # ------------------------------------------------------------------
    def _add(self, relation: str, rid: int, values: tuple) -> None:
        self.window[relation].append((rid, values))
        for pos, by_value in self.index[relation].items():
            by_value.setdefault(values[pos], {})[rid] = values

    def _remove(self, relation: str, rid: int, values: tuple) -> None:
        for pos, by_value in self.index[relation].items():
            bucket = by_value[values[pos]]
            del bucket[rid]
            if not bucket:
                del by_value[values[pos]]

    # ------------------------------------------------------------------
    # delta recomputation
    # ------------------------------------------------------------------
    def deltas(self, relation: str, sign: int, rid: int,
               values: tuple) -> List[tuple]:
        """Every result key the update produces against the live windows."""
        bindings: Dict[str, Tuple[int, tuple]] = {relation: (rid, values)}
        out: List[tuple] = []
        steps = self.plans[relation]
        rid_mode = self.key_mode == "rid"
        order = self.relations if rid_mode else self.sorted_relations

        def extend(depth: int) -> None:
            if depth == len(steps):
                if rid_mode:
                    out.append((sign, tuple(bindings[r][0] for r in order)))
                else:
                    out.append((sign, tuple(
                        (r, bindings[r][1]) for r in order)))
                return
            target, constraints = steps[depth]
            own, other, other_pos = constraints[0]
            candidates = self.index[target][own].get(
                bindings[other][1][other_pos])
            if not candidates:
                return
            rest = constraints[1:]
            for cand_rid, cand_values in candidates.items():
                if all(
                    cand_values[o] == bindings[b][1][bp]
                    for o, b, bp in rest
                ):
                    bindings[target] = (cand_rid, cand_values)
                    extend(depth + 1)
            bindings.pop(target, None)

        extend(0)
        return out

    def apply(self, relation: str, sign: int, rid: int,
              values: tuple) -> Digest:
        """Apply one stream update (insert or expiry delete).

        Raises ValueError when the update breaks count-window semantics:
        a delete must remove the oldest row of a full window, and an
        insert must find room.
        """
        window = self.window[relation]
        if sign < 0:
            if (
                not window or window[0][0] != rid
                or len(window) != self.sizes[relation]
            ):
                raise ValueError(
                    f"delete of {relation} rid {rid} is not the expiry of "
                    f"the oldest row of a full window"
                )
            window.popleft()
            self._remove(relation, rid, values)
        elif len(window) >= self.sizes[relation]:
            raise ValueError(f"insert into full window {relation}")
        digest = digest_keys(self.deltas(relation, sign, rid, values))
        if sign > 0:
            self._add(relation, rid, values)
        return digest

    def feed(self, relation: str, values: tuple) -> List[Tuple[int, Digest]]:
        """One arrival, windowed the way the service windows it: the
        expired row's delete (if any) takes the next seq, then the insert.
        Returns ``[(seq, digest), ...]``."""
        out = []
        window = self.window[relation]
        if len(window) >= self.sizes[relation]:
            old_rid, old_values = window[0]
            out.append((self.next_seq,
                        self.apply(relation, -1, old_rid, old_values)))
            self.next_seq += 1
        rid = self.next_rid
        self.next_rid += 1
        out.append((self.next_seq, self.apply(relation, 1, rid, values)))
        self.next_seq += 1
        return out


def expected_digests(oracle: WindowedJoinOracle, updates) -> List[Digest]:
    """Oracle digests for an in-process update list, by stream position."""
    return [
        oracle.apply(u.relation, int(u.sign), u.row.rid, u.row.values)
        for u in updates
    ]


class Checker:
    """Counts attempted and failed update checks against the oracle."""

    def __init__(self, expected: Sequence[Digest], order: Tuple[str, ...]):
        self.expected = expected
        self.order = order
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self._sample: Optional[Tuple[int, list]] = None

    def keys(self, deltas) -> List[tuple]:
        order = self.order
        return [(d.sign, d.composite.identity(order)) for d in deltas]

    def check(self, index: int, deltas, full: bool = True) -> bool:
        """Compare one update's deltas with the oracle.

        ``full`` compares the whole multiset digest; otherwise only the
        delta count (the cheap check for later timed passes).
        """
        self.attempted += 1
        count, total = self.expected[index]
        if full:
            keys = self.keys(deltas)
            ok = digest_keys(keys) == (count, total)
            if ok and self._sample is None and keys:
                self._sample = (index, keys)
        else:
            ok = len(deltas) == count
        if not ok:
            self.fail(f"update #{index}: {len(deltas)} deltas, oracle "
                      f"expects {count}")
        return ok

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = reason

    def corruption_caught(self) -> bool:
        """Corrupt a verified delta (flip its sign, then drop it) and
        confirm both corruptions fail the comparison."""
        if self._sample is None:
            return False
        index, keys = self._sample
        expected = tuple(self.expected[index])
        sign, ident = keys[0]
        flipped = [(-sign, ident)] + keys[1:]
        return (
            digest_keys(flipped) != expected
            and digest_keys(keys[1:]) != expected
        )
