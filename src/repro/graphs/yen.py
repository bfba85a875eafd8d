"""Yen's candidate loop for k shortest loopless paths, resumable.

The paper's failure-handling cascade (§4.4) needs "the second minimum
adaptation path from the current configuration to the target
configuration", and in general the next-best alternative each time a step
fails.  Yen's algorithm enumerates loopless paths in non-decreasing cost
order; :class:`YenState` is its candidate loop for one ``(source,
target)`` pair, with the spur search left to the caller (the planner
answers the first query, which bans nothing, with its MAP, and runs the
two-phase corridor search of :mod:`repro.graphs.astar` with the bans
applied at the spur node for every spur).  The state is extended one path at a
time, so one state serves every k: a smaller k reads a prefix of
:attr:`YenState.found`, a larger one resumes where the last query
stopped.  A spur whose answer is already known is not searched again:
each root keeps the first label of its last answer (see
:class:`YenState`).
"""

from __future__ import annotations

import heapq
from typing import AbstractSet, Callable, Dict, Generic, Hashable, List, Optional, Set, Tuple, TypeVar

from repro.graphs.digraph import Path

N = TypeVar("N", bound=Hashable)
L = TypeVar("L", bound=Hashable)

#: ``(spur_node, banned_nodes, banned labels of the spur node's arcs) ->
#: (path, exhausted)``
SpurQuery = Callable[
    [N, AbstractSet[N], AbstractSet[L]], Tuple[Optional[Path[N, L]], bool]
]

#: a found path, without :class:`~repro.graphs.digraph.Edge` objects:
#: ``(cost, nodes, labels)``
Entry = Tuple[float, Tuple, Tuple]


class YenState(Generic[N, L]):
    """Yen's k shortest loopless paths from *source* to *target*, found so far.

    :attr:`found` holds the paths in Yen order, each as ``(cost, nodes,
    labels)``; the candidate pool is a heap of ``(cost, order, nodes,
    labels)`` tuples, so ties break by insertion order.  Every spur bans
    the root's nodes and the arcs already taken from the spur node by
    found paths sharing the root, and duplicates are dropped by their
    labels: a ``(node, label)`` pair names at most one arc (an action id
    one arc out of a mask), so from the one source the labels fix the
    nodes.  :meth:`extend` finds one more path from one round (every
    spur of the last found path).  A spur's answer depends only on the
    found paths, so a round that runs out of budget keeps the spurs it
    finished and the candidates they gave, and a later call resumes at
    the spur that ran out; the next path joins :attr:`found` only when
    its round finishes.

    The spur memo.  A root is a label prefix ``labels[:i]``; its owner,
    the earliest found path with that prefix, keeps the root's slot: the
    first label of its last spur answer, or ``None`` for "no path"; it
    starts as the owner's own next label, which the root's bans always
    hold.  A root's bans only grow, and each leaves the spur node, the
    search's source.  When the slot says "no path", or its label is not
    banned now, the search would return the same answer (the spur search must
    return the least path in an order that arc removal elsewhere cannot
    change, as the planner's does; DESIGN.md §11), whose candidate is
    already seen: the spur is skipped.  Slots are keyed by labels, not
    nodes, since two labels can name the same node transition.

    Not thread-safe: :meth:`extend` mutates the state in place, and the
    planner that owns it is used under one lock at a time.
    """

    __slots__ = (
        "source", "target", "found", "done", "_seen", "_pool", "_order",
        "_spur", "_fresh", "_slots", "_starts",
    )

    def __init__(self, source: N, target: N):
        self.source = source
        self.target = target
        self.found: List[Entry] = []
        #: every loopless path has been found
        self.done = False
        self._seen: Set[Tuple] = set()
        self._pool: List[Tuple] = []
        self._order = 0
        #: the round in progress: its next spur index, and the candidates
        #: its finished spurs gave, by labels
        self._spur = 0
        self._fresh: Dict[Tuple, Entry] = {}
        #: the memo, flat: a found path owns the roots past the longest
        #: label prefix an earlier path shares, and its root ``i`` sits at
        #: ``_slots[_starts[j] + i]`` (one start per path whose round began)
        self._slots: list = []
        self._starts: List[int] = []

    def extend(self, spur_query: SpurQuery, weight: Callable[[L], float]) -> bool:
        """Find the next path, unless :attr:`done`.

        *spur_query* answers each banned-set query and reports budget
        exhaustion; *weight* gives an arc's weight by its label (in the
        SAG, the action's cost), which prices a spur's root.  Returns
        ``False`` when it ran out (the round keeps its finished spurs), ``True``
        otherwise: then one path was appended to :attr:`found`, or
        :attr:`done` was set.
        """
        if self.done:
            return True
        found = self.found
        if not found:
            first, exhausted = spur_query(self.source, frozenset(), frozenset())
            if exhausted:
                return False
            if first is None:
                self.done = True
                return True
            found.append((first.cost, first.nodes, first.labels))
            self._seen.add(first.labels)
            return True
        _, nodes, labels = found[-1]
        seen = self._seen
        fresh = self._fresh
        slots, starts = self._slots, self._starts
        if len(starts) < len(found):  # the round of found[-1] begins
            shared = max((_shared(labels, path[2]) for path in found[:-1]), default=-1)
            starts.append(len(slots) - shared - 1)
            slots.extend(labels[shared + 1:])
        target = self.target
        for i in range(self._spur, len(labels)):
            banned_nodes = set(nodes[:i])  # forbid loops through the root
            if nodes[i] in banned_nodes or target in banned_nodes:
                continue
            root = nodes[: i + 1]
            root_labels = labels[:i]
            banned_labels = set()
            slot = -1  # the root's slot, in its owner's block
            for j, path in enumerate(found):
                path_labels = path[2]
                if len(path_labels) > i and path[1][: i + 1] == root:
                    banned_labels.add(path_labels[i])
                    if slot < 0 and path_labels[:i] == root_labels:
                        slot = starts[j] + i
            first = slots[slot]
            if first is None or first not in banned_labels:
                continue  # the answer is the last one, already seen
            spur, exhausted = spur_query(nodes[i], banned_nodes, banned_labels)
            if exhausted:
                self._spur = i
                return False
            if spur is None:
                slots[slot] = None
                continue
            slots[slot] = spur.labels[0]
            key = root_labels + spur.labels
            if key not in seen and key not in fresh:
                root_cost = sum(weight(label) for label in root_labels)
                fresh[key] = (root_cost + spur.cost, nodes[:i] + spur.nodes, key)
        self._spur, self._fresh = 0, {}
        pool = self._pool
        for cost, path_nodes, path_labels in fresh.values():
            seen.add(path_labels)
            heapq.heappush(pool, (cost, self._order, path_nodes, path_labels))
            self._order += 1
        if not pool:
            self.done = True
            return True
        cost, _, path_nodes, path_labels = heapq.heappop(pool)
        found.append((cost, path_nodes, path_labels))
        return True


def _shared(a: Tuple, b: Tuple) -> int:
    """The length of the longest common prefix of *a* and *b*."""
    length = 0
    for x, y in zip(a, b):
        if x != y:
            break
        length += 1
    return length
