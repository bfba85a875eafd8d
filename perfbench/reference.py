"""Answer checking against references independent of the serving path.

* plans: every step is a declared action of the generated spec, the step
  deltas chain from the requested source to the requested target, every
  committed configuration passes the AST ``InvariantSet.all_hold`` of the
  parsed manifest (the server plans on compiled bit masks), and the total
  cost equals this module's own uniform-cost search wherever the safe set
  is small enough to search;
* verify-paths verdicts and lint codes: known from how each input was
  built (``gen.verify_ops``, ``gen.lint_variant``);
* trace-check verdicts: known from the strategy that produced the trace,
  with the ptLTL verdicts recomputed from the committed configurations;
* realize outcomes: known from the injected fault.

Every checker returns ``None`` for a right answer and a one-line reason
for a wrong one.
"""

from __future__ import annotations

import heapq
import itertools
import json
from typing import Dict, FrozenSet, List, Optional, Tuple

from gen import Config, Spec

#: safe sets above this size are not searched (validity is still checked)
MAX_UCS_STATES = 4096


def parse_label(label: str) -> Config:
    """``"{D1,D4,E1}"`` → frozenset."""
    inner = label.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"bad configuration label {label!r}")
    inner = inner[1:-1]
    return frozenset(part for part in inner.split(",") if part)


class SpecOracle:
    """Per-spec reference facts: AST invariants and optimal distances."""

    def __init__(self, spec: Spec):
        from repro.manifest import loads

        self.spec = spec
        self.invariants = loads(spec.text()).invariants
        self.actions = {a.action_id: a for a in spec.actions}
        self._groups = self._independent_groups()
        self._searchable = (
            self._groups is None and (self.spec.safe_count() or MAX_UCS_STATES + 1)
            <= MAX_UCS_STATES
        )
        self._dist: Dict[Tuple[int, Config], Dict[Config, float]] = {}

    # -- decomposition ---------------------------------------------------------
    def _independent_groups(self) -> Optional[List[Tuple[FrozenSet[str], list, list]]]:
        """Per-group (names, local states, actions) when no invariant or
        action spans two groups; ``None`` otherwise."""
        groups = []
        for states in self.spec.local_states:
            names = frozenset().union(*states)
            groups.append((names, states, []))
        owner = {}
        for index, (names, _, _) in enumerate(groups):
            for name in names:
                owner[name] = index
        for _, inv in self.spec.invariants:
            atoms = {x for x in _atoms(inv)}
            if len({owner.get(a) for a in atoms}) != 1:
                return None
        for action in self.spec.actions:
            touched = action.removes | action.adds
            homes = {owner.get(a) for a in touched}
            if len(homes) != 1 or None in homes:
                return None
            groups[homes.pop()][2].append(action)
        return groups

    def _group_dist(self, index: int, source: Config) -> Dict[Config, float]:
        key = (index, source)
        if key not in self._dist:
            names, states, actions = self._groups[index]
            safe = set(states)
            self._dist[key] = _ucs(source, actions, safe.__contains__)
        return self._dist[key]

    def distance(self, source: Config, target: Config) -> Optional[float]:
        """Optimal safe-path cost, ``inf`` when unreachable, ``None`` when
        the safe set is too large to search."""
        if self._groups is not None:
            total = 0.0
            for index, (names, _, _) in enumerate(self._groups):
                d = self._group_dist(index, source & names).get(target & names)
                if d is None:
                    return float("inf")
                total += d
            return total
        if not self._searchable:
            return None
        key = (-1, source)
        if key not in self._dist:
            self._dist[key] = _ucs(source, self.spec.actions, self.spec.holds)
        return self._dist[key].get(target, float("inf"))

    # -- plan check --------------------------------------------------------------
    def check_plan(self, plan: dict, source: Config, target: Config) -> Optional[str]:
        try:
            steps = plan["steps"]
            current = parse_label(plan["source"])
            if current != source or parse_label(plan["target"]) != target:
                return "plan endpoints differ from the request"
            if not self.invariants.all_hold(current):
                return "source violates the invariants"
            cost = 0.0
            for step in steps:
                action = self.actions.get(step["action"])
                if action is None:
                    return f"undeclared action {step['action']!r}"
                if parse_label(step["source"]) != current:
                    return "steps do not chain"
                if not action.removes <= current or action.adds & current:
                    return f"{action.action_id} not applicable"
                current = (current - action.removes) | action.adds
                if parse_label(step["target"]) != current:
                    return f"{action.action_id} target mismatch"
                if not self.invariants.all_hold(current):
                    return f"unsafe configuration committed after {action.action_id}"
                cost += action.cost
            if current != target:
                return "plan does not reach the target"
            if abs(cost - float(plan["cost"])) > 1e-9:
                return "reported cost differs from the sum of action costs"
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed plan: {exc}"
        best = self.distance(source, target)
        if best is not None and abs(best - cost) > 1e-9:
            return f"cost {cost:g} is not optimal ({best:g})"
        return None


def _atoms(inv) -> List[str]:
    kind = inv[0]
    if kind in ("one_of", "all"):
        return list(inv[1])
    if kind == "implies":
        return [inv[1], *itertools.chain.from_iterable(inv[2])]
    return [inv[1], inv[2]]


def _ucs(source: Config, actions, is_safe) -> Dict[Config, float]:
    """Single-source uniform-cost search over safe configurations."""
    dist = {source: 0.0}
    counter = itertools.count()
    heap = [(0.0, next(counter), source)]
    done = set()
    while heap:
        d, _, c = heapq.heappop(heap)
        if c in done:
            continue
        done.add(c)
        for action in actions:
            if not action.removes <= c or action.adds & c:
                continue
            n = (c - action.removes) | action.adds
            if n in done or not is_safe(n):
                continue
            nd = d + action.cost
            if nd < dist.get(n, float("inf")):
                dist[n] = nd
                heapq.heappush(heap, (nd, next(counter), n))
    return {c: dist[c] for c in done}


# -- response checks -------------------------------------------------------------


def envelope(body: bytes, kind: str) -> Tuple[Optional[dict], Optional[str]]:
    """Decode a wire envelope and insist it is an ``ok`` answer of *kind*."""
    try:
        doc = json.loads(body)
    except ValueError:
        return None, "response is not JSON"
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        error = doc.get("error") if isinstance(doc, dict) else None
        return None, f"error envelope {error!r}"[:200]
    if doc.get("kind") != kind:
        return None, f"expected kind {kind!r}, got {doc.get('kind')!r}"
    return doc["result"], None


def check_plan_response(body: bytes, oracle: SpecOracle, source: Config,
                        target: Config) -> Optional[str]:
    result, error = envelope(body, "plan")
    if error:
        return error
    return oracle.check_plan(result.get("plan", {}), source, target)


def check_verify_response(body: bytes, expect: dict) -> Optional[str]:
    result, error = envelope(body, "verify-paths")
    if error:
        return error
    if result.get("holds") is not expect["holds"]:
        return f"verdict {result.get('holds')!r}, expected {expect['holds']!r}"
    if result.get("paths_checked", 0) < 1:
        return "verdict decided on zero paths"
    return None


def check_lint_response(body: bytes, expect: dict) -> Optional[str]:
    result, error = envelope(body, "lint")
    if error:
        return error
    try:
        codes = {d["code"] for d in result["report"]["diagnostics"]}
    except (KeyError, TypeError):
        return "lint report without diagnostics"
    required = expect["required"]
    if "SA605" in codes:
        # above the pair-source budget SA601/SA603 run on named
        # configurations only and say so with SA605
        required = required - {"SA601", "SA603"}
    missing = required - codes
    if missing:
        return f"lint missed {sorted(missing)}"
    errors = {c for c in codes if c in ("SA101", "SA606")} - expect["required"]
    if errors:
        return f"lint reported errors never injected: {sorted(errors)}"
    return None


def commit_properties(jsonl: str) -> Dict[str, bool]:
    """The video manifest's two ptLTL properties over a trace's commits.

    ``encoder specified`` = historically(one_of(E1, E2));
    ``no encoder downgrade`` = historically(E1 -> !once(E2)).
    """
    specified, no_downgrade, seen_e2 = True, True, False
    for line in jsonl.splitlines():
        record = json.loads(line)
        if record.get("type") != "ConfigCommitted":
            continue
        members = set(record["configuration"])
        seen_e2 = seen_e2 or "E2" in members
        if ("E1" in members) == ("E2" in members):
            specified = False
        if "E1" in members and seen_e2:
            no_downgrade = False
    return {"encoder specified": specified, "no encoder downgrade": no_downgrade}


def check_trace_response(body: bytes, expect: dict) -> Optional[str]:
    result, error = envelope(body, "trace-check")
    if error:
        return error
    verdict = (result.get("safety") or {}).get("ok")
    if verdict is not expect["safe"]:
        return f"safety verdict {verdict!r}, expected {expect['safe']!r}"
    if result.get("records") != expect["records"]:
        return "record count differs from the trace"
    if "ltl" in expect:
        prop = result.get("property") or {}
        if prop.get("holds") is not expect["ltl_holds"]:
            return f"ltl verdict {prop.get('holds')!r}, expected {expect['ltl_holds']!r}"
    return None


def check_register_response(body: bytes, expect: dict) -> Optional[str]:
    result, error = envelope(body, "register-spec")
    if error:
        return error
    if result.get("components") != expect["components"]:
        return "component count differs from the manifest"
    if "created" in expect and result.get("created") is not expect["created"]:
        return f"created={result.get('created')!r}, expected {expect['created']!r}"
    return None


def check_evict_response(body: bytes) -> Optional[str]:
    result, error = envelope(body, "evict-spec")
    return error
