"""Seeded input generator for the repo benchmark.

Everything a run sends to the system is built here from the workload seed:
manifest text (with grammar-legal names), plan pairs, lint variants,
verify-paths requests, trace-check bodies and realization requests.  The
system under test only ever sees the generated inputs; each input carries
the facts the answer checker needs (``reference.py``), known from how the
input was constructed rather than from the serving path.

Why the generator renders its own manifests instead of calling
``repro.manifest.dumps`` on ``repro.bench.workloads.replicated_video_system``:
that system suffixes names with ``@g<i>``, and ``dumps`` writes them out
verbatim, which ``loads`` then rejects (``bad component 'D5@g0 @
laptop@g0'``).  The names here use ``_g<i>`` instead (see NOTES.md,
"Known defects").
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

Config = FrozenSet[str]

# -- specs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    action_id: str
    removes: Config
    adds: Config
    cost: float
    description: str = ""

    def operation(self) -> str:
        removes, adds = sorted(self.removes), sorted(self.adds)
        if not removes:
            return f"+{adds[0]}"
        if not adds:
            return f"-{removes[0]}"
        if len(removes) == 1 and len(adds) == 1:
            return f"{removes[0]} -> {adds[0]}"
        return f"({', '.join(removes)}) -> ({', '.join(adds)})"


# An invariant is a tagged tuple the generator can both render and evaluate:
#   ("one_of", names)            exactly one present
#   ("implies", a, clauses)      a -> AND over clauses, each an OR of names
#   ("not_both", a, b)           !(a & b)
#   ("all", names)               every name present
#   ("unknown", a, ghost)        a -> ghost, ghost undeclared (lint defect)
Invariant = Tuple


def _holds(inv: Invariant, c: Config) -> bool:
    kind = inv[0]
    if kind == "one_of":
        return sum(1 for name in inv[1] if name in c) == 1
    if kind == "implies":
        return inv[1] not in c or all(
            any(name in c for name in clause) for clause in inv[2]
        )
    if kind == "not_both":
        return not (inv[1] in c and inv[2] in c)
    if kind == "all":
        return all(name in c for name in inv[1])
    raise ValueError(f"cannot evaluate invariant kind {kind!r}")


def _render_inv(inv: Invariant) -> str:
    kind = inv[0]
    if kind == "one_of":
        return f"one_of({', '.join(inv[1])})"
    if kind == "implies":
        parts = [
            clause[0] if len(clause) == 1 else f"({' | '.join(clause)})"
            for clause in inv[2]
        ]
        return f"{inv[1]} -> {' & '.join(parts)}"
    if kind == "not_both":
        return f"!({inv[1]} & {inv[2]})"
    if kind == "all":
        return " & ".join(inv[1])
    if kind == "unknown":
        return f"{inv[1]} -> {inv[2]}"
    raise ValueError(kind)


@dataclass
class Spec:
    """One generated system: renders to manifest text, evaluates itself."""

    name: str
    components: List[Tuple[str, str]] = field(default_factory=list)
    invariants: List[Tuple[str, Invariant]] = field(default_factory=list)
    actions: List[Action] = field(default_factory=list)
    configs: Dict[str, Config] = field(default_factory=dict)
    properties: Dict[str, str] = field(default_factory=dict)
    ccs: List[Tuple[str, ...]] = field(default_factory=list)
    conflicts: List[Tuple[str, str]] = field(default_factory=list)
    #: a named configuration deliberately violating the invariants (lint)
    unsafe_configs: Dict[str, Config] = field(default_factory=dict)
    #: per-group local safe states, the product of which is the safe set
    #: before cross-group invariants (used to draw configurations)
    local_states: List[List[Config]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.components)

    def holds(self, c: Config) -> bool:
        return all(
            _holds(inv, c) for _, inv in self.invariants if inv[0] != "unknown"
        )

    def text(self) -> str:
        lines = [f"# generated: {self.name}", "", "[components]"]
        lines += [f"{name} @ {process}" for name, process in self.components]
        lines += ["", "[invariants]"]
        lines += [f"{label} : {_render_inv(inv)}" for label, inv in self.invariants]
        lines += ["", "[actions]"]
        for action in self.actions:
            entry = f"{action.action_id} : {action.operation()} @ {action.cost:g}"
            if action.description:
                entry += f" ; {action.description}"
            lines.append(entry)
        configs = {**self.configs, **self.unsafe_configs}
        if configs:
            lines += ["", "[configurations]"]
            lines += [f"{name} = {', '.join(sorted(c))}" for name, c in configs.items()]
        if self.ccs:
            lines += ["", "[ccs]"]
            lines += [f"seg{i} : {' '.join(seq)}" for i, seq in enumerate(self.ccs)]
        if self.properties:
            lines += ["", "[properties]"]
            lines += [f"{name} : {text}" for name, text in self.properties.items()]
        if self.conflicts:
            lines += ["", "[conflicts]"]
            lines += [f"pair{i} : {a} {b}" for i, (a, b) in enumerate(self.conflicts)]
        lines.append("")
        return "\n".join(lines)

    def draw_safe(self, rng: random.Random, tries: int = 200) -> Config:
        """A random safe configuration (product of local states, filtered)."""
        for _ in range(tries):
            c = frozenset().union(*(rng.choice(states) for states in self.local_states))
            if self.holds(c):
                return c
        raise RuntimeError(f"{self.name}: no safe configuration drawn")

    def safe_count(self) -> Optional[int]:
        """Size of the safe set when it is small enough to count, else None."""
        total = 1
        for states in self.local_states:
            total *= len(states)
        if total > 4096:
            return None
        return sum(
            1
            for combo in itertools.product(*self.local_states)
            if self.holds(frozenset().union(*combo))
        )


# The paper's §5 video system: Table 1 components and Table 2 actions.
_VIDEO_COMPONENTS = (
    ("D5", "laptop"), ("D4", "laptop"), ("D3", "handheld"), ("D2", "handheld"),
    ("D1", "handheld"), ("E2", "server"), ("E1", "server"),
)
_VIDEO_ACTIONS = (
    ("A1", ("E1",), ("E2",), 10), ("A2", ("D1",), ("D2",), 10),
    ("A3", ("D1",), ("D3",), 10), ("A4", ("D2",), ("D3",), 10),
    ("A5", ("D4",), ("D5",), 10), ("A6", ("D1", "E1"), ("D2", "E2"), 100),
    ("A7", ("D1", "E1"), ("D3", "E2"), 100), ("A8", ("D2", "E1"), ("D3", "E2"), 100),
    ("A9", ("D4", "E1"), ("D5", "E2"), 100), ("A10", ("D1", "D4"), ("D2", "D5"), 50),
    ("A11", ("D1", "D4"), ("D3", "D5"), 50), ("A12", ("D2", "D4"), ("D3", "D5"), 50),
    ("A13", ("D1", "D4", "E1"), ("D2", "D5", "E2"), 150),
    ("A14", ("D1", "D4", "E1"), ("D3", "D5", "E2"), 150),
    ("A15", ("D2", "D4", "E1"), ("D3", "D5", "E2"), 150),
    ("A16", ("D4",), (), 10), ("A17", (), ("D5",), 10),
)
VIDEO_SOURCE = frozenset({"D1", "D4", "E1"})
VIDEO_TARGET = frozenset({"D3", "D5", "E2"})


def _video_group(spec: Spec, suffix: str, rng: Optional[random.Random]) -> None:
    s = suffix
    spec.components += [(n + s, p + s) for n, p in _VIDEO_COMPONENTS]
    spec.invariants += [
        (f"resource{s}", ("one_of", [f"D1{s}", f"D2{s}", f"D3{s}"])),
        (f"security{s}", ("one_of", [f"E1{s}", f"E2{s}"])),
        (f"dep1{s}", ("implies", f"E1{s}", [[f"D1{s}", f"D2{s}"], [f"D4{s}"]])),
        (f"dep2{s}", ("implies", f"E2{s}", [[f"D3{s}", f"D2{s}"], [f"D5{s}"]])),
    ]
    for action_id, removes, adds, cost in _VIDEO_ACTIONS:
        # churned specs scale costs so every spec has its own digest and MAPs
        factor = 1 if rng is None else rng.choice((1, 1, 2, 3))
        spec.actions.append(Action(
            action_id + s,
            frozenset(n + s for n in removes),
            frozenset(n + s for n in adds),
            float(cost * factor),
        ))
    names = [n + s for n, _ in _VIDEO_COMPONENTS]
    local = []
    for bits in range(1 << len(names)):
        c = frozenset(n for i, n in enumerate(names) if bits >> i & 1)
        if all(_holds(inv, c) for _, inv in spec.invariants[-4:]):
            local.append(c)
    spec.local_states.append(local)


def _service_group(
    spec: Spec, index: int, variants: int, rng: random.Random, base_cost: int
) -> None:
    names = [f"S{index}v{v}" for v in range(1, variants + 1)]
    spec.components += [(n, f"node{index}") for n in names]
    spec.invariants.append(
        (f"service{index} has one variant", ("one_of", list(names)))
    )
    for a, b in itertools.permutations(range(variants), 2):
        kind = "U" if b > a else "R"
        cost = base_cost + rng.randrange(0, 3) * 5
        spec.actions.append(Action(
            f"{kind}{index}{a}{b}", frozenset({names[a]}), frozenset({names[b]}),
            float(cost),
        ))
    spec.local_states.append([frozenset({n}) for n in names])


def video_spec(groups: int, rng: Optional[random.Random] = None, name: str = "") -> Spec:
    """*groups* copies of the video system; ``groups == 1`` is the paper's."""
    spec = Spec(name or f"video{groups}")
    for g in range(groups):
        _video_group(spec, "" if groups == 1 and rng is None else f"_g{g}", rng)
    return spec


def fleet_spec(
    services: int, variants: int, rng: random.Random, name: str = "",
    cross: int = 0,
) -> Spec:
    """A fleet of services with interchangeable variants.

    *cross* adds dependency invariants between neighbouring services
    ("service i on its top variant needs service i+1 off its first one"),
    which orders upgrades without disconnecting the safe space.
    """
    spec = Spec(name or f"fleet{services * variants}")
    for i in range(services):
        _service_group(spec, i, variants, rng, base_cost=10 + 5 * (i % 3))
    for i in range(min(cross, services - 1)):
        spec.invariants.append((
            f"order{i}",
            ("implies", f"S{i}v{variants}", [[f"S{i + 1}v{v}" for v in range(2, variants + 1)]]),
        ))
    return spec


def fleet30() -> Spec:
    """The 30-component lazy-planning fleet (ten services, three variants)."""
    spec = Spec("fleet30")
    costs = (10, 15, 20, 10, 15, 20, 10, 15, 20, 10)
    for i in range(10):
        names = [f"S{i}v{v}" for v in (1, 2, 3)]
        spec.components += [(n, f"node{i}") for n in names]
        spec.invariants.append(
            (f"service {i} has exactly one variant", ("one_of", names))
        )
        moves = (("U", 0, 1), ("U", 1, 2), ("U", 0, 2), ("R", 1, 0), ("R", 2, 1), ("R", 2, 0))
        for j, (kind, a, b) in enumerate(moves):
            spec.actions.append(Action(
                f"{kind}{i}{j}", frozenset({names[a]}), frozenset({names[b]}),
                float(costs[i]),
            ))
        spec.local_states.append([frozenset({n}) for n in names])
    spec.configs["baseline"] = frozenset(f"S{i}v1" for i in range(10))
    spec.configs["canary"] = frozenset(
        ["S0v2", "S1v2"] + [f"S{i}v1" for i in range(2, 10)]
    )
    spec.properties["service0 specified"] = "historically({one_of(S0v1, S0v2, S0v3)})"
    # a k-best alternate (U02 then R04) commits S0v3 mid-flight
    spec.properties["avoid_v3"] = "historically(!S0v3)"
    return spec


def add_rollouts(spec: Spec, rng: random.Random, count: int) -> Spec:
    """Name *count* fleet30 configurations one or two services away from
    ``baseline`` (staged rollouts).  The lazy planner's cost grows quickly
    with the distance between endpoints, so far-apart random pairs would
    turn one cold plan into seconds of frontier search."""
    base = spec.configs["baseline"]
    while len(spec.configs) < count + 2:
        c = set(base)
        for i in rng.sample(range(10), rng.choice((1, 2))):
            c.discard(f"S{i}v1")
            c.add(f"S{i}v{rng.choice((2, 3))}")
        if frozenset(c) not in spec.configs.values():
            spec.configs[f"r{len(spec.configs)}"] = frozenset(c)
    return spec


def pipeline_spec() -> Spec:
    spec = Spec("pipeline")
    spec.components = [
        ("SRC", "capture"), ("ENC1", "capture"), ("ENC2", "capture"),
        ("DEC1", "render"), ("DEC2", "render"), ("SINK", "render"),
    ]
    spec.invariants = [
        ("feed", ("all", ["SRC", "SINK"])),
        ("encoder", ("one_of", ["ENC1", "ENC2"])),
        ("decoder", ("one_of", ["DEC1", "DEC2"])),
        ("strength", ("implies", "ENC2", [["DEC2"]])),
    ]
    spec.actions = [
        Action("harden_dec", frozenset({"DEC1"}), frozenset({"DEC2"}), 3.0),
        Action("soften_dec", frozenset({"DEC2"}), frozenset({"DEC1"}), 3.0),
        Action("harden_enc", frozenset({"ENC1"}), frozenset({"ENC2"}), 4.0),
        Action("soften_enc", frozenset({"ENC2"}), frozenset({"ENC1"}), 4.0),
    ]
    spec.configs = {
        "fast": frozenset({"SRC", "ENC1", "DEC1", "SINK"}),
        "mixed": frozenset({"SRC", "ENC1", "DEC2", "SINK"}),
        "strong": frozenset({"SRC", "ENC2", "DEC2", "SINK"}),
    }
    spec.ccs = [("harden_dec", "harden_enc"), ("soften_enc", "soften_dec")]
    spec.local_states = [list(spec.configs.values())]
    return spec


def _name_configs(spec: Spec, rng: random.Random, count: int) -> None:
    seen = set(spec.configs.values())
    tries = 0
    while len(spec.configs) < count and tries < 50 * count:
        tries += 1
        c = spec.draw_safe(rng)
        if c not in seen:
            seen.add(c)
            spec.configs[f"c{len(spec.configs)}"] = c


# -- workload inputs -----------------------------------------------------------


@dataclass
class Op:
    """One operation of a workload; ``expect`` feeds the answer checker."""

    kind: str  # plan | register | evict | lint | verify | trace_check | realize
    path: str = ""
    body: object = None  # dict (JSON) or str (manifest text) or realize request
    spec: str = ""  # spec key whose digest fills "spec" at send time
    expect: Dict[str, object] = field(default_factory=dict)
    #: identity of the request for answer memoization (same key, same answer)
    key: Tuple = ()
    #: runs while the other lane waits (background probes, see workloads.py)
    exclusive: bool = False


def zipf_indices(rng: random.Random, n: int, count: int, s: float = 1.1) -> List[int]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    return [order[i] for i in rng.choices(range(n), weights=weights, k=count)]


def plan_op(spec_key: str, spec: Spec, a: str, b: str) -> Op:
    return Op(
        "plan", "/v1/plan", {"source": a, "target": b}, spec_key,
        expect={"source": spec.configs[a], "target": spec.configs[b]},
        key=("plan", spec_key, a, b),
    )


def plan_members_op(spec_key: str, source: Config, target: Config) -> Op:
    """A plan request naming its endpoints by member list, not by name."""
    a, b = ",".join(sorted(source)), ",".join(sorted(target))
    return Op(
        "plan", "/v1/plan", {"source": a, "target": b}, spec_key,
        expect={"source": source, "target": target},
        key=("plan", spec_key, a, b),
    )


def verify_ops(spec_key: str, spec: Spec, a: str, b: str) -> List[Op]:
    """verify-paths requests whose verdicts follow from the construction.

    * a property every safe configuration satisfies (one of the spec's own
      ``one_of`` invariants) holds along every path (∀ checks all k);
    * ``historically(!X)`` for a component X in the target but not the
      source fails at the last configuration of every path, so ∃ finds no
      witness among all k, and ∀ is refuted by the first path.

    Two of the three walk all k paths and one stops at the first, so the
    median of a mix of them sits among the full walks, not on the edge
    between cheap and full ones.
    """
    src, dst = spec.configs[a], spec.configs[b]
    one_of = next(inv for _, inv in spec.invariants if inv[0] == "one_of")
    cases = [(f"historically({{one_of({', '.join(one_of[1])})}})", "all", True)]
    gained = sorted(dst - src)
    if gained:
        prop = f"historically(!{gained[0]})"
        cases += [(prop, "exists", False), (prop, "all", False)]
    return [
        Op("verify", "/v1/verify-paths",
           {"source": a, "target": b, "formula": prop, "quantifier": quantifier},
           spec_key, expect={"holds": holds},
           key=("verify", spec_key, a, b, prop, quantifier))
        for prop, quantifier, holds in cases
    ]


def fleet30_verify_ops(spec_key: str) -> List[Op]:
    """The fleet30 properties, answered by the lazy frontier (>24 comps)."""
    cases = (
        ("service0 specified", "all", True),
        ("service0 specified", "exists", True),
        ("avoid_v3", "all", False),
        ("avoid_v3", "exists", True),
    )
    return [
        Op("verify", "/v1/verify-paths",
           {"source": "baseline", "target": "canary", "property": name,
            "quantifier": quantifier},
           spec_key, expect={"holds": holds},
           key=("verify", spec_key, name, quantifier))
        for name, quantifier, holds in cases
    ]


# -- lint variants -------------------------------------------------------------


def _racing_block(spec: Spec, tag: str, conflicts: bool) -> None:
    """The racing.manifest shape: two guarded services behind a firewall.

    drop_fw races drop_cache (order race, SA601) and the one-way
    drop_cache loses add_fw's inverse (SA603).  Declaring the racing pairs
    under ``[conflicts]`` is the repair ``lint --fix`` applies.
    """
    fw, ca, rx = f"FW{tag}", f"CA{tag}", f"RX{tag}"
    spec.components += [(fw, f"edge{tag}"), (ca, f"core{tag}"), (rx, f"core{tag}")]
    spec.invariants += [
        (f"guarded{tag}", ("implies", ca, [[fw]])),
        (f"shielded{tag}", ("implies", rx, [[fw]])),
    ]
    spec.actions += [
        Action(f"drop_fw{tag}", frozenset({fw}), frozenset(), 5.0),
        Action(f"add_fw{tag}", frozenset(), frozenset({fw}), 8.0),
        Action(f"drop_cache{tag}", frozenset({ca}), frozenset(), 5.0),
        Action(f"add_replica{tag}", frozenset(), frozenset({rx}), 12.0),
        Action(f"drop_replica{tag}", frozenset({rx}), frozenset(), 4.0),
    ]
    if conflicts:
        spec.conflicts += [
            (f"drop_fw{tag}", f"drop_cache{tag}"),
            (f"drop_cache{tag}", f"add_fw{tag}"),
        ]
    spec.local_states.append([
        frozenset(s) for s in ((fw,), (fw, ca), (fw, rx), (fw, ca, rx), ())
    ])


#: lint variant templates, cycled by index so that every seed lints the same
#: mix of shapes: (base, size, racing, conflicts, zero-cost, ghost, unsafe
#: named configuration, undeclared conflict, extra two-variant service)
LINT_TEMPLATES = (
    ("video", 3, True, False, False, False, False, False, True),   # 26: SA307
    ("fleet", 2, True, True, False, False, False, False, False),   # 9
    ("fleet", 3, False, False, True, False, False, False, False),  # 9
    ("pipeline", 0, False, False, False, True, False, False, False),  # 6
    ("fleet", 3, False, False, False, False, True, False, False),  # 9
    ("video", 3, False, False, False, False, False, False, False),  # 21
    ("fleet", 4, True, True, False, False, False, False, False),   # 15
    ("pipeline", 0, True, False, False, False, False, True, False),  # 9
    ("video", 3, False, False, True, False, False, False, False),  # 21
    ("fleet", 2, True, False, False, False, False, False, False),  # 9
)
#: On the host of NOTES.md the server lints these in ~1–2 ms (two), ~4.5 ms
#: (four), 35–45 ms (two) and ~118 ms (two).  With up to one body in five
#: answered from the lint cache, the median falls inside the ~4.5 ms group
#: and the p90 inside the ~118 ms one, never on the edge between groups, so
#: a seed changes names and costs but not which group a percentile reads.


def lint_variant(rng: random.Random, index: int, small: bool = False
                 ) -> Tuple[str, Dict[str, object]]:
    """One lint input (6–26 components) and the codes it must produce.

    The shape comes from ``LINT_TEMPLATES[index % 10]``; the seed draws
    costs and named configurations.  *small* keeps to the templates of at
    most 15 components.  Every injected construct has a code it always
    triggers:

    * a racing block → SA601 (order race) and SA603 (lost inverse), unless
      its pairs are declared under ``[conflicts]`` or the analysis reports
      itself restricted to named configurations (SA605);
    * a zero-cost action → SA303;
    * an invariant naming an undeclared component → SA101 (error);
    * a named configuration violating the invariants → SA205;
    * a ``[conflicts]`` entry naming an undeclared action → SA606 (error);
    * more than 24 components → SA307 (enumeration skipped).
    """
    templates = [t for t in LINT_TEMPLATES if not small or t[0] == "pipeline"
                 or (t[0] == "video" and t[1] < 3) or (t[0] == "fleet" and t[1] < 5)]
    step = index // len(templates)
    (base, size, racing, conflicts, zero_cost, ghost, unsafe, bad_conflict,
     extra) = templates[index % len(templates)]
    name = f"lint{index}"
    if base == "video":
        spec = video_spec(size, rng, name=name)
    elif base == "fleet":
        spec = fleet_spec(size, 3, rng, name=name, cross=step % 3)
    else:
        spec = pipeline_spec()
        spec.name = name
    required: set = set()
    if racing:
        _racing_block(spec, f"_{index % 7}", conflicts)
        if not conflicts:
            required |= {"SA601", "SA603"}
    if extra:
        _service_group(spec, 90 + index % 5, 2, rng, base_cost=7)
    if zero_cost:
        a = spec.actions[rng.randrange(len(spec.actions))]
        spec.actions.append(Action(a.action_id + "_free", a.removes, a.adds, 0.0))
        required.add("SA303")
    if ghost:
        spec.invariants.append(("ghost", ("unknown", spec.components[0][0], "GHOST")))
        required.add("SA101")
    if unsafe:
        spec.unsafe_configs["broken"] = frozenset()
        required.add("SA205")
    if bad_conflict:
        spec.conflicts.append((spec.actions[0].action_id, "NO_SUCH_ACTION"))
        required.add("SA606")
    if spec.size > 24:
        required.add("SA307")
    if not ghost:
        _name_configs(spec, rng, 2)
    return spec.text(), {"required": frozenset(required), "components": spec.size}


# -- traces for trace-check ----------------------------------------------------


def sim_trace(strategy: str, seed: int, short: bool = False
              ) -> Tuple[str, Dict[str, object]]:
    """JSONL of one simulated hardening run of the video system.

    ``safe-protocol`` is the paper's protocol; the others come from
    ``repro.baselines``.  The expected safety verdict follows from the
    strategy (the package documents which clause each baseline breaks);
    the ptLTL verdicts are recomputed by ``reference.commit_properties``
    from the committed configurations, independently of the server.
    """
    from repro.apps.video import VideoScenario
    from repro.apps.video.system import paper_target
    from repro.baselines import (
        LocalQuiescenceSwap, RestartSwap, TwoPhaseSwap, UnsafeSwap,
    )

    scenario = VideoScenario(seed=seed)
    target = paper_target()
    cluster = scenario.cluster
    # a short trace streams fewer frames around the same adaptation
    at, until = (5.0, 30.0) if short else (20.0, 80.0)
    if strategy == "safe-protocol":
        scenario.run(warmup=at / 2, cooldown=at / 2)
    else:
        cluster.start_apps()
        if strategy == "twophase":
            cluster.sim.run(until=at)
            TwoPhaseSwap(cluster, target).run()
        elif strategy == "unsafe-staggered":
            UnsafeSwap(cluster, target, at_time=at, stagger=5.0).schedule()
        else:
            cls = {
                "unsafe": UnsafeSwap, "quiescence": LocalQuiescenceSwap,
                "restart": RestartSwap,
            }[strategy]
            cls(cluster, target, at_time=at).schedule()
        cluster.sim.run(until=until)
    return cluster.trace.to_jsonl(), {"strategy": strategy}


#: safety verdict of each trace source (no [ccs] in the served manifest, so
#: the server checks dependencies, corruption and blocking discipline)
TRACE_SAFE = {
    "safe-protocol": True,
    "twophase": True,
    "restart": True,
    "unsafe": False,
    "unsafe-staggered": False,
    "quiescence": False,
}


# -- realization requests ------------------------------------------------------


@dataclass(frozen=True)
class RealizeRequest:
    groups: int
    fault: str  # none | stuck-once | stuck | loss
    seed: int
    jitter: Tuple[float, float]
    #: simulated time a process needs to restore full operation after a step
    resume: float = 1.0
    #: group whose handheld process carries the injected fault
    fault_group: int = 0


#: delay jitter windows and resume times the requests cycle through
JITTERS = ((0.5, 1.5), (0.5, 2.5), (1.0, 2.0), (1.0, 3.0))
RESUMES = (0.5, 1.0, 1.5)


def realize_requests(rng: random.Random, count: int, mix: Sequence[Tuple[int, str, int]]
                     ) -> List[RealizeRequest]:
    """*count* requests stratified over *mix* = (groups, fault, weight).

    Jitter windows and resume times cycle in fixed proportions within each
    shape; the seed draws the simulator seeds, the faulty group and order.
    """
    pool: List[RealizeRequest] = []
    total = sum(w for _, _, w in mix)
    for groups, fault, weight in mix:
        for i in range(max(1, round(count * weight / total))):
            pool.append(RealizeRequest(
                groups, fault, rng.randrange(1 << 30), JITTERS[i % len(JITTERS)],
                RESUMES[i % len(RESUMES)], rng.randrange(groups),
            ))
    rng.shuffle(pool)
    return pool
