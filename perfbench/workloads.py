"""The four workloads, built from the seed.

Every workload is a closed loop over the same engine: two lanes, each with
one keep-alive HTTP connection to the server and one realization worker,
take *units* (short op sequences run in order on one lane) from a seeded
schedule.  Every workload carries every operation kind, so every
end-to-end metric is measured on every workload; the mix and the inputs
decide which layer dominates:

* ``plan-hot`` — Zipf-skewed pairs from a fixed pool over five specs, so
  most bodies repeat and the wire cache answers them (warm path);
* ``plan-churn`` — a rotation of more than 64 distinct 12–22-component
  specs (beyond the default spec cache): register, plan six distinct pairs,
  sometimes delete — registration, eviction, enumeration, SAG build and SPT
  construction dominate, the wire cache is bypassed;
* ``analyze`` — mostly distinct lint variants, verify-paths on eager ~20-
  component specs and on fleet30 (lazy), and trace-check on simulated
  traces from the safe protocol and from the baselines;
* ``realize`` — adaptation requests over 1–3-group replicated video on the
  sim backend, with jitter and injected stuck participants and loss.

The operations a workload does not centre on form a light, mostly warm
background of fixed share (``_Background``), so that their latencies are
measured everywhere and a change on one layer shows as "no change"
elsewhere.  Background operations come in bursts, one burst per kind and
round, and a burst is *exclusive*: the other lane holds its next
operation until the burst ends, so it times the operations themselves
rather than the main traffic they happen to overlap.  An HTTP burst opens
with an untimed ``GET /healthz``, so that its first timed request does not
also time waking an idle server and client (on a shared virtual host that
wake-up, not the program, would decide the background tails).
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import gen
from gen import Op, Spec

WORKLOADS = ("plan-hot", "plan-churn", "analyze", "realize")

#: untimed request that opens each HTTP background burst (see above)
WARMUP = Op("warmup", "/healthz", key=("warmup",))

#: realization mix for the realize workload: (groups, fault, weight)
REALIZE_MIX = (
    (1, "none", 2), (2, "none", 2), (3, "none", 2),
    (2, "stuck-once", 1), (3, "stuck-once", 1), (3, "stuck", 1),
    (2, "loss", 1), (3, "loss", 1),
)
#: how far back an ``analyze`` lint repeat reaches, in distinct bodies
RECENT_LINTS = 16
#: realization mix of the background in the HTTP workloads
LIGHT_REALIZE_MIX = ((1, "none", 3), (2, "none", 2), (2, "stuck-once", 1))


@dataclass
class Inputs:
    workload: str
    specs: Dict[str, Spec]
    #: specs registered during set-up, in order
    initial: List[str]
    units: List[List[Op]]
    #: whether the schedule may run out and start again without changing
    #: the mix (``plan-hot`` repeats its pool by design; elsewhere a repeat
    #: turns a fresh body, pair or simulator seed into a cached one)
    cyclic: bool = False


def _named(spec: Spec, rng: random.Random, count: int) -> Spec:
    gen._name_configs(spec, rng, count)
    return spec


def reachable_pairs(spec: Spec, oracle, rng: random.Random, limit: int,
                    distinct_sources: bool = False) -> List[Tuple[str, str]]:
    names = list(spec.configs)
    pairs = []
    for a in names:
        for b in names:
            if a == b:
                continue
            d = oracle.distance(spec.configs[a], spec.configs[b])
            if d is not None and d != float("inf"):
                pairs.append((a, b))
    rng.shuffle(pairs)
    if distinct_sources:
        chosen, used = [], set()
        for a, b in pairs:
            if a not in used:
                chosen.append((a, b))
                used.add(a)
        pairs = chosen + [p for p in pairs if p not in chosen]
    return pairs[:limit]


def register_op(key: str, spec: Spec, created=None) -> Op:
    expect = {"components": spec.size}
    if created is not None:
        expect["created"] = created
    return Op("register", "/v1/specs", spec.text(), key, expect=expect,
              key=("register", key))


def trace_ops(spec_key: str, traces: Dict[str, Tuple[str, dict]]) -> List[Op]:
    import reference

    ops = []
    for name, (jsonl, meta) in traces.items():
        records = len(jsonl.splitlines())
        safe = gen.TRACE_SAFE[meta["strategy"]]
        ops.append(Op("trace_check", "/v1/trace-check", {"trace": jsonl}, spec_key,
                      expect={"safe": safe, "records": records},
                      key=("trace", name)))
        for prop, holds in reference.commit_properties(jsonl).items():
            ops.append(Op(
                "trace_check", "/v1/trace-check", {"trace": jsonl, "ltl": prop},
                spec_key,
                expect={"safe": safe, "records": records, "ltl": prop,
                        "ltl_holds": holds},
                key=("trace", name, prop)))
    return ops


def _video_aux(rng: random.Random) -> Spec:
    spec = gen.video_spec(1, name="video")
    spec.configs["source"] = gen.VIDEO_SOURCE
    spec.configs["target"] = gen.VIDEO_TARGET
    _named(spec, rng, 8)
    spec.properties = {
        "encoder specified": "historically({one_of(E1, E2)})",
        "no encoder downgrade": "historically({E1} -> !once({E2}))",
        "never hardened": "historically(!E2)",
    }
    return spec


class _Background:
    """The light, mostly warm share of every operation kind.

    Each pool holds as many distinct inputs as the specs allow or a run can
    use, so that a seed changes names and order, not which few inputs a run
    repeats (with a dozen of them, the seed alone moved the tails by half)."""

    def __init__(self, rng: random.Random, specs: Dict[str, Spec], oracles,
                 traces: Dict[str, Tuple[str, dict]]):
        video, pipeline = specs["video"], specs["pipeline"]
        self.plans = [
            gen.plan_op(key, specs[key], a, b)
            for key in ("video", "pipeline")
            for a, b in reachable_pairs(specs[key], oracles[key], rng, 10 ** 6)
        ]
        self.registers = [register_op("video", video, created=False),
                          register_op("pipeline", pipeline, created=False)]
        lint_rng = random.Random(rng.randrange(1 << 30))
        self.lints = []
        # few bodies, so that they stay answered from the lint cache: on
        # plan-churn, registry eviction drops a cached lint answer every
        # few seconds, and with many bodies the cold share nears the p90
        for index in range(6):
            text, expect = gen.lint_variant(lint_rng, index, small=True)
            self.lints.append(Op("lint", "/v1/lint", {"manifest": text, "format": "json"},
                                 expect=expect, key=("lint", "bg", index)))
        self.verifies = [op for a, b in reachable_pairs(video, oracles["video"], rng, 8)
                         for op in gen.verify_ops("video", video, a, b)]
        self.traces = trace_ops("video", {k: v for k, v in traces.items()
                                          if k.startswith("bg-")})
        self.realizes = gen.realize_requests(rng, 4000, LIGHT_REALIZE_MIX)
        self._turn: Dict[str, int] = {}
        for pool in (self.plans, self.lints, self.verifies, self.traces):
            rng.shuffle(pool)
        # register-then-delete of a throwaway spec keeps the eviction path
        # measured without touching the specs other ops address
        scratch = gen.pipeline_spec()
        scratch.name = "scratch"
        scratch.actions[0] = gen.Action(
            "harden_dec", scratch.actions[0].removes, scratch.actions[0].adds, 5.0)
        specs["scratch"] = scratch
        self.evicts = [register_op("scratch", scratch),
                       Op("evict", "/v1/specs/", None, "scratch", key=("evict", "scratch"))]

    def unit(self, kind: str, burst: int) -> List[Op]:
        """The next background burst of *burst* ops of *kind* (each pool
        taken in turn; *burst* register/delete pairs for ``evict``)."""
        if kind == "realize":
            ops = [Op("realize", body=self._next("realize", self.realizes),
                      key=("realize",)) for _ in range(burst)]
        elif kind == "evict":
            ops = self.evicts * burst
        else:
            pool = {"plan": self.plans, "register": self.registers, "lint": self.lints,
                    "verify": self.verifies, "trace_check": self.traces}[kind]
            ops = [self._next(kind, pool) for _ in range(burst)]
        if kind != "realize":
            ops.insert(0, WARMUP)
        return [dataclasses.replace(op, exclusive=True) for op in ops]

    def _next(self, kind: str, pool: list):
        index = self._turn.get(kind, 0)
        self._turn[kind] = index + 1
        return pool[index % len(pool)]


def _interleave(rng: random.Random, main: List[List[Op]], background: _Background,
                per_round: Dict[str, int], round_units: int) -> List[List[Op]]:
    """Insert one burst of ``per_round[kind]`` background ops of each kind
    among every *round_units* main units."""
    units: List[List[Op]] = []
    for start in range(0, len(main), round_units):
        chunk = list(main[start:start + round_units])
        chunk += [background.unit(kind, count) for kind, count in per_round.items()]
        rng.shuffle(chunk)
        units += chunk
    return units


def build(workload: str, seed: int) -> Inputs:
    """Every input of one run, deterministic in (*workload*, *seed*)."""
    import reference

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs: Dict[str, Spec] = {"video": _video_aux(rng), "pipeline": gen.pipeline_spec()}
    oracles = {key: reference.SpecOracle(spec) for key, spec in specs.items()}
    traces = {
        f"bg-{strategy}-{i}": gen.sim_trace(strategy, rng.randrange(1 << 16), short=True)
        for strategy in ("safe-protocol", "unsafe") for i in range(3)
    }
    background = _Background(rng, specs, oracles, traces)
    initial = ["video", "pipeline"]

    if workload == "plan-hot":
        specs["video14"] = _named(gen.video_spec(2, name="video14"), rng, 12)
        specs["video21"] = _named(gen.video_spec(3, name="video21"), rng, 12)
        specs["fleet30"] = gen.add_rollouts(gen.fleet30(), rng, 10)
        initial += ["video14", "video21", "fleet30"]
        pool = []
        for key, limit in (("video", 10), ("pipeline", 4), ("video14", 16),
                           ("video21", 18)):
            oracles[key] = oracles.get(key) or reference.SpecOracle(specs[key])
            pool += [gen.plan_op(key, specs[key], a, b)
                     for a, b in reachable_pairs(specs[key], oracles[key], rng, limit)]
        rollouts = [name for name in specs["fleet30"].configs if name.startswith("r")]
        pool += [gen.plan_op("fleet30", specs["fleet30"], a, b)
                 for name in rollouts for a, b in (("baseline", name), (name, "baseline"))]
        main = [[pool[i]] for i in gen.zipf_indices(rng, len(pool), 120000)]
        units = _interleave(rng, main, background,
                            {"register": 1, "evict": 1, "lint": 1, "verify": 1,
                             "trace_check": 1, "realize": 6}, 400)
    elif workload == "plan-churn":
        rotation = []
        for index in range(128):
            spec = _churn_spec(rng, index)
            for i in range(12):
                spec.configs[f"s{i}"] = spec.draw_safe(rng)
            specs[spec.name] = spec
            oracles[spec.name] = reference.SpecOracle(spec)
            rotation.append(spec)
        main = []
        # writes run alone, so a registration is timed on its own, not by
        # the cold plan it happens to overlap; plans overlap one another
        registers = {spec.name: dataclasses.replace(register_op(spec.name, spec),
                                                    exclusive=True)
                     for spec in rotation}
        # ~14 cycles a second on a 2-core host: the schedule lasts 20 s runs
        # of a program about seven times faster
        for cycle in range(16 * len(rotation)):
            spec = rotation[cycle % len(rotation)]
            unit = [registers[spec.name]]
            unit += [gen.plan_members_op(spec.name, a, b)
                     for a, b in _fresh_pairs(spec, oracles[spec.name], rng, 6)]
            # every third cycle deletes its spec; the other specs leave by
            # LRU eviction (128 in rotation, ~85 resident, cache of 64)
            if cycle % 3 == 2:
                unit.append(Op("evict", "/v1/specs/", None, spec.name,
                               key=("evict", spec.name), exclusive=True))
            main.append(unit)
        units = _interleave(rng, main, background,
                            {"lint": 2, "verify": 2, "trace_check": 2,
                             "realize": 10}, 1)
    elif workload == "analyze":
        # fixed specs (the seed draws the pairs): path structure, and with
        # it the cost of a k-best walk, does not change from seed to seed
        fixed = random.Random(0)
        eager = {
            # few pairs of replicated video are reachable: more names, so
            # that its band holds as many pairs as the others'
            "video21": _named(gen.video_spec(3, fixed, name="video21"), rng, 150),
            "fleet18": _named(gen.fleet_spec(6, 3, fixed, name="fleet18"), rng, 60),
            "mixed19": _named(_mixed_spec(fixed, "mixed19", 4), rng, 60),
        }
        specs.update(eager)
        specs["fleet30"] = gen.fleet30()
        initial += list(eager) + ["fleet30"]
        # ~6 rounds a second on a 2-core host: the rounds last 20 s runs of
        # a program about six times faster.  Two verifies a round: with one,
        # the run's ~120 samples left its median spread by ~0.17 over seeds
        # from sampling alone.  One verify per pair (the planner caches
        # k-best paths per pair, so a second question on the same pair is a
        # cache hit), kinds in turn: every eager verify walks its k paths
        rounds = 800
        verifies = []
        for key, spec in eager.items():
            oracles[key] = reference.SpecOracle(spec)
            pairs = _banded_pairs(spec, oracles[key], rng, 10 ** 6)
            for index, (a, b) in enumerate(pairs):
                kinds = gen.verify_ops(key, spec, a, b)
                verifies.append(kinds[index % len(kinds)])
        lazy = gen.fleet30_verify_ops("fleet30")
        strategies = ("safe-protocol", "safe-protocol", "safe-protocol", "unsafe",
                      "unsafe-staggered", "quiescence", "twophase", "restart") * 2
        analysis_traces = {
            f"{s}-{i}": gen.sim_trace(s, rng.randrange(1 << 16))
            for i, s in enumerate(strategies)
        }
        trace_pool = trace_ops("video", analysis_traces)
        lint_rng = random.Random(rng.randrange(1 << 30))
        lints = []
        for index in range(rounds - rounds // 5):
            text, expect = gen.lint_variant(lint_rng, index)
            lints.append(Op("lint", "/v1/lint", {"manifest": text, "format": "json"},
                            expect=expect, key=("lint", index)))
        rng.shuffle(verifies)
        rng.shuffle(trace_pool)
        main = []
        fresh = 0
        for index in range(rounds):
            # mostly distinct lint bodies; one in five repeats one of the last
            # RECENT_LINTS, which the lint cache still holds (an older one may
            # have left with its spec, evicted from the 64-spec registry by the
            # bodies after it, and a random share of cold repeats moved the
            # median from one template's cost to the next's)
            if index % 5 == 4:
                main.append([lints[fresh - 1 - rng.randrange(min(fresh, RECENT_LINTS))]])
            else:
                main.append([lints[fresh]])
                fresh += 1
            # one verify in four goes to fleet30's lazy frontier
            for slot in (2 * index, 2 * index + 1):
                main.append([lazy[slot // 4 % len(lazy)] if slot % 4 == 3
                             else verifies[slot - slot // 4]])
            main.append([trace_pool[index % len(trace_pool)]])
        # the analysis requests are CPU-bound in one server process: run
        # one at a time, so each is timed on its own rather than by the
        # request it happens to overlap
        main = [[dataclasses.replace(op, exclusive=True) for op in unit] for unit in main]
        # plenty of (warm, sub-millisecond) plans, and twenty realizations, so
        # that each tail percentile is the median of several chunks' (run.py)
        units = _interleave(rng, main, background,
                            {"plan": 100, "register": 3, "evict": 1, "realize": 20}, 3)
    else:  # realize
        # ~350 requests a second on a 2-core host: the pool lasts 20 s runs
        # of a program about eight times faster, so the mean disruption is
        # taken over fresh simulator seeds rather than a pool a run repeats
        requests = gen.realize_requests(rng, 60000, REALIZE_MIX)
        main = [[Op("realize", body=r, key=("realize",))] for r in requests]
        units = _interleave(rng, main, background,
                            {"plan": 60, "register": 2, "evict": 1, "lint": 2,
                             "verify": 2, "trace_check": 2}, 50)
    return Inputs(workload=workload, specs=specs, initial=initial, units=units,
                  cyclic=workload == "plan-hot")


def _mixed_spec(rng: random.Random, name: str, services: int) -> Spec:
    """One video group plus *services* three-variant services."""
    spec = gen.Spec(name)
    gen._video_group(spec, "_g0", rng)
    for i in range(services):
        gen._service_group(spec, i, 3, rng, base_cost=10 + 5 * (i % 3))
    return spec


def _banded_pairs(spec: Spec, oracle, rng: random.Random, count: int):
    """*count* reachable pairs from the middle fifth of the spec's optimal
    path costs: a k-best walk costs about the same on each, so the seed
    changes which pairs are asked, not how long the walks are."""
    pairs = reachable_pairs(spec, oracle, rng, 10 ** 6)
    cost = {p: oracle.distance(spec.configs[p[0]], spec.configs[p[1]]) for p in pairs}
    ranked = sorted(pairs, key=lambda p: (cost[p], p))
    middle = ranked[2 * len(ranked) // 5: 3 * len(ranked) // 5]
    rng.shuffle(middle)
    return middle[:count]


def _fresh_pairs(spec: Spec, oracle, rng: random.Random, count: int):
    """*count* reachable pairs with distinct sources, drawn afresh per cycle
    so that a spec coming round again (after its eviction) is asked new
    questions and its plans are cold again."""
    pairs, sources = [], set()
    # sources come from a small per-spec pool (the reference search is
    # single-source), targets from the whole safe set
    pool = list(spec.configs.values())
    while len(pairs) < count:
        a, b = rng.choice(pool), spec.draw_safe(rng)
        if a == b or a in sources:
            continue
        d = oracle.distance(a, b)
        if d is not None and d != float("inf"):
            pairs.append((a, b))
            sources.add(a)
    return pairs


def _churn_spec(rng: random.Random, index: int) -> Spec:
    """A distinct 12–22-component spec for the churn rotation."""
    # family and size follow the index, so every seed churns the same mix
    family, step = index % 4, index // 4
    name = f"churn{index}"
    if family == 0:
        spec = gen.video_spec((2, 3)[step % 2], rng, name=name)
    elif family == 1:
        spec = gen.fleet_spec((4, 5, 6, 7)[step % 4], 3, rng, name=name)
    elif family == 2:
        spec = gen.fleet_spec(4, 3, rng, name=name, cross=2)
    else:
        spec = _mixed_spec(rng, name, (2, 3, 4, 5)[step % 4])
    return spec


def encode(op: Op, digest: str) -> Tuple[str, str, bytes, str]:
    """(method, path, body bytes, content type) for an HTTP op."""
    if op.kind == "register":
        return "POST", op.path, op.body.encode("utf-8"), "text/plain"
    if op.kind == "evict":
        return "DELETE", op.path + digest, b"", "application/json"
    body = dict(op.body)
    if op.spec:
        body["spec"] = digest
    return "POST", op.path, json.dumps(body, separators=(",", ":")).encode("utf-8"), \
        "application/json"
