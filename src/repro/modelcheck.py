"""Exhaustive interleaving exploration of the adaptation protocol.

Property-based tests sample schedules; this module *enumerates* them.
Because the manager and agents are sans-io state machines, a protocol
"world" is a finite value — machine snapshots, the multiset of in-flight
messages, armed timers, per-process component slices, and pending host
obligations — and its nondeterminism is exactly four transition kinds:

* **deliver** any in-flight message (arbitrary reordering included);
* **drop** any in-flight message (up to a loss budget);
* **quiesce** any agent whose host owes a ``local_safe`` (the app reaches
  its safe state at an arbitrary moment);
* **fire** any armed manager timer (arbitrary timing — a conservative
  over-approximation of real clocks, so anything proved here holds for
  every concrete timing).

:class:`ProtocolModelChecker` runs BFS over that graph with state
memoization and checks, in *every* reachable state:

* the committed configuration satisfies the invariants (safety clause 1);
* in-actions execute only on blocked processes (the held-safe
  discipline);
* at quiescent worlds (nothing in flight, no obligations, machines at
  rest) the live component placement equals the committed configuration;
* terminal worlds carry a reported outcome (no deadlock).

This is bounded model checking, not a general proof: the guarantee covers
the given plan, participant set, and loss budget — but within that bound
it covers **all** message reorderings, losses, and timeout races.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.model import Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner
from repro.errors import ReproError
from repro.exec.runtime import resolve_replan
from repro.protocol.agent import AgentMachine, AgentState
from repro.protocol.effects import (
    AbortReset,
    AdaptationAborted,
    AdaptationComplete,
    AwaitUser,
    BlockProcess,
    CancelTimer,
    Effect,
    ExecuteInAction,
    ExecutePostAction,
    RequestReplan,
    ResumeProcess,
    Send,
    SetTimer,
    StartReset,
    StepCommitted,
    StepRolledBack,
    UndoInAction,
)
from repro.protocol.failures import FailurePolicy
from repro.protocol.manager import FlushProvider, ManagerMachine, ManagerState, no_flush
from repro.protocol.messages import Envelope, FlushRequest, Message


class ModelCheckError(ReproError):
    """A safety property failed in some reachable interleaving."""

    def __init__(self, message: str, path: Tuple[str, ...] = ()):
        super().__init__(message)
        self.path = path

    def __str__(self) -> str:
        base = super().__str__()
        if not self.path:
            return base
        trail = "\n  ".join(self.path[-15:])
        return f"{base}\ncounterexample (last steps):\n  {trail}"


def _clone_agent(agent: AgentMachine) -> AgentMachine:
    """Fast snapshot: every field value is immutable, so shallow copies of
    the containers suffice (deepcopy is ~50× slower here)."""
    new = AgentMachine.__new__(AgentMachine)
    new.process_id = agent.process_id
    new.manager_id = agent.manager_id
    new.state = agent.state
    new.step_key = agent.step_key
    new.action = agent.action
    new.solo = agent.solo
    new.in_action_applied = agent.in_action_applied
    new._completed = dict(agent._completed)
    return new


def _clone_manager(manager: ManagerMachine) -> ManagerMachine:
    """Fast snapshot of the manager machine (see :func:`_clone_agent`)."""
    new = ManagerMachine.__new__(ManagerMachine)
    new.universe = manager.universe            # shared, read-only
    new.policy = manager.policy                # frozen dataclass
    new.flush_provider = manager.flush_provider
    new.manager_id = manager.manager_id
    new.state = manager.state
    new.plan = manager.plan                    # immutable
    new.plan_id = manager.plan_id
    new._plan_counter = manager._plan_counter
    new.step_index = manager.step_index
    new.attempt = manager.attempt
    new.committed = manager.committed
    new.original_source = manager.original_source
    new.target = manager.target
    new.returning = manager.returning
    new._participants = manager._participants
    new._pending_reset = set(manager._pending_reset)
    new._pending_adapt = set(manager._pending_adapt)
    new._pending_resume = set(manager._pending_resume)
    new._pending_rollback = set(manager._pending_rollback)
    new._resume_sent = manager._resume_sent
    new._retransmits = manager._retransmits
    new._alternates_used = manager._alternates_used
    new._failed_edges = list(manager._failed_edges)
    new._armed_timers = set(manager._armed_timers)
    new._current_key = manager._current_key
    new._inject = manager._inject
    new._await = manager._await
    new.steps_committed = manager.steps_committed
    new.steps_rolled_back = manager.steps_rolled_back
    new._rollback_reason = getattr(manager, "_rollback_reason", "")
    return new


class _World:
    """One protocol state.  Mutable; cloned before every transition."""

    def __init__(self, manager, agents, components, planner):
        self.manager: ManagerMachine = manager
        self.agents: Dict[str, AgentMachine] = agents
        self.components: Dict[str, Set[str]] = components
        self.planner = planner  # shared, stateless for our purposes
        self.in_flight: List[Envelope] = []
        self.blocked: Dict[str, bool] = {p: False for p in agents}
        self.quiesce_pending: Dict[str, Optional[str]] = {p: None for p in agents}
        self.armed_timers: Set[str] = set()
        self.outcome: Optional[str] = None
        self.drops_used = 0
        self.path: Tuple[str, ...] = ()

    # -- cloning & fingerprints -------------------------------------------------
    def clone(self) -> "_World":
        new = _World.__new__(_World)
        new.manager = _clone_manager(self.manager)
        new.agents = {p: _clone_agent(a) for p, a in self.agents.items()}
        new.components = {p: set(c) for p, c in self.components.items()}
        new.planner = self.planner
        new.in_flight = list(self.in_flight)
        new.blocked = dict(self.blocked)
        new.quiesce_pending = dict(self.quiesce_pending)
        new.armed_timers = set(self.armed_timers)
        new.outcome = self.outcome
        new.drops_used = self.drops_used
        new.path = self.path
        return new

    def fingerprint(self) -> Tuple:
        manager = self.manager
        agents = tuple(
            (
                pid,
                agent.state.value,
                agent.step_key,
                agent.solo,
                agent.in_action_applied,
                tuple(sorted(agent._completed)),
            )
            for pid, agent in sorted(self.agents.items())
        )
        flights = tuple(
            sorted(
                (e.source, e.destination, repr(e.message)) for e in self.in_flight
            )
        )
        return (
            manager.state.value,
            manager.step_index,
            manager.attempt,
            manager.plan_id,
            manager._current_key,
            tuple(sorted(manager._pending_adapt)),
            tuple(sorted(manager._pending_resume)),
            tuple(sorted(manager._pending_rollback)),
            manager._resume_sent,
            manager._retransmits,
            manager.returning,
            manager._alternates_used,
            manager.committed.members if manager.committed else None,
            agents,
            flights,
            tuple(sorted((p, frozenset(c)) for p, c in self.components.items())),
            tuple(sorted(self.blocked.items())),
            tuple(sorted((p, k) for p, k in self.quiesce_pending.items())),
            tuple(sorted(self.armed_timers)),
            self.outcome,
            self.drops_used,
        )


class ProtocolModelChecker:
    """BFS over all protocol interleavings for one plan.

    Replans run :func:`repro.exec.runtime.resolve_replan`, the §4.4
    cascade every backend runs."""

    def __init__(
        self,
        planner: AdaptationPlanner,
        plan: AdaptationPlan,
        *,
        max_drops: int = 0,
        flush_provider: FlushProvider = no_flush,
        policy: Optional[FailurePolicy] = None,
        max_states: int = 500_000,
        timer_mode: str = "calibrated",
    ):
        """
        Args:
            timer_mode: when manager timers may fire.

                * ``"calibrated"`` (default) — only after a message has
                  actually been dropped, or when nothing else can move
                  (models timeouts tuned above the worst-case delay, the
                  paper's §4.4 deployment assumption; keeps the space
                  tractable);
                * ``"free"`` — at any moment (full timing
                  over-approximation; exponential, use for tiny plans).
        """
        if timer_mode not in ("calibrated", "free"):
            raise ValueError(f"unknown timer_mode {timer_mode!r}")
        self.planner = planner
        self.plan = plan
        self.max_drops = max_drops
        self.flush_provider = flush_provider
        self.policy = policy or FailurePolicy(step_retries=1, max_alternate_plans=1,
                                              max_retransmits=1,
                                              max_post_resume_retransmits=2)
        self.max_states = max_states
        self.timer_mode = timer_mode
        self.states_explored = 0
        self.terminal_outcomes: Dict[str, int] = {}

    # ------------------------------------------------------------------ effects
    def _dispatch_manager(self, world: _World, effects: List[Effect]) -> None:
        queue = deque(effects)
        while queue:
            effect = queue.popleft()
            if isinstance(effect, Send):
                world.in_flight.append(
                    Envelope("manager", effect.destination, effect.message)
                )
            elif isinstance(effect, SetTimer):
                world.armed_timers.add(effect.name)
            elif isinstance(effect, CancelTimer):
                world.armed_timers.discard(effect.name)
            elif isinstance(effect, StepCommitted):
                pass  # manager.committed already updated by the machine
            elif isinstance(effect, StepRolledBack):
                pass
            elif isinstance(effect, RequestReplan):
                queue.extend(resolve_replan(world.manager, self.planner, effect))
            elif isinstance(effect, AdaptationComplete):
                world.outcome = "complete"
            elif isinstance(effect, AdaptationAborted):
                world.outcome = "aborted"
            elif isinstance(effect, AwaitUser):
                world.outcome = "await_user"
            else:  # pragma: no cover - defensive
                raise ModelCheckError(f"unhandled manager effect {effect!r}", world.path)

    def _dispatch_agent(self, world: _World, pid: str, effects: List[Effect]) -> None:
        agent = world.agents[pid]
        queue = deque(effects)
        while queue:
            effect = queue.popleft()
            if isinstance(effect, Send):
                world.in_flight.append(Envelope(pid, effect.destination, effect.message))
            elif isinstance(effect, StartReset):
                world.quiesce_pending[pid] = effect.step_key
            elif isinstance(effect, AbortReset):
                if world.quiesce_pending[pid] == effect.step_key:
                    world.quiesce_pending[pid] = None
            elif isinstance(effect, BlockProcess):
                world.blocked[pid] = True
            elif isinstance(effect, ResumeProcess):
                world.blocked[pid] = False
                queue.extend(agent.on_resumed(effect.step_key))
            elif isinstance(effect, ExecuteInAction):
                if not world.blocked[pid]:
                    raise ModelCheckError(
                        f"in-action {effect.action.action_id} executed on "
                        f"unblocked process {pid}",
                        world.path,
                    )
                self._apply_slice(world, pid, effect.action, inverse=False)
                queue.extend(agent.on_in_action_applied(effect.step_key))
            elif isinstance(effect, UndoInAction):
                self._apply_slice(world, pid, effect.action, inverse=True)
                queue.extend(agent.on_undone(effect.step_key))
            elif isinstance(effect, ExecutePostAction):
                pass
            else:  # pragma: no cover - defensive
                raise ModelCheckError(f"unhandled agent effect {effect!r}", world.path)

    def _apply_slice(self, world: _World, pid: str, action, inverse: bool) -> None:
        universe = self.planner.universe
        removes = {n for n in (action.adds if inverse else action.removes)
                   if universe.process_of(n) == pid}
        adds = {n for n in (action.removes if inverse else action.adds)
                if universe.process_of(n) == pid}
        missing = removes - world.components[pid]
        if missing:
            raise ModelCheckError(
                f"{pid}: slice removes absent components {sorted(missing)}",
                world.path,
            )
        world.components[pid] -= removes
        world.components[pid] |= adds

    # ------------------------------------------------------------------ invariants
    def _check(self, world: _World) -> None:
        committed = world.manager.committed
        if committed is not None and not self.planner.space.is_safe(committed):
            raise ModelCheckError(
                f"committed configuration {committed.label()} violates invariants",
                world.path,
            )
        if world.outcome is not None and self._quiescent(world):
            if world.outcome in ("complete", "aborted"):
                live = set()
                for pieces in world.components.values():
                    live |= pieces
                if committed is not None and live != set(committed.members):
                    raise ModelCheckError(
                        f"live placement {sorted(live)} != committed "
                        f"{committed.label()} at outcome {world.outcome}",
                        world.path,
                    )

    def _quiescent(self, world: _World) -> bool:
        return (
            not world.in_flight
            and all(k is None for k in world.quiesce_pending.values())
        )

    # ------------------------------------------------------------------ transitions
    def _successors(self, world: _World):
        if world.outcome is not None and self._quiescent(world):
            return  # terminal
        progress = False
        # Identical in-flight envelopes (retransmission duplicates) are
        # interchangeable: branching on each copy multiplies the space for
        # no new behavior, so branch once per *distinct* envelope.
        seen_envelopes: Set[Tuple] = set()
        for index, envelope in enumerate(world.in_flight):
            key = (envelope.source, envelope.destination, envelope.message)
            if key in seen_envelopes:
                continue
            seen_envelopes.add(key)
            progress = True
            yield f"deliver {envelope.destination}<-{type(envelope.message).__name__}", \
                self._deliver(world, index)
            if world.drops_used < self.max_drops:
                dropped = world.clone()
                removed = dropped.in_flight.pop(index)
                dropped.drops_used += 1
                dropped.path = world.path + (
                    f"drop {removed.destination}<-{type(removed.message).__name__}",
                )
                yield "drop", dropped
        for pid, step_key in world.quiesce_pending.items():
            if step_key is not None:
                progress = True
                yield f"quiesce {pid}", self._quiesce(world, pid, step_key)
        timers_enabled = self.timer_mode == "free" or world.drops_used > 0 or not progress
        if timers_enabled:
            for timer in sorted(world.armed_timers):
                yield f"timer {timer}", self._fire(world, timer)

    def _deliver(self, world: _World, index: int) -> _World:
        new = world.clone()
        envelope = new.in_flight.pop(index)
        new.path = world.path + (
            f"deliver {envelope.destination}<-{type(envelope.message).__name__}"
            f"({envelope.message.step_key})",
        )
        if envelope.destination == "manager":
            self._dispatch_manager(new, new.manager.on_message(envelope.message))
        else:
            if isinstance(envelope.message, FlushRequest):
                return new  # flush markers are data-plane; no-op in the model
            agent = new.agents[envelope.destination]
            self._dispatch_agent(
                new, envelope.destination, agent.on_message(envelope.message)
            )
        return new

    def _quiesce(self, world: _World, pid: str, step_key: str) -> _World:
        new = world.clone()
        new.quiesce_pending[pid] = None
        new.path = world.path + (f"quiesce {pid}({step_key})",)
        self._dispatch_agent(new, pid, new.agents[pid].on_local_safe(step_key))
        return new

    def _fire(self, world: _World, timer: str) -> _World:
        new = world.clone()
        new.armed_timers.discard(timer)
        new.path = world.path + (f"timer {timer}",)
        self._dispatch_manager(new, new.manager.on_timeout(timer))
        return new

    # ------------------------------------------------------------------ exploration
    def _initial_world(self) -> _World:
        universe = self.planner.universe
        source = self.plan.source
        participants = set()
        for step in self.plan.steps:
            participants |= step.participants(universe)
        # agents for every process in the universe (cheap, uniform)
        agents = {p: AgentMachine(p, "manager") for p in universe.processes()}
        components = {
            p: {n for n in source.members if universe.process_of(n) == p}
            for p in universe.processes()
        }
        manager = ManagerMachine(
            universe, policy=self.policy, flush_provider=self.flush_provider
        )
        world = _World(manager, agents, components, self.planner)
        self._dispatch_manager(world, manager.start(self.plan))
        return world

    def run(self) -> Dict[str, int]:
        """Explore everything; returns the terminal-outcome histogram.

        Raises:
            ModelCheckError: some reachable interleaving violates a
                property (the error carries the counterexample path), or
                a deadlock/state-space bound is hit.
        """
        initial = self._initial_world()
        self._check(initial)
        queue = deque([initial])
        seen: Set[Tuple] = {initial.fingerprint()}
        self.states_explored = 0
        self.terminal_outcomes = {}
        while queue:
            world = queue.popleft()
            self.states_explored += 1
            if self.states_explored > self.max_states:
                raise ModelCheckError(
                    f"state-space bound exceeded ({self.max_states}); "
                    "tighten the policy caps or lower max_drops"
                )
            successors = list(self._successors(world))
            if not successors:
                if world.outcome is None:
                    raise ModelCheckError("deadlock: no outcome and no transitions",
                                          world.path)
                self.terminal_outcomes[world.outcome] = (
                    self.terminal_outcomes.get(world.outcome, 0) + 1
                )
                continue
            for _, successor in successors:
                self._check(successor)
                fingerprint = successor.fingerprint()
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    queue.append(successor)
        return dict(self.terminal_outcomes)
