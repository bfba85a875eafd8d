"""The §4.4 re-planning cascade (:func:`repro.exec.runtime.resolve_replan`).

Every backend and the model checker run this one function.  On
replicated video x3, with the MAP's first two steps failed at the
source, every one of the 8 best plans retraces a failed edge; the
cascade must still re-route to the target through the equal-cost plan
that avoids them, not give up.
"""

from repro.bench.workloads import replicated_video_system
from repro.core.planner import AdaptationPlanner
from repro.exec import runtime
from repro.modelcheck import ProtocolModelChecker
from repro.protocol.effects import AdaptationAborted, RequestReplan, Send
from repro.protocol.failures import FailurePolicy, ReplanKind
from repro.protocol.manager import ManagerMachine, ManagerState
from tests.test_modelcheck import toy_planner_and_plan


def _awaiting_replan(planner, source, target):
    """A manager that started the MAP and now waits for a replan."""
    machine = ManagerMachine(planner.universe)
    machine.start(planner.plan(source, target))
    machine.state = ManagerState.PREPARING
    return machine


def test_video_x3_reroutes_past_the_eight_best():
    system = replicated_video_system(3)
    source, target = system.source, system.target
    failed = ((source, "A2@g0"), (source, "A17@g0"))
    for build in (False, True):
        planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
        if build:
            planner.sag
        machine = _awaiting_replan(planner, source, target)
        effects = runtime.resolve_replan(
            machine, planner,
            RequestReplan(ReplanKind.ALTERNATE_TO_TARGET, source, failed),
        )
        assert not any(isinstance(effect, AdaptationAborted) for effect in effects)
        assert any(isinstance(effect, Send) for effect in effects)
        plan = machine.plan
        assert plan.source == source and plan.target == target
        assert plan.total_cost == 150.0 and plan.action_ids[0] == "A2@g1"
        assert not {(step.source, step.action.action_id) for step in plan.steps} & set(failed)


def test_no_avoiding_path_falls_back_to_the_source():
    system = replicated_video_system(1)
    source, target = system.source, system.target
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    machine = _awaiting_replan(planner, source, target)
    every_arc = tuple(
        (source, action.action_id) for action in system.actions.applicable_to(source)
    )
    effects = runtime.resolve_replan(
        machine, planner,
        RequestReplan(ReplanKind.ALTERNATE_TO_TARGET, source, every_arc),
    )
    # already at the source: on_no_plan aborts there
    assert [type(effect) for effect in effects] == [AdaptationAborted]


def test_the_model_checker_replans_through_the_cascade(monkeypatch):
    calls = []

    def counting(machine, planner, request):
        calls.append(request.kind)
        return runtime.resolve_replan(machine, planner, request)

    monkeypatch.setattr("repro.modelcheck.resolve_replan", counting)
    planner, plan = toy_planner_and_plan()
    checker = ProtocolModelChecker(
        planner, plan, max_drops=1,
        policy=FailurePolicy(step_retries=0, max_alternate_plans=1,
                             max_retransmits=0, max_post_resume_retransmits=1),
    )
    assert set(checker.run()) <= {"complete", "aborted", "await_user"}
    assert ReplanKind.ALTERNATE_TO_TARGET in calls
