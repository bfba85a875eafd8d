"""One spec table: everything kept for a spec lives and dies with its entry.

The service's digest → entry table holds each spec's manifest, planner,
compiled properties and cached ``/v1/plan`` wire bytes, so an eviction
drops them together.  These tests pin the two faults of keeping those
maps apart — bytes cached before an eviction answering for a spec
re-registered under the same digest, and linting pushing registered
specs out of the LRU — and run random register / evict / plan / lint /
stats sequences against a model of the table.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.manifest import loads, video_manifest_text
from repro.serve import (
    ControlPlane,
    EvictSpecRequest,
    PlanResult,
    RegisterSpecRequest,
    StatsRequest,
    spec_digest,
    to_wire,
)
from repro.serve.api import lint_request_from_json, plan_request_from_json


def _renamed(text, old, new):
    """*text* with one configuration line replaced (same (S, I, A))."""
    assert old in text
    return text.replace(old, new)


VIDEO = video_manifest_text()
#: the same (S, I, A) as VIDEO, with ``target`` renamed to the source's mask
VIDEO_RENAMED = _renamed(VIDEO, "target = 1010010", "target = 0100101")

#: two components, no actions: source → target has no safe path
STUCK = """\
[components]
A @ host
B @ host

[invariants]
: A | B

[configurations]
source = 10
target = 01
"""

#: one action: source → target is one step
GROW = """\
[components]
A @ host
B @ host

[invariants]
: A

[actions]
AddB : +B @ 5 ; add B

[configurations]
source = 10
target = 11
"""

#: per spec, its text and a renamed variant with the same digest
SPECS = (
    (VIDEO, VIDEO_RENAMED),
    (STUCK, _renamed(STUCK, "target = 01", "target = 10")),
    (GROW, _renamed(GROW, "target = 11", "target = 10")),
)


def _digest(text):
    manifest = loads(text)
    return spec_digest(manifest.universe, manifest.invariants, manifest.actions)


DIGESTS = tuple(_digest(texts[0]) for texts in SPECS)
assert DIGESTS == tuple(_digest(texts[1]) for texts in SPECS)


def plan_payload(digest, source="source", target="target"):
    return {"spec": digest, "source": source, "target": target}


def serve_plan(control, payload):
    """What the HTTP adapter does for ``POST /v1/plan``."""
    wire = control.plan_wire_fast(payload)
    if wire is not None:
        return wire, True
    response = control.dispatch(plan_request_from_json(payload))
    wire = to_wire(response)
    control.plan_wire_store(payload, response, wire)
    return wire, False


def serve_lint(control, payload):
    """What the HTTP adapter does for ``POST /v1/lint``."""
    wire = control.lint_wire_fast(payload)
    if wire is not None:
        return wire
    response = control.dispatch(lint_request_from_json(payload))
    wire = to_wire(response)
    control.lint_wire_store(payload, response, wire)
    return wire


_FRESH = {}


def fresh_answer(text, payload):
    """The wire answer of a plane that only ever saw *text*."""
    key = (text, tuple(sorted(payload.items())))
    if key not in _FRESH:
        control = ControlPlane()
        control.dispatch(RegisterSpecRequest(manifest=text))
        _FRESH[key] = to_wire(control.dispatch(plan_request_from_json(payload)))
    return _FRESH[key]


class TestVerifiedDefects:
    def test_reregistered_digest_is_answered_from_its_new_manifest(self):
        control = ControlPlane()
        digest = control.dispatch(RegisterSpecRequest(manifest=VIDEO)).digest
        payload = plan_payload(digest)
        old, hit = serve_plan(control, payload)
        assert not hit and b'"cost":50.0' in old
        assert serve_plan(control, payload) == (old, True)
        assert control.dispatch(EvictSpecRequest(spec=digest)).evicted
        again = control.dispatch(RegisterSpecRequest(manifest=VIDEO_RENAMED))
        assert again.digest == digest and again.created
        # no bytes of the evicted entry answer for the new one
        assert control.plan_wire_fast(payload) is None
        response = control.dispatch(plan_request_from_json(payload))
        assert isinstance(response, PlanResult)
        assert response.plan.steps == () and response.plan.cost == 0.0
        assert to_wire(response) == fresh_answer(VIDEO_RENAMED, payload)

    def test_an_answer_is_stored_only_on_the_entry_that_produced_it(self):
        """An answer that lands after its spec was evicted and registered
        again (a store racing a DELETE and a re-upload) is dropped."""
        control = ControlPlane()
        digest = control.dispatch(RegisterSpecRequest(manifest=VIDEO)).digest
        payload = plan_payload(digest)
        response = control.dispatch(plan_request_from_json(payload))
        control.dispatch(EvictSpecRequest(spec=digest))
        control.dispatch(RegisterSpecRequest(manifest=VIDEO_RENAMED))
        control.plan_wire_store(payload, response, to_wire(response))
        assert control.plan_wire_fast(payload) is None
        assert serve_plan(control, payload) == (
            fresh_answer(VIDEO_RENAMED, payload), False
        )

    def test_linting_evicts_no_registered_spec(self):
        control = ControlPlane(max_specs=3)
        digest = control.dispatch(RegisterSpecRequest(manifest=GROW)).digest
        for text in (VIDEO, STUCK, VIDEO.replace("@ 10 ;", "@ 11 ;")):
            serve_lint(control, {"manifest": text})
        response = control.dispatch(plan_request_from_json(plan_payload(digest)))
        assert isinstance(response, PlanResult)
        assert response.plan.cost == 5.0
        stats = control.dispatch(StatsRequest())
        assert stats.service["specs"] == 1
        assert [spec["digest"] for spec in stats.specs] == [digest]


class SpecTableMachine(RuleBasedStateMachine):
    """Random traffic on one plane against a model of its spec table.

    The model keeps the registered digests in LRU order, each with the
    manifest text it was registered from.  Registering and planning by
    digest refresh a spec; wire hits, lints and stats do not.
    """

    MAX_SPECS = 2

    @initialize()
    def setup(self):
        self.control = ControlPlane(max_specs=self.MAX_SPECS)
        self.model = {}  # digest → text, least recently used first

    def _refresh(self, digest):
        self.model[digest] = self.model.pop(digest)

    @rule(spec=st.integers(0, len(SPECS) - 1), variant=st.integers(0, 1))
    def register(self, spec, variant):
        text = SPECS[spec][variant]
        digest = DIGESTS[spec]
        result = self.control.dispatch(RegisterSpecRequest(manifest=text))
        assert result.digest == digest
        assert result.created is (digest not in self.model)
        if digest in self.model:
            self._refresh(digest)
        else:
            self.model[digest] = text
            while len(self.model) > self.MAX_SPECS:
                del self.model[next(iter(self.model))]

    @rule(spec=st.integers(0, len(SPECS) - 1))
    def evict(self, spec):
        digest = DIGESTS[spec]
        result = self.control.dispatch(EvictSpecRequest(spec=digest))
        assert result.evicted is (digest in self.model)
        self.model.pop(digest, None)
        for source, target in PAIRS.values():
            payload = plan_payload(digest, source, target)
            assert self.control.plan_wire_fast(payload) is None

    @rule(
        spec=st.integers(0, len(SPECS) - 1),
        pair=st.sampled_from(["forward", "backward", "unknown"]),
    )
    def plan(self, spec, pair):
        digest = DIGESTS[spec]
        payload = plan_payload(digest, *PAIRS[pair])
        wire, hit = serve_plan(self.control, payload)
        if digest not in self.model:
            assert not hit
            assert b'"code":"unknown-spec"' in wire
            return
        self._refresh(digest)  # the dispatch resolved the spec by digest
        assert wire == fresh_answer(self.model[digest], payload)
        if hit:
            fresh = to_wire(self.control.dispatch(plan_request_from_json(payload)))
            assert wire == fresh

    @rule(spec=st.integers(0, len(SPECS) - 1), variant=st.integers(0, 1))
    def lint(self, spec, variant):
        wire = serve_lint(self.control, {"manifest": SPECS[spec][variant]})
        assert wire.startswith(b'{"kind":"lint","ok":true')

    @invariant()
    def stats_count_the_registered_specs(self):
        if not hasattr(self, "model"):
            return
        stats = self.control.dispatch(StatsRequest())
        assert stats.service["specs"] == len(self.model)
        assert [spec["digest"] for spec in stats.specs] == sorted(self.model)


#: the plan requests of the machine, by name
PAIRS = {
    "forward": ("source", "target"),
    "backward": ("target", "source"),
    "unknown": ("source", "nope"),
}

SpecTableMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestSpecTable = SpecTableMachine.TestCase
