"""The per-set SA601/SA603 sweep against the pair-major reference.

:func:`repro.lint.interference.check_interference` sweeps each
collaborative set's action library once per safe source of that set and
races only disjoint-touch pairs;
:func:`tests.oracles.interference_reference.reference_check_interference`
is the scan the source-major sweep replaced (every pair, every global
source, both firing orders in full), run on the global safe space of
:func:`tests.oracles.lint_reference.reference_check_actions`.  Linting
the same manifest with either installed must yield the same report:
codes, messages, spans, related locations, fixes, and the skipped-stage
notes — over random universes, invariants and libraries that mix mutual
inverses, declared ``[conflicts]``, set/clear (divergent) pairs, and
disjoint- and overlapping-touch pairs, with and without the SA605
fallbacks.
"""

from unittest import mock

from hypothesis import event, given, settings, strategies as st

import repro.lint.interference as interference
from repro.bench.workloads import replicated_video_system
from repro.lint import lint_text
from repro.manifest import SystemManifest, dumps
from tests.lint.test_interference import RACING
from tests.oracles import interference_reference
from tests.oracles.interference_reference import reference_check_interference
from tests.oracles.lint_reference import global_engine

NAMES = tuple(f"C{i}" for i in range(10))
PROCESSES = ("p0", "p1", "p2")
RACE_CODES = {"SA601", "SA603", "SA604", "SA605"}


def lint_both(text, cap=None, budget=None):
    """Lint *text* with the product and with the global pair-major
    reference."""
    budget_patches = []
    if budget is not None:
        budget_patches = [
            mock.patch.object(interference, "MAX_PAIR_SOURCES", budget),
            mock.patch.object(
                interference_reference, "MAX_PAIR_SOURCES", budget
            ),
        ]
    for patch in budget_patches:
        patch.start()
    try:
        got = lint_text(text, max_enum_components=cap)
        with global_engine(reference_check_interference):
            want = lint_text(text, max_enum_components=cap)
    finally:
        for patch in budget_patches:
            patch.stop()
    return got, want


def assert_same_report(got, want):
    assert [d.code for d in got] == [d.code for d in want]
    for mine, theirs in zip(got, want):
        assert mine.message == theirs.message
        assert mine.span == theirs.span
        assert mine.related == theirs.related
        assert mine.fixes == theirs.fixes
    assert got.diagnostics == want.diagnostics
    assert got.skipped == want.skipped


# -- random manifests ----------------------------------------------------------


def dependencies(names):
    """``X -> Y`` / ``X -> (Y | Z)``: the §3 dependency shape that makes
    removal orders race (drop the guard first and the dependant strands)."""
    return st.lists(
        st.sampled_from(names), min_size=2, max_size=3, unique=True
    ).map(lambda ops: f"{ops[0]} -> ({' | '.join(ops[1:])})")


def expressions(names):
    return st.recursive(
        st.sampled_from(names),
        lambda children: st.one_of(
            children.map(lambda a: f"!{a}"),
            st.tuples(children, children).map(lambda ab: f"({ab[0]} & {ab[1]})"),
            st.tuples(children, children).map(lambda ab: f"({ab[0]} | {ab[1]})"),
            st.tuples(children, children).map(lambda ab: f"({ab[0]} -> {ab[1]})"),
            st.lists(st.sampled_from(names), min_size=2, max_size=3).map(
                lambda ops: f"one_of({', '.join(ops)})"
            ),
        ),
        max_leaves=6,
    )


def operation(removes, adds):
    if not removes:
        return "+" + ", ".join(sorted(adds))
    if not adds:
        return "-" + ", ".join(sorted(removes))
    return f"({', '.join(sorted(removes))}) -> ({', '.join(sorted(adds))})"


@st.composite
def deltas(draw, names, avoid=frozenset()):
    pool = [name for name in names if name not in avoid]
    if draw(st.booleans()):  # a single insert or removal
        name = frozenset((draw(st.sampled_from(pool)),))
        return (name, frozenset()) if draw(st.booleans()) else (frozenset(), name)
    removes = draw(st.frozensets(st.sampled_from(pool), max_size=2))
    rest = [name for name in pool if name not in removes]
    adds = draw(
        st.frozensets(st.sampled_from(rest), max_size=2)
        if rest
        else st.just(frozenset())
    )
    if not removes and not adds:
        adds = frozenset((rest or pool)[:1])
        removes = removes - adds
    return removes, adds


@st.composite
def derived(draw, names, base):
    """An action related to *base* by one of the pair shapes under test."""
    removes, adds = base
    touched = sorted(removes | adds)
    shared = draw(st.sampled_from(touched))
    kind = draw(
        st.sampled_from(("inverse", "overlap", "divergent", "disjoint"))
    )
    if kind == "inverse":
        return adds, removes
    if kind == "overlap":  # touch the shared component the same way
        if shared in removes:
            return frozenset((shared,)), frozenset()
        return frozenset(), frozenset((shared,))
    if kind == "divergent":  # set what the base clears, or clear what it sets
        if shared in removes:
            return frozenset(), frozenset((shared,))
        return frozenset((shared,)), frozenset()
    if len(touched) == len(names):
        return adds, removes
    return draw(deltas(names, avoid=frozenset(touched)))


@st.composite
def manifests(draw):
    size = draw(st.integers(2, len(NAMES)))
    names = NAMES[:size]
    lines = ["[components]"]
    lines += [f"{name} @ {draw(st.sampled_from(PROCESSES))}" for name in names]
    invariants = draw(
        st.lists(
            st.one_of(dependencies(names), expressions(names)),
            min_size=1,
            max_size=4,
        )
    )
    if invariants:
        lines += ["", "[invariants]"]
        lines += [f"inv{i} : {text}" for i, text in enumerate(invariants)]
    library = draw(st.lists(deltas(names), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 5))):
        base = library[draw(st.integers(0, len(library) - 1))]
        library.append(draw(derived(names, base)))
    lines += ["", "[actions]"]
    ids = [f"a{i}" for i in range(len(library))]
    for action_id, (removes, adds) in zip(ids, library):
        cost = draw(st.integers(1, 20))
        lines.append(f"{action_id} : {operation(removes, adds)} @ {cost}")
    if len(ids) >= 2:
        pairs = draw(
            st.lists(
                st.lists(
                    st.sampled_from(ids), min_size=2, max_size=2, unique=True
                ),
                max_size=3,
            )
        )
        if pairs:
            lines += ["", "[conflicts]"]
            lines += [f"c{i} : {a} {b}" for i, (a, b) in enumerate(pairs)]
    named = draw(
        st.lists(st.integers(0, (1 << size) - 1), max_size=4, unique=True)
    )
    if named:
        lines += ["", "[configurations]"]
        lines += [
            f"n{i} = {mask:0{size}b}" for i, mask in enumerate(named)
        ]
    return "\n".join(lines) + "\n"


@given(
    text=manifests(),
    cap=st.sampled_from((None, None, 3)),
    budget=st.sampled_from((None, None, 40)),
)
@settings(max_examples=300, deadline=None)
def test_sweep_matches_the_pair_major_reference(text, cap, budget):
    got, want = lint_both(text, cap=cap, budget=budget)
    assert_same_report(got, want)
    for code in sorted({d.code for d in got} & RACE_CODES):
        event(code)


# -- fixed manifests -----------------------------------------------------------


def test_racing_example_matches_the_reference():
    got, want = lint_both(RACING)
    assert_same_report(got, want)
    assert {d.code for d in got} >= {"SA601", "SA603"}


def test_replicated_video_with_a_racing_block_matches_the_reference():
    """Two paper video groups (``@g0``/``@g1`` names) plus the racing
    firewall block: 17 components, 39 actions, 320 safe sources."""
    system = replicated_video_system(2)
    manifest = SystemManifest(system.universe, system.invariants, system.actions)
    manifest.configurations["source"] = system.source
    manifest.configurations["target"] = system.target
    text = dumps(manifest) + "\n" + RACING
    got, want = lint_both(text)
    assert_same_report(got, want)
    races = [d for d in got if d.code in ("SA601", "SA603")]
    assert any("'drop_cache'" in d.message for d in races)
    assert any("@g0" in d.message for d in races)
    assert all(d.fixes for d in races)
    # the named-configuration fallback agrees too
    got, want = lint_both(text, cap=4)
    assert_same_report(got, want)
    assert [d.code for d in got if d.code == "SA605"] == ["SA605"]


#: the minimal witness is not the first source in sweep order: sources
#: are swept in ascending mask order and A is the most significant bit,
#: so {B, C, FW, CA} (0111 1) comes before {A, FW, CA} (1001 1)
FEWEST_COMPONENTS_LAST = """\
[components]
A @ p0
B @ p0
C @ p0
FW @ edge
CA @ core

[invariants]
guarded : CA -> FW
backed : A | (B & C)

[actions]
drop_fw : -FW @ 5
drop_cache : -CA @ 5
"""

#: the sharper diagnosis comes later in sweep order: from {FW, CA} the
#: safe order starts with the one-way drop_cache (SA601), from the
#: higher mask {M, FW, CA} it starts with drop_fw, whose inverse add_fw
#: is stranded (SA603)
SHARPER_KIND_LAST = """\
[components]
M @ p0
FW @ edge
CA @ core

[invariants]
guarded : (CA & !M) -> FW
cached : (FW & M) -> CA

[actions]
drop_fw : -FW @ 5
add_fw : +FW @ 8
drop_cache : -CA @ 5
"""


def test_witness_is_the_minimum_not_the_first_source():
    got, want = lint_both(FEWEST_COMPONENTS_LAST)
    assert_same_report(got, want)
    [race] = [d for d in got if d.code == "SA601"]
    assert "from safe configuration 10011 {A,CA,FW}" in race.message


def test_kind_priority_beats_sweep_order():
    got, want = lint_both(SHARPER_KIND_LAST)
    assert_same_report(got, want)
    races = [d for d in got if d.code in ("SA601", "SA603")]
    assert [d.code for d in races] == ["SA603"]
    assert "from safe configuration 111 {CA,FW,M}" in races[0].message
