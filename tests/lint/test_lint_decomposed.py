"""Per-collaborative-set SA3xx/SA6xx against the global engine.

Below the enumeration cap lint analyzes each collaborative set's safe
space on its own and composes the global verdicts (DESIGN.md §17);
:mod:`tests.oracles.lint_reference` keeps the engine it replaced, which
enumerates the full product.  Both must render the same bytes: text,
JSON and SARIF from :func:`~repro.lint.checks.analyze_source` and
:func:`~repro.lint.checks.analyze_system`, over random manifests whose
sets interleave in the declaration order, and over fixed manifests for
each composition rule: the SA305 product of groups, the SA301 count,
SA601/SA603 witnesses completed by the other sets' lightest safe
projections, a one-way SA306, one set with an empty safe space,
atom-less invariants, ``[conflicts]`` that merge sets, and the SA605
budget boundary.
"""

from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

import repro.lint.interference as interference
from repro.core.actions import ActionLibrary
from repro.core.analysis import blast_radii, blast_radius
from repro.core.collaborative import collaborative_sets
from repro.errors import ReproError
from repro.lint import lint_system, lint_text, render_json, render_sarif, render_text
from repro.manifest import loads
from tests.lint.test_interference_oracle import (
    FEWEST_COMPONENTS_LAST,
    SHARPER_KIND_LAST,
    dependencies,
    deltas,
    derived,
    expressions,
    operation,
)
from tests.oracles.lint_reference import global_engine

PROCESSES = ("p0", "p1", "p2")


def renderings(report):
    return (
        render_text(report, verbose=True),
        render_json(report),
        render_sarif(report),
        tuple(report.skipped),
    )


def lint_both(text, cap=None, budget=None):
    """``(product report, product renderings, global renderings)`` of
    *text*, from both entry points (the in-memory one when the manifest
    builds)."""
    try:
        manifest = loads(text, path="m.manifest")
    except ReproError:  # the defective fixture does not build strictly
        manifest = None
    if budget is None:
        budget = interference.MAX_PAIR_SOURCES

    def run():
        reports = [lint_text(text, path="m.manifest", max_enum_components=cap)]
        if manifest is not None:
            reports.append(lint_system(manifest, max_enum_components=cap))
        return reports

    with mock.patch.object(interference, "MAX_PAIR_SOURCES", budget):
        got = run()
        with global_engine():
            want = run()
    return got[0], [renderings(r) for r in got], [renderings(r) for r in want]


def assert_same(text, cap=None, budget=None):
    """Lint *text* with both engines, assert equal bytes, return the
    product's report."""
    report, got, want = lint_both(text, cap=cap, budget=budget)
    assert got == want
    return report


# -- random decomposable manifests -----------------------------------------------


#: three pairwise-satisfiable invariants with no common model: the set's
#: safe space is empty, yet SA202/SA203 drop none of them
EMPTY_TRIANGLE = ("({a} ^ {b})", "({b} ^ {c})", "({a} ^ {c})")
ATOMLESS = ("true", "!false", "(false | true)", "false")
#: per set size, (invariants, (removes, adds) deltas) of a block that races:
#: an order race (SA601) over two components, a lost-inverse race (SA603)
#: over three
RACE_BLOCKS = {
    2: (("{1} -> {0}",), (("{0}", ""), ("{1}", ""))),
    3: (
        ("({2} & !{0}) -> {1}", "({1} & {0}) -> {2}"),
        (("{1}", ""), ("", "{1}"), ("{2}", "")),
    ),
}


@st.composite
def decomposable(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    groups = [
        [f"{chr(ord('A') + index)}{i}" for i in range(size)]
        for index, size in enumerate(sizes)
    ]
    order = draw(st.permutations([name for names in groups for name in names]))
    lines = ["[components]"]
    lines += [f"{name} @ {draw(st.sampled_from(PROCESSES))}" for name in order]
    invariants = []
    library = []
    for names in groups:
        shapes = [expressions(names)]
        if len(names) >= 2:
            shapes.append(dependencies(names))
        invariants += draw(st.lists(st.one_of(*shapes), max_size=2))
        if len(names) >= 3 and draw(st.integers(0, 9)) == 0:
            invariants += [
                form.format(a=names[0], b=names[1], c=names[2])
                for form in EMPTY_TRIANGLE
            ]
        own = draw(st.lists(deltas(names), max_size=4))
        if len(names) >= 2 and draw(st.integers(0, 3)) == 0:
            race = RACE_BLOCKS[min(len(names), 3)]
            invariants += [form.format(*names) for form in race[0]]
            own += [
                (frozenset(removes.format(*names).split()), frozenset(adds.format(*names).split()))
                for removes, adds in race[1]
            ]
        for _ in range(draw(st.integers(0, 3)) if own else 0):
            base = own[draw(st.integers(0, len(own) - 1))]
            own.append(draw(derived(names, base)))
        library += own
    invariants += draw(st.lists(st.sampled_from(ATOMLESS), max_size=2))
    if invariants:
        lines += ["", "[invariants]"]
        lines += [f"inv{i} : {text}" for i, text in enumerate(invariants)]
    ids = [f"a{i}" for i in range(len(library))]
    if library:
        lines += ["", "[actions]"]
        for action_id, (removes, adds) in zip(ids, library):
            cost = draw(st.integers(0, 12))
            lines.append(f"{action_id} : {operation(removes, adds)} @ {cost}")
    if len(ids) >= 2:
        pairs = draw(
            st.lists(
                st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True),
                max_size=2,
            )
        )
        if pairs:
            lines += ["", "[conflicts]"]
            lines += [f"c{i} : {a} {b}" for i, (a, b) in enumerate(pairs)]
    size = len(order)
    named = draw(st.lists(st.integers(0, (1 << size) - 1), max_size=4, unique=True))
    if named:
        lines += ["", "[configurations]"]
        lines += [f"n{i} = {mask:0{size}b}" for i, mask in enumerate(named)]
    return "\n".join(lines) + "\n"


@given(
    text=decomposable(),
    cap=st.sampled_from((None, None, None, 4)),
    budget=st.sampled_from((None, None, None, 30)),
)
@settings(max_examples=300, deadline=None)
def test_per_set_lint_renders_the_global_bytes(text, cap, budget):
    report = assert_same(text, cap=cap, budget=budget)
    for code in sorted(set(report.codes()) & {
        "SA203", "SA301", "SA302", "SA305", "SA306", "SA601", "SA603", "SA605"
    }):
        event(code)


@given(text=decomposable())
@settings(max_examples=100, deadline=None)
def test_blast_radii_match_the_per_action_fixpoint(text):
    manifest = loads(text)
    radii = blast_radii(manifest.universe, manifest.invariants, manifest.actions)
    assert list(radii) == [
        blast_radius(manifest.universe, manifest.invariants, action)
        for action in manifest.actions
    ]


# -- fixed manifests, one per composition rule --------------------------------------

#: {M, FW, CA} races drop_fw against drop_cache (SA603) and {G, H} races
#: drop_h against drop_g (SA601); {Z} and {R, S} are sets without actions
#: whose lightest safe projections complete both witnesses
TWO_RACES = """\
[components]
G @ p0
M @ p0
Z @ p1
FW @ edge
H @ p0
CA @ core
R @ p1
S @ p1

[invariants]
guarded : (CA & !M) -> FW
cached : (FW & M) -> CA
backed : H -> G
zed : Z
rs : R ^ S

[actions]
drop_fw : -FW @ 5
add_fw : +FW @ 8
drop_cache : -CA @ 5
drop_g : -G @ 4
drop_h : -H @ 4
"""


def test_race_witnesses_carry_the_lightest_projection_of_every_other_set():
    report = assert_same(TWO_RACES)
    races = {d.code: d.message for d in report if d.code in ("SA601", "SA603")}
    # Z is pinned on and R ^ S keeps one of them: the lightest projections
    # of the other sets are {} for {M, FW, CA}, {Z}, and {S} (the lower
    # singleton mask, S being declared last)
    assert "from safe configuration 10101001 {G,H,S,Z}" in races["SA601"]
    assert "from safe configuration 01110101 {CA,FW,M,S,Z}" in races["SA603"]


def test_the_single_set_oracle_examples_agree():
    for text in (FEWEST_COMPONENTS_LAST, SHARPER_KIND_LAST):
        assert_same(text)


#: two sets, each with two SAG groups of different sizes
DISCONNECTED = """\
[components]
A @ p0
X @ p1
B @ p0
Y @ p1
C @ p0

[invariants]
abc : one_of(A, B, C)
xy : X | Y

[actions]
ab : A -> B @ 1
ba : B -> A @ 1
drop_x : -X @ 2
add_x : +X @ 2
"""


def test_sag_groups_are_products_of_the_sets_groups():
    report = assert_same(DISCONNECTED)
    [sa305] = [d for d in report if d.code == "SA305"]
    # {A, B, C} splits into {A}-{B} and {C}; {X, Y} into {Y}-{X, Y} and
    # {X} (dropping X there empties the set)
    assert "4 component group(s) of sizes 4, 2, 2, 1; e.g. 01001 {C,X}" in (
        sa305.message
    )


DEAD_COUNT = """\
[components]
A @ p0
X @ p1
B @ p0
Y @ p1

[invariants]
ab : A ^ B
pinned : Y

[actions]
drop_y : -Y @ 1
flip : A -> B @ 1
flop : B -> A @ 1
add_x : +X @ 1
"""


def test_dead_action_counts_every_safe_configuration_it_applies_in():
    report = assert_same(DEAD_COUNT)
    [dead] = [d for d in report if d.code == "SA301"]
    # Y is on everywhere: 2 (A/B) x 2 (X) safe configurations
    assert "applicable from 4 safe configuration(s)" in dead.message


ONE_WAY = """\
[components]
P @ p0
T @ p1
Q @ p0

[invariants]
side : P ^ Q

[actions]
move : P -> Q @ 3
add_t : +T @ 1
drop_t : -T @ 1

[configurations]
start = P
goal = Q, T
"""


def test_one_way_reachability_needs_every_set():
    report = assert_same(ONE_WAY)
    [note] = [d for d in report if d.code == "SA306"]
    assert "'start' is unreachable from 'goal'" in note.message


EMPTY_SET = """\
[components]
A @ p0
X @ p1
B @ p0
C @ p0

[invariants]
ab : A ^ B
bc : B ^ C
ac : A ^ C
x : X

[actions]
drop_a : -A @ 1
add_x : +X @ 1
"""


def test_one_empty_set_empties_the_product():
    report = assert_same(EMPTY_SET)
    assert "SA203" in report.codes()
    assert "SA3xx skipped: empty safe space" in report.skipped


ATOMLESS_INVARIANTS = """\
[components]
A @ p0
B @ p1

[invariants]
yes : true
also : !false
no : false
dep : A -> B

[actions]
add_a : +A @ 1
drop_a : -A @ 1
add_b : +B @ 1
drop_b : -B @ 1
"""


def test_atomless_invariants_ride_along_with_every_set():
    report = assert_same(ATOMLESS_INVARIANTS)
    assert {"SA201", "SA202"} <= set(report.codes())


MERGED = """\
[components]
A @ p0
B @ p1

[invariants]
a : A | !A

[actions]
drop_a : -A @ 1
drop_b : -B @ 1
add_a : +A @ 1
add_b : +B @ 1

[conflicts]
serial : drop_a drop_b
"""


def test_conflicts_merge_sets_and_change_nothing():
    text = MERGED
    manifest = loads(text)
    assert len(
        collaborative_sets(
            manifest.universe,
            manifest.invariants,
            ActionLibrary(manifest.actions),
            manifest.conflicts,
        )
    ) == 1
    assert_same(text)
    assert_same(text.split("[conflicts]")[0])


@pytest.mark.parametrize("offset", [-1, 0])
def test_pair_source_budget_boundary_is_the_product_count(offset):
    # 5 actions (10 pairs) over 6 x 3 x 1 x 2 safe configurations
    text = TWO_RACES
    pairs, total = 10, 6 * 3 * 1 * 2
    budget = pairs * total + offset
    report = assert_same(text, budget=budget)
    restricted = "SA605" in report.codes()
    assert restricted == (offset < 0)


def test_committed_fixture_decomposes():
    text = open("tests/lint/fixtures/decomposable.manifest", encoding="utf-8").read()
    report = assert_same(text)
    manifest = loads(text)
    sets = collaborative_sets(
        manifest.universe,
        manifest.invariants,
        ActionLibrary(manifest.actions),
        manifest.conflicts,
    )
    assert len(sets) == 5
    assert {"SA301", "SA302", "SA305", "SA306", "SA601", "SA603"} <= set(report.codes())


@pytest.mark.parametrize(
    "path",
    [
        "examples/video.manifest",
        "examples/racing.manifest",
        "examples/pipeline.manifest",
        "tests/lint/fixtures/defective.manifest",
        "tests/lint/fixtures/decomposable.manifest",
    ],
)
def test_committed_manifests_agree(path):
    text = open(path, encoding="utf-8").read()
    assert_same(text)
    assert_same(text, cap=6)


@pytest.mark.parametrize(
    "path",
    [
        "examples/video.manifest",
        "examples/racing.manifest",
        "examples/pipeline.manifest",
        "examples/fleet30.manifest",
        "tests/lint/fixtures/decomposable.manifest",
    ],
)
def test_blast_radii_match_on_the_committed_manifests(path):
    manifest = loads(open(path, encoding="utf-8").read())
    radii = blast_radii(manifest.universe, manifest.invariants, manifest.actions)
    assert list(radii) == [
        blast_radius(manifest.universe, manifest.invariants, action)
        for action in manifest.actions
    ]
