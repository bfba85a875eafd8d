"""The factored safe space and SAG against their whole-universe oracles.

:meth:`SafeConfigurationSpace.enumerate_masks` is the sorted product of
per-set safe projections (:class:`repro.core.collaborative.
SafeFactorization`) and :meth:`SafeAdaptationGraph.build` composes the
CSR arrays from per-set, per-projection arc lists.  Over random systems
of several independent sets both are pinned to the builds they
replaced — the whole-universe backtracking
(``tests/oracles/space_reference.py``), the brute-force filter over
``all_configurations`` and the vertex × action loop
(``tests/oracles/sag_reference.py``) — array for array.  The systems mix
in components no invariant mentions, constant invariants, invariants
and actions naming components outside the universe, unsatisfiable sets,
universe orders that interleave the sets' bits and libraries that
interleave the sets' actions.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import replicated_video_system
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.collaborative import collaborative_sets, set_arcs
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse
from repro.core.planner import AdaptationPlanner
from repro.core.sag import SafeAdaptationGraph
from repro.core.space import SafeConfigurationSpace
from tests.oracles.sag_reference import vertex_action_build
from tests.oracles.space_reference import backtracking_masks


def _formulas(names):
    atoms = st.sampled_from(names)
    composite = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(lambda a: f"!({a})", inner),
            st.builds(lambda a, b: f"({a}) & ({b})", inner, inner),
            st.builds(lambda a, b: f"({a}) | ({b})", inner, inner),
            st.builds(lambda a, b: f"({a}) -> ({b})", inner, inner),
        ),
        max_leaves=4,
    )
    if len(names) < 2:
        return composite
    one_of = st.lists(atoms, min_size=2, max_size=len(names), unique=True).map(
        lambda chosen: f"one_of({', '.join(chosen)})"
    )
    return st.one_of(composite, one_of)


def _actions(draw, names, prefix):
    actions = []
    for index in range(draw(st.integers(min_value=0, max_value=4))):
        action_id = f"{prefix}{index}"
        cost = float(draw(st.integers(min_value=1, max_value=9)))
        kind = draw(st.sampled_from(("insert", "remove", "replace")))
        if kind == "replace" and len(names) > 1:
            old, new = draw(st.permutations(names))[:2]
            actions.append(AdaptiveAction.replace(action_id, old, new, cost))
        elif kind == "remove":
            name = draw(st.sampled_from(names))
            actions.append(AdaptiveAction.remove(action_id, name, cost))
        else:
            name = draw(st.sampled_from(names))
            actions.append(AdaptiveAction.insert(action_id, name, cost))
    return actions


@st.composite
def multi_set_systems(draw):
    """(universe, invariants, actions) over 1-3 sets of 1-3 components."""
    sets = [
        [f"S{index}c{member}" for member in range(draw(st.integers(1, 3)))]
        for index in range(draw(st.integers(1, 3)))
    ]
    # components no invariant mentions (actions may still touch them)
    loose = [f"L{index}" for index in range(draw(st.integers(0, 2)))]
    # any permutation: the sets' bits interleave in the universe order
    universe = ComponentUniverse.from_names(
        draw(st.permutations([name for names in sets for name in names] + loose))
    )
    texts = []
    actions = []
    for index, names in enumerate(sets):
        texts += draw(st.lists(_formulas(names), max_size=2))
        actions += _actions(draw, names, f"A{index}_")
    if loose:
        actions += _actions(draw, loose, "L_")
    if draw(st.booleans()):
        texts.append(draw(st.sampled_from(("true", "false"))))
    if draw(st.booleans()):
        # an invariant naming a component outside the universe
        texts.append(f"{draw(st.sampled_from(sets[0]))} -> Z9")
    if draw(st.booleans()):
        # an unsatisfiable set: its factor, and the safe space, are empty
        name = draw(st.sampled_from(sets[-1]))
        texts.append(f"{name} & !{name}")
    if draw(st.booleans()):
        # an action touching a component outside the universe
        actions.append(
            AdaptiveAction.replace("foreign", draw(st.sampled_from(sets[0])), "Z9", 3.0)
        )
    if draw(st.booleans()):
        # the sets' actions interleave in library order
        actions = draw(st.permutations(actions))
    return universe, InvariantSet.of(*texts), ActionLibrary(actions)


def _brute_force(universe, invariants):
    return tuple(sorted(
        universe.mask_of(config)
        for config in universe.all_configurations()
        if invariants.all_hold(config)
    ))


def _arrays(sag):
    csr = sag.csr
    return (
        tuple(csr.nodes), csr.index_of, list(csr.offsets), list(csr.targets),
        list(csr.weights), list(csr.label_ids), csr.labels,
    )


@given(multi_set_systems())
@settings(max_examples=150, deadline=None)
def test_enumeration_is_the_whole_universe_enumeration(system):
    universe, invariants, _ = system
    space = SafeConfigurationSpace(universe, invariants)
    masks = space.enumerate_masks()
    oracle = backtracking_masks(SafeConfigurationSpace(universe, invariants))
    assert masks == oracle == _brute_force(universe, invariants)
    # every safe mask is memoized, and no verdict changed
    assert all(space.safe_memo[mask] is True for mask in masks)
    safe = set(masks)
    assert [space.is_safe_mask(mask) for mask in range(1 << len(universe))] == [
        mask in safe for mask in range(1 << len(universe))
    ]


@given(multi_set_systems())
@settings(max_examples=150, deadline=None)
def test_built_arrays_are_the_vertex_action_arrays(system):
    universe, invariants, actions = system
    got = SafeAdaptationGraph.build(SafeConfigurationSpace(universe, invariants), actions)
    space = SafeConfigurationSpace(universe, invariants)
    ref = vertex_action_build(space, actions, backtracking_masks(space))
    assert _arrays(got) == _arrays(ref)


@given(multi_set_systems(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_set_projections_are_projections_of_the_safe_space(system, with_actions):
    universe, invariants, actions = system
    space = SafeConfigurationSpace(universe, invariants)
    masks = space.enumerate_masks()
    groups = collaborative_sets(
        universe, invariants, actions if with_actions else ActionLibrary()
    )
    for group in groups:
        projections = space.projections(group)
        assert list(projections) == sorted(projections)
        if masks:
            group_mask = universe.mask_of_names(group)
            assert set(projections) == {mask & group_mask for mask in masks}


@given(multi_set_systems())
@settings(max_examples=100, deadline=None)
def test_action_sets_are_the_collaborative_sets(system):
    """Joining the invariant-connected sets along the actions gives the
    partition (and the arcs) one union-find pass over invariants and
    actions together gives."""
    universe, invariants, actions = system
    space = SafeConfigurationSpace(universe, invariants)
    groups, arcs = space.factorization.action_sets(actions)
    assert groups == collaborative_sets(universe, invariants, actions)
    assert list(map(list, arcs)) == set_arcs(universe, groups, actions)


def test_action_sets_are_shared_until_the_library_grows():
    system = replicated_video_system(2)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    factorization = planner.space.factorization
    first = factorization.action_sets(system.actions)
    planner.plan_k(system.source, system.target, 3)  # the build and the heuristic
    assert factorization.action_sets(system.actions) is first
    # an action spanning the two groups joins their sets
    system.actions.add(AdaptiveAction.replace("extra", "E1@g0", "E1@g1", 1.0))
    grown = factorization.action_sets(system.actions)
    assert (len(first[0]), len(grown[0])) == (2, 1)
    assert grown[0] == collaborative_sets(
        system.universe, system.invariants, system.actions
    )


def test_a_set_split_in_two_is_rejected():
    universe = ComponentUniverse.from_names(["A", "B", "C"])
    space = SafeConfigurationSpace(universe, InvariantSet.of("A -> B"))
    assert space.projections({"C"}) == (0, 1)
    assert space.projections({"A", "B"}) == (0, 2, 6)
    with pytest.raises(ValueError):
        space.projections({"A"})


@pytest.mark.parametrize("text, expected", [("true", (0, 1)), ("false", ())])
def test_constant_invariants_hold_in_every_factor(text, expected):
    universe = ComponentUniverse.from_names(["A"])
    space = SafeConfigurationSpace(universe, InvariantSet.of(text))
    assert space.enumerate_masks() == expected
    assert space.projections(()) == expected[:1]
    sag = SafeAdaptationGraph.build(
        space, ActionLibrary([AdaptiveAction.insert("I", "A", 1.0)])
    )
    assert sag.csr.nodes == expected
    assert list(sag.csr.targets) == [1][: len(expected) // 2]


def test_a_dropped_space_is_freed_without_the_cycle_collector():
    """The factorization keeps no reference back to its space, so a
    planner dropped by the spec registry takes its space, memo and SAG
    with it at once instead of waiting for a full collection."""
    system = replicated_video_system(2)
    planner = AdaptationPlanner(system.universe, system.invariants, system.actions)
    planner.lazy_plan(system.source, system.target)
    planner.plan_k(system.source, system.target, 3)
    assert planner.sag.node_count == 64
    space = weakref.ref(planner.space)
    gc.disable()
    try:
        del planner
        assert space() is None
    finally:
        gc.enable()
