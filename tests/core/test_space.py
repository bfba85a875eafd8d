"""Unit tests for safe-configuration enumeration (Table 1)."""

import pytest

from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.space import SafeConfigurationSpace
from repro.errors import UnsafeConfigurationError


class TestMembership:
    def test_is_safe(self, planner, source):
        assert planner.space.is_safe(source)
        assert not planner.space.is_safe(Configuration(["E1"]))

    def test_require_safe_raises_with_explanation(self, planner):
        with pytest.raises(UnsafeConfigurationError) as excinfo:
            planner.space.require_safe(Configuration(["E1"]), role="source")
        assert "source" in str(excinfo.value)
        assert "violates" in str(excinfo.value)

    def test_contains_protocol(self, planner, source):
        assert source in planner.space


class TestTable1:
    def test_exact_safe_set(self, planner, universe, table1_bits):
        got = {universe.to_bits(c) for c in planner.space.enumerate()}
        assert got == set(table1_bits)

    def test_count_and_len(self, planner):
        assert planner.space.count() == 8
        assert len(planner.space) == 8

    def test_deterministic_ascending_order(self, planner, universe):
        bits = [universe.to_bits(c) for c in planner.space.enumerate()]
        assert bits == sorted(bits)

    def test_cached(self, planner):
        assert planner.space.enumerate() is planner.space.enumerate()

    def test_to_table_rows(self, planner):
        rows = planner.space.to_table()
        assert ("0100101", "{D1,D4,E1}") in rows
        assert ("1010010", "{D3,D5,E2}") in rows


class TestBacktrackingEnumerator:
    def test_matches_brute_force_on_paper_instance(self, planner, universe):
        brute = tuple(
            config for config in universe.all_configurations()
            if planner.invariants.all_hold(config)
        )
        assert planner.space.enumerate() == brute

    def test_scales_past_brute_force(self):
        """4 replicated groups = 28 components: 2^28 brute-force states,
        but only 8^4 safe ones — backtracking must finish quickly."""
        from repro.bench import replicated_video_system

        system = replicated_video_system(4)
        space = SafeConfigurationSpace(system.universe, system.invariants)
        configs = space.enumerate()
        assert len(configs) == 8 ** 4
        for config in configs[:32]:
            assert system.invariants.all_hold(config)

    @staticmethod
    def _assert_matches_brute_force(system, label):
        space = SafeConfigurationSpace(system.universe, system.invariants)
        brute = tuple(
            config for config in system.universe.all_configurations()
            if system.invariants.all_hold(config)
        )
        assert space.enumerate() == brute, label
        assert space.enumerate_masks() == tuple(
            map(system.universe.mask_of, brute)
        ), label

    def test_matches_brute_force_on_random_instances(self):
        from repro.bench import random_system

        for seed in range(20):
            self._assert_matches_brute_force(
                random_system(seed, n_components=7), seed
            )

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_matches_brute_force_on_xor_stress_universes(self, seed):
        """Xor invariants stay undetermined until their last atom, so the
        pruner walks the whole prefix tree before cutting anything."""
        from repro.bench.workloads import enumeration_stress_system

        system = enumeration_stress_system(16, seed=seed)
        self._assert_matches_brute_force(system, seed)

    def test_unsatisfiable_invariants_yield_empty(self):
        universe = ComponentUniverse.from_names(["A"])
        space = SafeConfigurationSpace(universe, InvariantSet.of("A & !A"))
        assert space.enumerate() == ()


class TestBruteForceCrossCheck:
    def test_enumeration_equals_filtering(self):
        universe = ComponentUniverse.from_names(["A", "B", "C", "D"])
        invariants = InvariantSet.of("A -> B", "one_of(C, D)")
        space = SafeConfigurationSpace(universe, invariants)
        expected = {
            config.members
            for config in universe.all_configurations()
            if invariants.all_hold(config)
        }
        assert {c.members for c in space.enumerate()} == expected
        # sanity: the constraint actually prunes
        assert 0 < len(expected) < 16
