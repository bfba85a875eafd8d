"""Core safe-adaptation model — the paper's primary contribution.

Contents map directly onto the paper's analysis/setup machinery:

* :mod:`repro.core.model` — components, processes, configurations, and the
  bit-vector encoding used throughout §5.
* :mod:`repro.core.invariants` — structural and dependency invariants
  (the predicate set *I* of ``P = (S, I, T, R, A)``).
* :mod:`repro.core.actions` — adaptive actions with costs and runtime
  bindings (*T*, *R*, *A*).
* :mod:`repro.core.space` — safe-configuration enumeration (step 1 of the
  detection & setup phase).
* :mod:`repro.core.sag` — the Safe Adaptation Graph (step 2).
* :mod:`repro.core.planner` — Minimum Adaptation Path search plus the
  re-planning entry points used by failure handling (step 3 and §4.4).
* :mod:`repro.core.collaborative` — collaborative-set decomposition
  (§7 scalability remedy).
"""

from repro.core.model import Component, ComponentUniverse, Configuration
from repro.core.invariants import (
    DependencyInvariant,
    Invariant,
    InvariantSet,
    StructuralInvariant,
)
from repro.core.actions import ActionKind, ActionLibrary, AdaptiveAction
from repro.core.space import SafeConfigurationSpace
from repro.core.sag import LazySAG, SafeAdaptationGraph
from repro.core.planner import (
    LAZY_PLAN_COMPONENTS,
    AdaptationPlan,
    AdaptationPlanner,
    PlanStep,
)
from repro.core.collaborative import collaborative_sets

__all__ = [
    "Component",
    "ComponentUniverse",
    "Configuration",
    "Invariant",
    "StructuralInvariant",
    "DependencyInvariant",
    "InvariantSet",
    "ActionKind",
    "AdaptiveAction",
    "ActionLibrary",
    "SafeConfigurationSpace",
    "SafeAdaptationGraph",
    "LazySAG",
    "AdaptationPlanner",
    "AdaptationPlan",
    "PlanStep",
    "LAZY_PLAN_COMPONENTS",
    "collaborative_sets",
]
