"""Past-time LTL: one property core for every evaluation surface (§7).

The package's center of gravity is the **compiled property IR** —
formulas compiled once per spec and evaluated in O(formula) per step
over int bitmasks; it is the one evaluation engine:

* :mod:`repro.ltl.ast` — the formula classes (``Prop``, boolean and
  past-time operators, the configuration-level ``StateProp`` atom) and
  the manifest ``[properties]`` text syntax
  (:func:`parse_property` / :func:`property_to_text`);
* :mod:`repro.ltl.compile` — :class:`CompiledProperty` /
  :class:`CompiledMonitor`, the bit-slot program shared by paths, lint,
  the planning service, and offline trace checking;
* :mod:`repro.ltl.monitor` — the safe-state machinery and the
  observation-bus surface, both stepping the compiled core;
* :mod:`repro.ltl.paths` — :func:`verify_paths`, path-quantified
  checking over the Safe Adaptation Graph ("along every/some k-best
  path from S to T, φ holds at each committed configuration").

The AST-walking reference semantics (``PTLTLMonitor``) is a test oracle,
``tests/oracles/ptltl_reference.py``, that the compiled core is pinned
to.
"""

from repro.ltl.ast import (
    Historically,
    Once,
    PAnd,
    PFormula,
    PImplies,
    PNot,
    POr,
    Previously,
    Prop,
    Since,
    StateProp,
    parse_property,
    property_to_text,
)
from repro.ltl.compile import (
    CompiledMonitor,
    CompiledProperty,
    compile_property,
)
from repro.ltl.monitor import (
    BalancedPair,
    SafeStateMonitor,
    TemporalObserver,
    TemporalReport,
    no_open_segments,
    record_events,
)
from repro.ltl.paths import (
    DEFAULT_K,
    LAZY_VERIFY_EXPANSIONS,
    PathVerdict,
    check_plan,
    verify_paths,
)

__all__ = [
    "BalancedPair",
    "CompiledMonitor",
    "CompiledProperty",
    "DEFAULT_K",
    "Historically",
    "LAZY_VERIFY_EXPANSIONS",
    "Once",
    "PAnd",
    "PFormula",
    "PImplies",
    "PNot",
    "POr",
    "PathVerdict",
    "Previously",
    "Prop",
    "SafeStateMonitor",
    "Since",
    "StateProp",
    "TemporalObserver",
    "TemporalReport",
    "check_plan",
    "compile_property",
    "no_open_segments",
    "parse_property",
    "property_to_text",
    "record_events",
    "verify_paths",
]
