"""Components, processes, and configurations (paper §3, §5.1).

A component-based system is "a set of communicating components running on
one or more processes".  A *configuration* is the set of components
currently composed into the system.  Section 5.1 encodes configurations as
bit vectors over a fixed component ordering — e.g. ``(D5,D4,D3,D2,D1,E2,E1)``
with source ``0100101`` — and :class:`ComponentUniverse` reproduces that
encoding so the paper's tables can be regenerated verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, ModelError, UnknownComponentError


@dataclass(frozen=True)
class Component:
    """A named adaptable component hosted on a process.

    Attributes:
        name: unique identifier, e.g. ``"D2"``.
        process: identifier of the hosting process, e.g. ``"handheld"``.
            Planning is location-aware so the realization phase knows which
            agents participate in each adaptive action.
        description: human-readable role, e.g. ``"DES 128/64 decoder"``.
    """

    name: str
    process: str = "local"
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ModelError("component name must be non-empty")
        if not self.process:
            raise ModelError(f"component {self.name!r} needs a host process")


class Configuration:
    """An immutable set of component names — one vertex of the SAG.

    Thin wrapper over :class:`frozenset` adding the adaptation-specific
    operations (apply/undo deltas, bit-vector codec) while remaining
    hashable and cheap to copy.
    """

    __slots__ = ("_members", "_hash")

    def __init__(self, members: Iterable[str] = ()):
        object.__setattr__(self, "_members", frozenset(members))
        object.__setattr__(self, "_hash", None)
        for name in self._members:
            if not isinstance(name, str) or not name:
                raise ConfigurationError(
                    f"configuration members must be non-empty strings, got {name!r}"
                )

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Configuration is immutable")

    def __copy__(self) -> "Configuration":
        return self  # immutable: sharing is safe

    def __deepcopy__(self, memo) -> "Configuration":
        return self  # immutable: sharing is safe

    # -- set protocol ---------------------------------------------------------
    @property
    def members(self) -> FrozenSet[str]:
        return self._members

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __eq__(self, other) -> bool:
        if isinstance(other, Configuration):
            return self._members == other._members
        if isinstance(other, frozenset):
            return self._members == other
        return NotImplemented

    def __hash__(self) -> int:
        # Configurations are dict keys on every hot path (graph adjacency,
        # distance maps, vertex lookup); hashing the frozenset once is a
        # measurable win during SAG construction and search.
        value = self._hash
        if value is None:
            value = hash(self._members)
            object.__setattr__(self, "_hash", value)
        return value

    def __le__(self, other: "Configuration") -> bool:
        return self._members <= _members_of(other)

    # -- adaptation deltas ------------------------------------------------------
    def with_components(self, names: Iterable[str]) -> "Configuration":
        return Configuration(self._members | frozenset(names))

    def without_components(self, names: Iterable[str]) -> "Configuration":
        return Configuration(self._members - frozenset(names))

    def apply_delta(
        self, removes: AbstractSet[str], adds: AbstractSet[str]
    ) -> "Configuration":
        """Apply an adaptive action's delta; validates applicability."""
        if not removes <= self._members:
            missing = sorted(removes - self._members)
            raise ConfigurationError(
                f"cannot remove absent components: {missing}"
            )
        overlap = sorted(adds & self._members)
        if overlap:
            raise ConfigurationError(f"cannot insert present components: {overlap}")
        return Configuration((self._members - removes) | adds)

    def symmetric_difference(self, other: "Configuration") -> FrozenSet[str]:
        return self._members ^ _members_of(other)

    def __repr__(self) -> str:
        inner = ",".join(sorted(self._members))
        return f"Configuration({{{inner}}})"

    def label(self) -> str:
        """Compact display form used in tables and traces: ``{D4,D1,E1}``."""
        return "{" + ",".join(sorted(self._members)) + "}"


def _members_of(value) -> FrozenSet[str]:
    if isinstance(value, Configuration):
        return value.members
    return frozenset(value)


class ComponentUniverse:
    """The ordered set of adaptable components under consideration.

    The ordering defines the bit-vector encoding: bit *i* (most significant
    first) corresponds to ``order[i]``.  The paper's video example declares
    the order ``(D5, D4, D3, D2, D1, E2, E1)`` so that the source
    configuration renders as ``0100101``.
    """

    def __init__(self, components: Sequence[Component]):
        if not components:
            raise ModelError("a universe needs at least one component")
        self._order: Tuple[str, ...] = tuple(c.name for c in components)
        self._names: FrozenSet[str] = frozenset(self._order)
        self._by_name: Dict[str, Component] = {}
        for component in components:
            if component.name in self._by_name:
                raise ModelError(f"duplicate component {component.name!r}")
            self._by_name[component.name] = component
        # Bitmask codec: bit value of order[i] is 1 << (n-1-i), so the
        # integer mask of a configuration equals its bit-vector string
        # read as a binary number (MSB = order[0]).
        n = len(self._order)
        self._atom_bits: Dict[str, int] = {
            name: 1 << (n - 1 - i) for i, name in enumerate(self._order)
        }
        self._full_mask: int = (1 << n) - 1
        self._mask_cache: Dict[FrozenSet[str], int] = {}
        self._config_cache: Dict[int, Configuration] = {}

    @classmethod
    def from_names(
        cls,
        names: Sequence[str],
        processes: Optional[Mapping[str, str]] = None,
    ) -> "ComponentUniverse":
        """Build a universe from bare names, optionally mapping to processes."""
        processes = processes or {}
        return cls(
            [Component(name, processes.get(name, "local")) for name in names]
        )

    # -- lookups ---------------------------------------------------------------
    @property
    def order(self) -> Tuple[str, ...]:
        return self._order

    @property
    def names(self) -> FrozenSet[str]:
        return self._names

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Component]:
        for name in self._order:
            yield self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def component(self, name: str) -> Component:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownComponentError(f"unknown component {name!r}") from None

    def process_of(self, name: str) -> str:
        return self.component(name).process

    def processes(self) -> Tuple[str, ...]:
        """Distinct process ids in declaration order."""
        seen: List[str] = []
        for name in self._order:
            process = self._by_name[name].process
            if process not in seen:
                seen.append(process)
        return tuple(seen)

    def processes_of(self, names: Iterable[str]) -> FrozenSet[str]:
        """Processes hosting any of *names* — the participants of an action."""
        return frozenset(self.process_of(n) for n in names)

    def validate_members(self, names: Iterable[str]) -> None:
        unknown = sorted(set(names) - set(self._by_name))
        if unknown:
            raise UnknownComponentError(f"unknown components: {unknown}")

    # -- integer bitmask fast path ----------------------------------------------
    @property
    def atom_bits(self) -> Mapping[str, int]:
        """Bit value (power of two) of every component name.

        The mapping drives :mod:`repro.expr.compile`: a configuration's
        mask ANDed with ``atom_bits[name]`` is non-zero iff the component
        is present.
        """
        return self._atom_bits

    @property
    def full_mask(self) -> int:
        """Mask with every component present (``2^n - 1``)."""
        return self._full_mask

    def bit_of(self, name: str) -> int:
        """Bit value of *name*; raises on unknown components."""
        try:
            return self._atom_bits[name]
        except KeyError:
            raise UnknownComponentError(f"unknown component {name!r}") from None

    def mask_of_names(self, names: Iterable[str]) -> int:
        """Combined mask of *names* (each must belong to the universe)."""
        mask = 0
        bits = self._atom_bits
        try:
            for name in names:
                mask |= bits[name]
        except KeyError:
            raise UnknownComponentError(f"unknown component {name!r}") from None
        return mask

    def mask_of(self, config: Configuration) -> int:
        """Integer bit-vector of *config* (cached per configuration).

        Equal to ``int(self.to_bits(config), 2)`` but computed with pure
        dict lookups and OR — the hot-path representation the planning
        engine runs on.  Raises :class:`UnknownComponentError` if the
        configuration contains components outside the universe.
        """
        members = config.members
        cached = self._mask_cache.get(members)
        if cached is None:
            cached = self.mask_of_names(members)
            self._mask_cache[members] = cached
        return cached

    def from_mask(self, mask: int) -> Configuration:
        """Inverse of :meth:`mask_of`; decoded configurations are interned."""
        config = self._config_cache.get(mask)
        if config is None:
            if mask < 0 or mask > self._full_mask:
                raise ConfigurationError(
                    f"mask {mask:#x} out of range for universe size {len(self._order)}"
                )
            config = Configuration(
                name for name, bit in self._atom_bits.items() if mask & bit
            )
            self._config_cache[mask] = config
            self._mask_cache.setdefault(config.members, mask)
        return config

    # -- bit-vector codec --------------------------------------------------------
    def to_bits(self, config: Configuration) -> str:
        """Render *config* as the paper's bit-vector string (MSB = order[0])."""
        self.validate_members(config.members)
        return "".join("1" if name in config else "0" for name in self._order)

    def from_bits(self, bits: str) -> Configuration:
        """Parse a bit-vector string back into a :class:`Configuration`."""
        if len(bits) != len(self._order):
            raise ConfigurationError(
                f"bit vector length {len(bits)} != universe size {len(self._order)}"
            )
        members = []
        for bit, name in zip(bits, self._order):
            if bit == "1":
                members.append(name)
            elif bit != "0":
                raise ConfigurationError(f"invalid bit {bit!r} in {bits!r}")
        return Configuration(members)

    def configuration(self, *names: str) -> Configuration:
        """Validated configuration constructor."""
        self.validate_members(names)
        return Configuration(names)

    def all_configurations(self) -> Iterator[Configuration]:
        """Enumerate all 2^n configurations (n = universe size), MSB-first.

        Exponential by nature; intended for small universes and for
        brute-force cross-checking the restricted enumerations.
        """
        n = len(self._order)
        for mask in range(1 << n):
            members = [
                self._order[i] for i in range(n) if mask & (1 << (n - 1 - i))
            ]
            yield Configuration(members)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ComponentUniverse(order={self._order!r})"
