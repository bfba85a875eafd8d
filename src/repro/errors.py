"""Exception hierarchy for the safe-adaptation library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
applications embedding the library can catch one base class.  Sub-hierarchies
mirror the package layout: expression parsing, planning, the protocol
machines, and execution (simulator and threaded runtime) each have their
own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ExpressionError(ReproError):
    """Base class for dependency-expression errors."""


class ParseError(ExpressionError):
    """A dependency-expression string could not be parsed.

    Attributes:
        text: the offending source text.
        position: character offset of the failure, or ``None``.
        span: source location (:class:`repro.span.Span`) when the failure
            came from a manifest file, or ``None``.
    """

    def __init__(
        self,
        message: str,
        text: str = "",
        position: "int | None" = None,
        span=None,
    ):
        super().__init__(message)
        self.text = text
        self.position = position
        self.span = span

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        base = super().__str__()
        if self.position is None:
            return base
        return f"{base} (at position {self.position} in {self.text!r})"


class UnknownComponentError(ReproError):
    """A component name was referenced that is not in the universe."""


class ModelError(ReproError):
    """Inconsistent model construction (duplicate components, bad hosts...)."""


class ConfigurationError(ReproError):
    """An operation received an invalid configuration."""


class ActionError(ReproError):
    """Base class for adaptive-action errors."""


class ActionNotApplicableError(ActionError):
    """An adaptive action was applied to a configuration it does not fit."""


class DuplicateActionError(ActionError):
    """Two actions with the same identifier were registered."""


class PlanningError(ReproError):
    """Base class for detection-and-setup phase failures."""


class NoSafePathError(PlanningError):
    """No safe adaptation path exists between source and target."""


class UnsafeConfigurationError(PlanningError):
    """A requested source/target configuration violates the invariants."""


class ProtocolError(ReproError):
    """Base class for realization-phase errors."""


class IllegalTransitionError(ProtocolError):
    """A state machine received an event not allowed in its current state."""


class AdaptationAbortedError(ProtocolError):
    """The adaptation was aborted and rolled back to a safe configuration."""


class UserInterventionRequired(ProtocolError):
    """All automatic failure-handling options were exhausted (paper §4.4).

    The manager retried the step, tried alternate paths to the target, and
    tried returning to the source configuration; all failed.  The system is
    parked at the last reached safe configuration and a human must decide.
    """

    def __init__(self, message: str, configuration=None):
        super().__init__(message)
        self.configuration = configuration


class SafetyViolationError(ReproError):
    """A trace failed the paper's safety definition (checker found evidence).

    When raised by the streaming checker (batch ``raise_if_unsafe`` or the
    online enforcement tripwire), ``violation`` carries the structured
    :class:`repro.safety.Violation` (kind, time, detail) that tripped it.
    """

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation


class ExecutionError(ReproError):
    """Execution-substrate failure (backend misuse, unhandled effect...).

    Backends narrow this to their own subclass (:class:`SimulationError`
    for the discrete-event simulator, :class:`RuntimeHostError` for the
    threaded runtime) by passing ``error=`` to the shared runtimes in
    :mod:`repro.exec`, so ``except ExecutionError`` catches both.
    """


class SimulationError(ExecutionError):
    """Discrete-event simulator misuse (time travel, dead process...)."""


class RuntimeHostError(ExecutionError):
    """Threaded live-runtime failure (host died, queue closed...)."""
