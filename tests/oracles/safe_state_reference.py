"""Reference safe-state monitor stepping the AST ptLTL engine (slow oracle).

:class:`ReferenceSafeStateMonitor` is :class:`repro.ltl.SafeStateMonitor`
as it ran before the runtime switched to the compiled core: balanced-pair
counting plus a formula evaluated by the AST walker
:class:`~tests.oracles.ptltl_reference.PTLTLMonitor`.  ``tests/test_ltl.py`` pins the product
monitor to it: same ``observe()`` values, ``safe`` flags, ``on_safe``
firings and unmatched-``done`` errors on random formulas and streams.
"""

from tests.oracles.ptltl_reference import PTLTLMonitor


class ReferenceSafeStateMonitor:
    def __init__(self, formula=None, pairs=()):
        self.monitor = PTLTLMonitor(formula) if formula is not None else None
        self.pairs = tuple(pairs)
        self._open = {pair: 0 for pair in self.pairs}
        self._callbacks = []

    def on_safe(self, callback):
        self._callbacks.append(callback)

    def observe(self, *events):
        event_set = frozenset(events)
        for pair in self.pairs:
            if pair.start in event_set:
                self._open[pair] += 1
            if pair.done in event_set:
                if self._open[pair] == 0:
                    raise ValueError(
                        f"unmatched {pair.done!r} (no open {pair.start!r})"
                    )
                self._open[pair] -= 1
        if self.monitor is not None:
            self.monitor.step(event_set)
        if self.safe:
            for callback in self._callbacks:
                callback()
        return self.safe

    @property
    def open_obligations(self):
        return sum(self._open.values())

    @property
    def safe(self):
        value = self.monitor.value if self.monitor is not None else None
        return (value is None or value) and self.open_obligations == 0
