"""Outside-in tracing of the five iongate layers.

`Tracer.install()` wraps every public function of `iongate.hilbert`,
`iongate.dynamics`, `iongate.synthesis`, `iongate.analysis` and `iongate.cli`
under every module attribute of the package that refers to it, so a call that
reaches a function through a re-export (`analysis.evolve`, `iongate.fidelity`)
still lands in its span. It also wraps `QuantumState.__post_init__`, the
per-state validation. Nothing under `src/` changes.

Each call records a span ``[name, start, end, parent, dim]``: times come from
``time.monotonic`` (one clock for every process on the machine), ``parent``
is the index of the enclosing span or None, and ``dim`` is the ``.dim`` of the
first argument that has one (matrix or state dimension), or None. Spans stay
in memory until the process writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("hilbert", "dynamics", "synthesis", "analysis", "cli")

#: span name of the per-state validation wrapper
VALIDATE_SPAN = "hilbert.QuantumState.validate"


def _dim_of(args) -> int | None:
    for arg in args:
        dim = getattr(arg, "dim", None)
        if isinstance(dim, int):
            return dim
    return None


class Tracer:
    """Span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else None, _dim_of(args)]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured outside any wrapped call."""
        self.spans.append([name, start, end, None, None])

    def install(self) -> None:
        """Wrap the public functions of every imported iongate layer."""
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "iongate" or name.startswith("iongate.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = package.get(f"iongate.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        hilbert = package.get("iongate.hilbert")
        if hilbert is not None:
            cls = hilbert.QuantumState
            self._undo.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self.wrap(VALIDATE_SPAN, cls.__post_init__)

    def uninstall(self) -> None:
        """Restore every binding that `install` replaced."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its child spans
    cover. Spans of one thread nest without overlap, so the children's
    durations add up to the time they cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
