"""Spans around the calls one skewflow module makes into another.

A Tracer swaps chosen module attributes for timing wrappers and puts the
originals back when it closes.  Each wrapper records, per span name, the
number of calls, their total time, the part of that time spent in child
spans (so self time = total - child), the exceptions raised, and how many
calls ran directly under each parent span.  Nothing inside the package is
edited: the wrappers sit on the names a caller module looks up at call time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass, field

BUILDERS = ("dim4_family", "mu_A", "mu_he", "mu_hy", "sl2_compact")

# (module, attribute, span).  The first four are the calls between layers
# inside the flow and the catalog; the verify rows are the calls verify makes
# into the other layers.  The benchmark calls flow, criticality and the
# builders through their own modules, and classify.nilpotent_partition_type
# imports mu_A and criticality from their modules at call time, so those
# module attributes are wrapped as well.
PATCHES = (
    ("skewflow.flow", "criticality", "moment.criticality"),
    ("skewflow.moment", "derivation_algebra", "algebra.derivation_algebra"),
    ("skewflow.flow", "extract_type", "classify.extract_type"),
    ("skewflow.catalog", "structure_invariants", "algebra.structure_invariants"),
    ("skewflow.verify", "flow", "flow"),
    ("skewflow.verify", "criticality", "moment.criticality"),
    ("skewflow.verify", "derivation_algebra", "algebra.derivation_algebra"),
    ("skewflow.verify", "extract_type", "classify.extract_type"),
    *(("skewflow.verify", name, "catalog.build") for name in BUILDERS),
    ("skewflow.flow", "flow", "flow"),
    ("skewflow.moment", "criticality", "moment.criticality"),
    *(("skewflow.catalog", name, "catalog.build") for name in BUILDERS),
)


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    errors: Counter = field(default_factory=Counter)
    parents: Counter = field(default_factory=Counter)

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Install with `with Tracer(observers) as tracer:`; read tracer.spans.

    observers maps a span name to a callback(args, kwargs, result) that runs
    after the span has ended, so its cost is not in the span's time.
    """

    def __init__(self, observers=None):
        self.spans: dict[str, Span] = {}
        self._observers = observers or {}
        self._stack: list[list] = []  # [span name, child seconds]
        self._saved: list[tuple] = []

    def __enter__(self):
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def _wrap(self, name, fn):
        observe = self._observers.get(name)

        def wrapper(*args, **kwargs):
            stats = self.span(name)
            stats.parents[self._stack[-1][0] if self._stack else None] += 1
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stats.errors[type(exc).__name__] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
