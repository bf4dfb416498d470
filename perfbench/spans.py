"""Run-time span tracing of the steinerloops modules, from outside the package.

``install()`` replaces every public function of the traced modules, and every
public function they import from a sibling module, by a wrapper that records
one span per call: name id, start, end and parent span. Constructors of the
public classes defined in a traced module are wrapped as ``<module>.<Class>``
by replacing ``__init__``. Because the wrappers live in the module
namespaces, calls inside the package (``quotient`` -> ``is_normal``,
``SteinerLoop.__init__`` -> ``_kernels.steiner_violation``) are seen too.

Spans are kept in typed arrays in memory; ``Tracer.save`` writes them when the
run ends. ``Tracer.layers`` aggregates calls and self time (a span's duration
minus the durations of its child spans) per name. Nothing here is imported by
an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

MODULES = ("_kernels", "gf2", "design_core", "schreier", "steiner_operator", "formats", "catalog", "cli")

# kernel calls additionally aggregated per input shape (the shapes of the old
# kernel micro-benchmark): "v" is the system order, "n" the loop order
SHAPE_TAGGED = {
    "_kernels.pasch_census": "v",
    "_kernels.center_mask": "n",
    "_kernels.steiner_violation": "n",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.shape: dict[str, list[int]] = {}
        self.elements = 0
        self.class_surplus = 0
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        tag = SHAPE_TAGGED.get(name)
        stack, child_ns = self._stack, self._child_ns
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            child_ns.append(0)
            t0 = perf_counter_ns()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                end[idx] = t1
                stack.pop()
                inner = child_ns.pop()
                dur = t1 - t0
                if child_ns:
                    child_ns[-1] += dur
                own = dur - inner
                self.calls[nid] += 1
                self.self_ns[nid] += own
                if tag is not None:
                    key = f"{name}.{tag}{args[0].shape[0]}"
                    acc = self.shape.setdefault(key, [0, 0])
                    acc[0] += 1
                    acc[1] += own
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_elements(self, group):
        self.elements += len(group.elements)

    def _count_surplus(self, report):
        self.class_surplus += report.equivalence_class_count - report.isomorphism_class_count

    def install(self):
        """Wrap the traced modules in place; ``uninstall`` restores them."""
        from steinerloops import design_core, schreier

        hooks = {
            design_core.automorphisms: self._count_elements,
            schreier.classify: self._count_surplus,
        }
        for short in MODULES:
            mod = importlib.import_module(f"steinerloops.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__.startswith("steinerloops."):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(name, obj, hooks.get(obj)))
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and "__init__" in vars(obj)
                    and not issubclass(obj, BaseException)
                ):
                    init = vars(obj)["__init__"]
                    self._undo.append((obj, "__init__", init))
                    obj.__init__ = self.wrap(name, init)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layers(self) -> dict:
        """Per name: calls and self time in ms, plus the per-shape kernel rows."""
        out = {}
        for nid, name in enumerate(self.names):
            if self.calls[nid]:
                out[name] = {"calls": self.calls[nid], "ms": self.self_ns[nid] / 1e6}
        for key, (calls, ns) in self.shape.items():
            out[key] = {"calls": calls, "ms": ns / 1e6}
        return out

    def save(self, path, summary: dict):
        """Write every span (name, start, end, parent) plus the summary."""
        import numpy as np

        t0 = self.start[0] if self.start else 0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64) - t0,
            end_ns=np.frombuffer(self.end, dtype=np.int64) - t0,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            summary=np.array(json.dumps(summary, sort_keys=True)),
        )
