"""In-memory span tracer for traced benchmark runs.

install() wraps every public function of the polyrings layer modules and
rebinds the wrapper in every polyrings module namespace that refers to
the function, so calls across module boundaries and recursive calls
inside a module both record a span. A span is a name ("layer.function"),
a start and end in perf_counter_ns, the index of the enclosing span and
the id of the benchmark item it belongs to. Spans are kept in flat
arrays and written out once, when the run ends.

Nothing in the package changes: the wrappers exist only in the process
that installed them. Calls made while the tracer is inactive (the
benchmark's output checks and counter hooks) pass straight through.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from types import FunctionType

LAYERS = (
    "polyomino",
    "bigraph",
    "gorenstein",
    "toric",
    "srcomplex",
    "invariants",
    "generate",
    "cli",
)

SETUP_ITEM = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        # one-element lists so the wrapper closures read them without
        # an attribute lookup per call
        self._active = [False]
        self._item = [SETUP_ITEM]
        self._stack = [-1]
        self.deferred: list = []

    def activate(self, item: int) -> None:
        self._item[0] = item
        self._active[0] = True

    def deactivate(self) -> None:
        self._active[0] = False

    def __len__(self) -> int:
        return len(self.end)

    def _wrap(self, qualname: str, fn, hook):
        nid = len(self.names)
        self.names.append(qualname)
        active, item, stack = self._active, self._item, self._stack
        add_name, add_parent = self.name.append, self.parent.append
        add_item, add_start, add_end = self.item.append, self.start.append, self.end.append
        ends = self.end
        deferred = self.deferred
        clock = time.perf_counter_ns
        generator = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_item(item[0])
            add_end(0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
                if generator:
                    # a generator does its work while consumed; consume it
                    # inside the span so the span covers that work
                    result = list(result)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                deferred.append((hook, args, kwargs, result))
            return iter(result) if generator else result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, hooks: dict) -> int:
        """Wrap the public functions of every imported layer module.

        hooks maps "layer.function" to f(args, kwargs, result) -> dict of
        counter increments; hooks run later, in drain(), with the tracer
        inactive. Returns the number of functions wrapped.
        """
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"polyrings.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    qualname = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(qualname, obj, hooks.get(qualname))
        for modname, mod in list(sys.modules.items()):
            if modname != "polyrings" and not modname.startswith("polyrings."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        return len(wrapped)

    def drain(self, counters: dict) -> None:
        """Run the deferred counter hooks and add their increments."""
        pending, self.deferred[:] = list(self.deferred), []
        for hook, args, kwargs, result in pending:
            for key, value in hook(args, kwargs, result).items():
                counters[key] = counters.get(key, 0) + value

    def extend(self, names, name, start, end, parent, item) -> None:
        """Append spans recorded elsewhere (a traced CLI child), re-indexing
        names and parents, all under one item id."""
        ids = []
        for qualname in names:
            if qualname not in self.names:
                self.names.append(qualname)
            ids.append(self.names.index(qualname))
        base = len(self.end)
        self.name.extend(ids[k] for k in name)
        self.start.extend(start)
        self.end.extend(end)
        self.parent.extend(p + base if p >= 0 else -1 for p in parent)
        self.item.extend([item] * len(end))

    def dump(self, stem: Path) -> None:
        """Write stem.json (names, field order, span count) and stem.bin
        (the five arrays, one after another, native byte order)."""
        stem.with_suffix(".json").write_text(
            json.dumps(
                {
                    "names": self.names,
                    "fields": ["name:i", "start:q", "end:q", "parent:i", "item:i"],
                    "count": len(self.end),
                }
            )
        )
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent, self.item):
                arr.tofile(fh)


def load(stem: Path):
    """Read back what Tracer.dump wrote: (names, name, start, end, parent, item)."""
    head = json.loads(stem.with_suffix(".json").read_text())
    count = head["count"]
    arrays = []
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for field in head["fields"]:
            arr = array(field.split(":")[1])
            arr.fromfile(fh, count)
            arrays.append(arr)
    return (head["names"], *arrays)


def self_times(tr: Tracer) -> tuple[dict, dict]:
    """Per span name, [calls, self_ns, total_ns], once for the spans of
    benchmark items and once for set-up spans. Self time is a span's
    duration minus the durations of its direct children."""
    n = len(tr.end)
    child = [0] * n
    start, end, parent, name, item = tr.start, tr.end, tr.parent, tr.name, tr.item
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    items = [[0, 0, 0] for _ in tr.names]
    setup = [[0, 0, 0] for _ in tr.names]
    for i in range(n):
        dur = end[i] - start[i]
        row = (setup if item[i] == SETUP_ITEM else items)[name[i]]
        row[0] += 1
        row[1] += dur - child[i]
        row[2] += dur

    def named(rows):
        return {tr.names[k]: row for k, row in enumerate(rows) if row[0]}

    return named(items), named(setup)
