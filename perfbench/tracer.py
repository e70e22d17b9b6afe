"""Module-boundary spans for the traced benchmark run.

Every public function of an ``ordertopo`` module is replaced, in each other
module namespace that imported it (the benchmark's own modules included),
by a wrapper that records a span.  Calls inside the defining module keep
the original, so a span opens only where a call crosses from one module
into another.  ``families.form_of`` is the one exception: the per-layer
table names it, and it is only ever reached from inside ``families``.

Spans live in one flat float64 array, five entries per span (name id,
start, end, parent span, document id), and are written out once, when the
run ends.  A span is added by a single ``extend`` call, so a deadline
signal can never leave a span half-written.  Self time is a span's
duration minus the time its child spans cover; it is summed per name as
spans close, so the totals include spans past the storage cap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("rationals", "carriers", "ordersets", "eventual", "families", "topology",
          "theorems", "serialize", "documents", "cli")

# reached only from inside their own module, but named by the per-layer table
OWN_MODULE = {"families": ("form_of",)}

SPAN_CAP = 500_000
FIELDS = ("name", "start", "end", "parent", "doc")
WIDTH = len(FIELDS)


def public_functions(module):
    """Public plain or cached functions defined in ``module``."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            out[name] = obj
    return out


class Tracer:
    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans = array("d")  # WIDTH entries per span, in FIELDS order
        self.stack: list[list] = []  # [span index, start, child time]
        self.doc = -1
        self.vec_new = 0
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        spans = self.spans

        def traced(*args, **kwargs):
            start = clock()
            idx = len(spans)
            if idx < tracer.cap * WIDTH:
                spans.extend((nid, start, 0.0, stack[-1][0] if stack else -1, tracer.doc))
            else:
                idx = -1
            frame = [idx, start, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - start
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                if idx >= 0:
                    spans[idx + 2] = end
                if stack:
                    stack[-1][2] += dur

        functools.update_wrapper(traced, fn)
        return traced

    def begin_document(self, doc_id: int) -> None:
        # a deadline can interrupt a wrapper between its bookkeeping steps
        del self.stack[:]
        self.doc = doc_id

    # -- installation -------------------------------------------------------

    def install(self, extra_importers=()) -> None:
        mods = {name: m for name, m in list(sys.modules.items())
                if m is not None and (name == "ordertopo" or name.startswith("ordertopo."))}
        targets = {}  # id(original) -> (defining module name, wrapper)
        for layer in LAYERS:
            module = mods.get(f"ordertopo.{layer}")
            if module is None:
                continue
            for fname, fn in public_functions(module).items():
                targets[id(fn)] = (module.__name__, self._wrap(f"{layer}.{fname}", fn))
            for fname in OWN_MODULE.get(layer, ()):
                fn = getattr(module, fname)
                self._patch(module, fname, targets[id(fn)][1])
        for importer in list(mods.values()) + list(extra_importers):
            for name, val in list(vars(importer).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] != importer.__name__:
                    self._patch(importer, name, hit[1])
                elif isinstance(val, dict) and not name.startswith("__"):
                    for key, item in list(val.items()):
                        hit = targets.get(id(item))
                        if hit is not None and hit[0] != importer.__name__:
                            self._restore.append((val.__setitem__, key, item))
                            val[key] = hit[1]
        self._count_vectors(mods["ordertopo.carriers"].Vec)

    def _patch(self, module, name, wrapper) -> None:
        self._restore.append((functools.partial(setattr, module), name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _count_vectors(self, vec_cls) -> None:
        original = vec_cls.__post_init__
        tracer = self

        def counted(vec):
            tracer.vec_new += 1
            return original(vec)

        self._restore.append((functools.partial(setattr, vec_cls), "__post_init__", original))
        vec_cls.__post_init__ = counted

    def uninstall(self) -> None:
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """{span name: [calls, self seconds]} for names that ran."""
        return {name: [calls, self_s] for name, calls, self_s
                in zip(self.names, self.calls, self.self_s) if calls}

    @property
    def span_count(self) -> int:
        return len(self.spans) // WIDTH

    def write(self, path: str) -> None:
        """A JSON header line, then the spans as raw float64 records.

        A span's parent is the array offset of the parent's record, or -1.
        """
        header = {"names": self.names, "spans": self.span_count, "record": list(FIELDS)}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            self.spans.tofile(fh)
