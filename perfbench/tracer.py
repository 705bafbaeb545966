"""Out-of-process-boundary tracing for the dyadlab benchmark.

The tracer wraps every public module-level function of the ``dyadlab``
package and rebinds the wrapper at every binding the package holds: the
defining module's attribute and each ``from ... import`` name in the other
modules.  Calls between package functions therefore pass through the
wrappers, and each call records one span ``(name, start, end, parent, item)``
plus a call count.  Nothing inside the package changes; ``uninstall``
restores the original bindings.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "dyadlab"


class Tracer:
    """Span recorder; install it, run traced work, then read the tables."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._hooks: dict[str, object] = {}
        self._wrappers: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def on_return(self, name: str, hook) -> None:
        """Call ``hook(result, counts)`` after every call of function ``name``
        (``module.function``) so exact counts come from the results."""
        self._hooks[name] = hook

    def install(self) -> None:
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        wrappers = self._wrappers
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = value.__module__ or ""
                if not home.startswith(PACKAGE + ".") or value.__name__.startswith("_"):
                    continue
                key = id(value)
                if key not in wrappers:
                    name = f"{home.split('.', 1)[1]}.{value.__name__}"
                    wrappers[key] = self._wrap(value, name)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[key])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter_ns
        hook = self._hooks.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1] if stack else -1, self.item)
                calls[nid] += 1
            if hook is not None:
                hook(result, counts)
            return result

        return traced

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()

    def call_counts(self) -> dict[str, int]:
        return {self.names[nid]: n for nid, n in self.calls.items()}

    def function_times(self) -> dict[str, tuple[float, float]]:
        """Per function: (inclusive ms, self ms), where self time is the span's
        duration minus the part its child spans cover."""
        child = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl: defaultdict = defaultdict(int)
        own: defaultdict = defaultdict(int)
        for idx, (nid, start, end, parent, _) in enumerate(self.spans):
            # Recursive calls of one function count once in its inclusive time.
            if not self._inside_same(idx, nid):
                incl[nid] += end - start
            own[nid] += end - start - child[idx]
        return {
            self.names[nid]: (incl[nid] / 1e6, own[nid] / 1e6) for nid in own
        }

    def _inside_same(self, idx: int, nid: int) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == nid:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_inclusive_ms(self) -> dict[str, float]:
        """Per layer (module): the time some function of it is on the stack."""
        layer = [name.split(".", 1)[0] for name in self.names]
        out: defaultdict = defaultdict(int)
        for nid, start, end, parent, _ in self.spans:
            while parent >= 0 and layer[self.spans[parent][0]] != layer[nid]:
                parent = self.spans[parent][3]
            if parent < 0:
                out[layer[nid]] += end - start
        return {key: ns / 1e6 for key, ns in out.items()}

    def write_spans(self, path, items: list[str]) -> None:
        """Write the spans as gzipped JSON lines: a header with the function
        names and item labels, then one ``[name, start_ns, end_ns, parent,
        item]`` array per span (``parent`` and ``item`` are indices, -1 for
        none)."""
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write(json.dumps({"names": self.names, "items": items}) + "\n")
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")
