"""Span tracing installed from outside the library.

A `Tracer` replaces chosen library callables with wrappers that record one
span per call: name, start, end, parent span and the step the call ran in.
`active(step)` swaps the wrappers in for one block, so traced and untraced
steps can alternate in one run.  Spans stay in memory until
`write` dumps them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path


def resolve(owner, attr):
    """(stored attribute, underlying function, span name) of a target."""
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    fn = raw.__func__ if isinstance(raw, classmethod) else raw
    return raw, fn, f"{fn.__module__}.{fn.__qualname__}"


class Tracer:
    def __init__(self, targets):
        """`targets` holds (owner, attribute) pairs: a class and the name
        of a method or classmethod on it, or a module and the name of a
        function.  A module function is patched in every loaded module of
        the same package that binds it, so calls made through
        `from .lwe import keygen` are traced as well."""
        self.spans = []         # [name, start, end, parent index, step]
        self.step = None        # step id stamped on every new span
        self._stack = []
        self._sites = []        # (object, attribute, original, wrapper)
        self.names = []
        for owner, attr in targets:
            raw, fn, name = resolve(owner, attr)
            wrapped = self._wrap(name, fn)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._sites.append((owner, attr, raw, wrapped))
            else:
                package = owner.__name__.partition(".")[0]
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name.partition(".")[0] == package
                            and vars(mod).get(attr) is fn):
                        self._sites.append((mod, attr, fn, wrapped))
            self.names.append(name)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self):
        for obj, attr, _, wrapped in self._sites:
            setattr(obj, attr, wrapped)

    def uninstall(self):
        for obj, attr, original, _ in self._sites:
            setattr(obj, attr, original)

    @contextlib.contextmanager
    def active(self, step):
        """Trace the calls made inside the block, stamped with `step`."""
        self.step = step
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def self_times(self):
        """Per span: its duration minus the durations of its child spans."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def silent(self):
        """Names of installed spans that recorded no call."""
        called = {span[0] for span in self.spans}
        return [name for name in self.names if name not in called]

    def write(self, path, meta):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent", "step"],
                       "spans": self.spans}, fh)
