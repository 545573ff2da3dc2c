"""In-memory span recorder for the traced run.

The tracer wraps the public functions that form each layer's boundary
(``AdmissionQueue.admit``, ``IvfIndex.search``, ``Tensor.backward``, ...)
from the benchmark's own files: :meth:`Tracer.wrap` replaces the attribute
on its owner with a wrapper that records one span per call and restores
the original when the tracer is uninstalled.  The program itself is not
edited and, in an untraced run, not touched at all.

A span is ``(id, parent, name, group, start_ns, end_ns, attrs)``.  The
parent is the innermost span open when the call began, so nesting follows
the call stack; ``group`` is the id of the unit of work the benchmark was
driving at the time (one request, one online cycle, one panel pass), so
spans of one request share it.  Spans stay in memory and are written out
once, by :meth:`Tracer.dump`, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    """Records nested wall-clock spans around wrapped callables."""

    def __init__(self) -> None:
        #: ``[id, parent, name, group, start_ns, end_ns, attrs]`` per span.
        self.spans: list[list] = []
        self.group: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> list:
        span = [
            len(self.spans),
            self._stack[-1] if self._stack else None,
            name,
            self.group,
            time.perf_counter_ns(),
            None,
            None,
        ]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self._stack.pop()

    def traced(
        self,
        func: Callable,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``func`` wrapped to record a ``name`` span per call.

        ``before(args, kwargs)`` and ``after(result)`` may each return a
        dict of attributes stored on the span; ``before`` runs ahead of
        the call and outside the span's interval.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else None
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                attrs = {**(attrs or {}), **after(result)}
            span[6] = attrs
            return result

        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) by a
        traced wrapper until :meth:`uninstall`."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.traced(raw.__func__, name, before, after))
        else:
            new = self.traced(raw, name, before, after)
        had_own = attr in vars(owner)
        self._restore.append((owner, attr, raw if had_own else None))
        setattr(owner, attr, new)

    def wrap_function_everywhere(self, func: Callable, name: str) -> None:
        """Trace ``func`` under every ``repro`` module name bound to it.

        A ``from x import f`` copies the binding, so a module-level
        function has to be replaced in each importing module.
        """
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.wrap(module, attr, name)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def closed(self) -> list[list]:
        return [s for s in self.spans if s[5] is not None]

    def self_times_ns(self) -> dict[int, int]:
        """Span id -> duration minus the time its direct children cover.

        Calls here are single-threaded, so children nest strictly inside
        their parent and never overlap each other.
        """
        covered: dict[int, int] = defaultdict(int)
        for span in self.closed():
            if span[1] is not None:
                covered[span[1]] += span[5] - span[4]
        return {
            s[0]: (s[5] - s[4]) - covered.get(s[0], 0) for s in self.closed()
        }

    def root_of(self) -> dict[int, int]:
        """Span id -> id of its outermost ancestor (itself for roots)."""
        roots: dict[int, int] = {}
        for span in self.spans:  # parents are recorded before children
            parent = span[1]
            roots[span[0]] = span[0] if parent is None else roots[parent]
        return roots

    def dump(self, path: Path, meta: dict) -> None:
        """Write every closed span as JSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {
                "id": s[0],
                "parent": s[1],
                "name": s[2],
                "group": s[3],
                "start_ns": s[4],
                "end_ns": s[5],
                **({"attrs": s[6]} if s[6] else {}),
            }
            for s in self.closed()
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)
