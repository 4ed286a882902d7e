"""Spans around calls into extrapolmv, recorded from outside the package.

The tracer rebinds module attributes to timing wrappers, so the package
carries no instrumentation of its own. Each span is [name, start, end,
parent index]; spans stay in memory until the benchmark writes them out.
The parent of a span is the innermost span still open, which is exact
because the pipeline runs on one thread (the CLI's default).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, module_name: str, attr: str, name: str,
             everywhere: bool = True) -> None:
        """Time every call of ``module_name.attr`` as a span called ``name``.

        With ``everywhere`` the wrapper replaces the function under every
        name it is bound to in the package (so a caller that imported it
        with ``from ... import`` is traced too); otherwise only the one
        binding is replaced. A target that no longer exists is recorded in
        ``absent`` rather than raised, so a refactor cannot break tracing.
        """
        module = sys.modules.get(module_name)
        target = getattr(module, attr, None)
        if not callable(target):
            self.absent.append(f"{name}: {module_name}.{attr} not found")
            return

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return target(*args, **kwargs)
            finally:
                self._close(idx)

        package = module_name.split(".")[0]
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")] \
            if everywhere else [module]
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is target:
                    setattr(m, key, wrapper)
                    self._patched.append((m, key, target))

    def unwrap_all(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def totals(self, lo: int, hi: int):
        """(wall seconds, self seconds, call count) per span name in spans[lo:hi].

        Self time is a span's duration minus that of its direct children.
        """
        child = defaultdict(float)
        for _name, start, end, parent in self.spans[lo:hi]:
            if parent is not None:
                child[parent] += end - start
        wall = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i in range(lo, hi):
            name, start, end, _parent = self.spans[i]
            wall[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return wall, own, calls
