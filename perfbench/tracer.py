"""Per-layer spans around the public functions of the zetalab modules.

A layer is one module of the package; its boundary is every module-level
function without a leading underscore that the module defines.  Because
the modules bind each other's functions with from-imports, each function
is replaced in every zetalab namespace that binds it, and restored when
the tracer is removed.  Names are found by introspection, so functions
that a later version deletes are simply not traced; private helpers are
never wrapped or called.

Self time is a span's duration minus the time its child spans cover,
kept per thread: a worker thread's spans nest only in that thread's
stack, and the time a thread spends waiting on a pool is self time of
its innermost open span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

PACKAGE = "zetalab"
LAYERS = ("cli", "evaluate", "sawtooth", "characters", "coefficients", "bounds", "afe", "gammafn")


class _ThreadStats:
    def __init__(self, thread: threading.Thread):
        self.thread = thread
        self.stack: list[list[float]] = []  # per open span: [time covered by its children]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.root_s = 0.0  # total duration of spans opened with an empty stack
        self.built = 0  # characters returned by the characters layer


class Tracer:
    """Install with `install()`, remove with `remove()` (also on error)."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._used: dict[int, object] = {}  # characters passed into a traced function, this request
        self.useful = 0  # characters used by requests; the harness adds those a listing prints
        self._character_type = None

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")}
        chars = modules.get(f"{PACKAGE}.characters")
        self._character_type = getattr(chars, "DirichletCharacter", None)
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(layer, obj))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def remove(self) -> None:
        while self._patched:
            mod, name, obj = self._patched.pop()
            setattr(mod, name, obj)

    # -- spans --------------------------------------------------------------

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = _ThreadStats(threading.current_thread())
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter
        count_built = layer == "characters"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._stats()
            ctype = self._character_type
            if ctype is not None:
                for a in args:
                    if isinstance(a, ctype):
                        self._used[id(a)] = a
                for a in kwargs.values():
                    if isinstance(a, ctype):
                        self._used[id(a)] = a
            frame = [0.0]
            st.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors[layer] += 1
                raise
            finally:
                dur = clock() - start
                st.stack.pop()
                st.calls[layer] += 1
                st.self_s[layer] += dur - frame[0]
                if st.stack:
                    st.stack[-1][0] += dur
                else:
                    st.root_s += dur
            if count_built and ctype is not None:
                if isinstance(result, ctype):
                    st.built += 1
                elif isinstance(result, (list, tuple)):
                    st.built += sum(1 for c in result if isinstance(c, ctype))
            return result

        return traced

    # -- results ------------------------------------------------------------

    def end_request(self) -> None:
        """Close a request: the characters it passed to traced functions count as useful."""
        self.useful += len(self._used)
        self._used.clear()

    def totals(self) -> dict:
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        errors = dict.fromkeys(LAYERS, 0)
        for st in self._threads:
            for layer in LAYERS:
                calls[layer] += st.calls[layer]
                self_s[layer] += st.self_s[layer]
                errors[layer] += st.errors[layer]
        return {
            "calls": calls,
            "self_s": self_s,
            "errors": errors,
            "built": sum(st.built for st in self._threads),
            "useful": self.useful,
        }

    def thread_self_s(self, thread: threading.Thread) -> tuple[float, float]:
        """(sum of self times, sum of root-span durations) of one thread's spans."""
        for st in self._threads:
            if st.thread is thread:
                return sum(st.self_s.values()), st.root_s
        return 0.0, 0.0
