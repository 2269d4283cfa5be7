"""Span tracer that times calls into each relthue module from outside the package.

Every public module-level function of a layer module (plus the few methods
and private helpers in ``EXTRA``) is wrapped, and the wrapper is bound at every
``relthue.*`` module attribute (or class attribute) that holds the same object,
so nested calls such as ``reducer -> solve_abs`` go through it too.  A span
records its name, its caller's name and its duration; the tracer keeps only
per-name aggregates (self time, calls) and per-(caller, callee) call counts,
so memory stays flat however many spans an op makes.  ``installed()`` puts the
wrappers in place and restores every original on exit.

A name that a later refactor removed is listed in ``absent`` instead of raising.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("forms", "quadfield", "rootbounds", "abssolver", "reducer", "theorem", "oracle", "cli")
ROOT = "bench.op"
COUNT_ONLY = "count"

# Traced besides the public module-level functions: name -> span name, or
# COUNT_ONLY for hot calls that are only counted per caller (their time stays
# with the caller).
EXTRA = {
    "forms.BinaryForm.evaluate": COUNT_ONLY,
    "quadfield.QuadraticField.__post_init__": "quadfield.init",
    "quadfield.QuadraticField.evaluate_form": "quadfield.evaluate_form",
    "reducer._verify": "reducer.verify",
}


def _resolve(package: str, dotted: str):
    """(owner, attribute, object) for 'module.attr' or 'module.Class.attr'; None if gone."""
    module_name, *path = dotted.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module_name}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    obj = vars(owner).get(path[-1]) if isinstance(owner, type) else getattr(owner, path[-1], None)
    return None if obj is None else (owner, path[-1], obj)


def public_functions(package: str, layer: str) -> dict[str, object]:
    """Public functions defined in ``package.layer`` (``lru_cache`` wrappers included)."""
    module = importlib.import_module(f"{package}.{layer}")
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    def __init__(self, package: str = "relthue"):
        self._rows: dict[str, list] = {}
        self.edges: Counter[tuple[str | None, str]] = Counter()
        self.counters: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._hooks = {
            "abssolver.solve_abs": (None, self._after_solve_abs),
            "reducer.verify": (None, self._after_verify),
            "reducer.solve_relative": (None, self._after_solve_relative),
            "rootbounds.stable_constants": (self._before_stable, self._after_stable),
        }
        self.traced: set[str] = set()
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._slots = []  # (owner, attribute, original, wrapper)
        self._caches = {}  # span name -> lru_cache original, for its miss count
        for layer in LAYERS:
            try:
                functions = public_functions(package, layer)
            except ImportError:
                self.note_absent(layer)
                continue
            for name, obj in functions.items():
                wrappers[id(obj)] = self._span(obj, name)
                self.traced.add(name)
                if hasattr(obj, "cache_info"):
                    self._caches[name] = obj
        for dotted, span in EXTRA.items():
            resolved = _resolve(package, dotted)
            if resolved is None:
                self.note_absent(dotted)
                continue
            owner, attr, obj = resolved
            name = dotted if span == COUNT_ONLY else span
            wrapper = self._count(obj, name) if span == COUNT_ONLY else self._span(obj, name)
            self.traced.add(name)
            if isinstance(owner, type):
                self._slots.append((owner, attr, obj, wrapper))
            else:
                wrappers[id(obj)] = wrapper
        # Bind each wrapper at every package module attribute that holds its original.
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._slots.append((module, attr, value, wrappers[id(value)]))

    def _span(self, original, name):
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        row = self._rows.setdefault(name, [0.0, 0.0, 0])  # self seconds, inclusive seconds, calls
        before, after = self._hooks.get(name, (None, None))

        def span(*args, **kwargs):
            token = before(original, args, kwargs) if before else None
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                row[0] += duration - frame[1]
                row[1] += duration
                row[2] += 1
                if parent:
                    parent[1] += duration
                    edges[parent[0], name] += 1
                else:
                    edges[None, name] += 1
            if after:
                try:
                    after(token, result)
                except (AttributeError, TypeError):  # the result changed shape in a refactor
                    self.note_absent(f"{name} result")
            return result

        span.__wrapped__ = original
        return span

    def _count(self, original, name):
        stack, edges = self._stack, self.edges

        def counted(*args, **kwargs):
            edges[stack[-1][0] if stack else None, name] += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    @property
    def self_s(self) -> dict[str, float]:
        """Seconds per span name outside its traced callees."""
        return {name: row[0] for name, row in self._rows.items() if row[2]}

    @property
    def incl_s(self) -> dict[str, float]:
        return {name: row[1] for name, row in self._rows.items() if row[2]}

    def _calls(self, name: str) -> int:
        return self._rows.get(name, [0, 0, 0])[2]

    @property
    def calls(self) -> Counter[str]:
        return Counter({name: row[2] for name, row in self._rows.items() if row[2]})

    def note_absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    # Counts taken at the boundary where the work happens.
    def _after_solve_abs(self, _, result):
        self.counters["abssolver.found"] += len(result.solutions)

    def _after_verify(self, _, result):
        self.counters["reducer.verify.accepts"] += result is not None

    def _after_solve_relative(self, _, result):
        self.counters["reducer.solutions"] += len(result.solutions)
        self.counters["reducer.family_solutions"] += sum(1 for sol in result.solutions if sol.value.is_zero)

    def _before_stable(self, original, args, kwargs):
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        return self._calls("rootbounds.refine"), bound.arguments.get("max_halvings")

    def _after_stable(self, token, _):
        refine_before, max_halvings = token
        if max_halvings is None:
            self.note_absent("rootbounds.stable_constants max_halvings")
        elif self._calls("rootbounds.refine") - refine_before >= max_halvings:
            self.counters["rootbounds.gates_unstable"] += 1

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block, then restore the originals."""
        done = []
        try:
            for owner, attr, original, wrapper in self._slots:
                setattr(owner, attr, wrapper)
                done.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(done):
                setattr(owner, attr, original)

    def run_op(self, op):
        """Run ``op()`` as one root span with the wrappers installed; returns (result, seconds)."""
        root = self._span(op, ROOT)
        misses = {name: cached.cache_info().misses for name, cached in self._caches.items()}
        with self.installed():
            start = time.perf_counter()
            result = root()
            seconds = time.perf_counter() - start
        for name, cached in self._caches.items():
            self.counters[f"{name}.misses"] += cached.cache_info().misses - misses[name]
        return result, seconds
