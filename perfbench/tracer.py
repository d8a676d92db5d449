"""Outside-in layer tracing: spans recorded around the public functions
each layer of ``repro`` exposes, installed by monkey-patching from the
benchmark's own files.  Nothing under ``src/`` knows it is traced.

A span records its name, layer, start, end, parent span and session id.
Spans stay in memory until the run ends.  A layer's self time is the
sum, over its spans, of each span's duration minus the part of that
interval its child spans cover (children may overlap, as client jobs
do under the service's two workers, so the covered part is the union
of the child intervals).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Tuple)


@dataclass
class Span:
    #: unique within one trace; spans merged from worker processes use
    #: ``(worker, id)`` pairs
    id: Hashable
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[Hashable]
    session: Optional[str]

    def to_dict(self) -> dict:
        return self.__dict__.copy()


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.session: Optional[str] = None
        self._stack: List[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, layer: str):
        """Record one span, a child of the innermost open span."""
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, layer, start, end, parent,
                                   self.session))

    def add_span(self, name: str, layer: str, start: float, end: float,
                 parent: Optional[int] = None) -> int:
        """Record a span measured by the caller (asyncio code, where
        spans of concurrent tasks interleave and a stack cannot nest
        them)."""
        self._next_id += 1
        self.spans.append(Span(self._next_id, name, layer, start, end,
                               parent, self.session))
        return self._next_id


# -- self-time arithmetic ---------------------------------------------------

def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of
    ``children`` covers."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in children):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> Dict[Hashable, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[Hashable, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered((s.start, s.end),
                                              children.get(s.id, ()))
            for s in spans}


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return dict(out)


def name_self_times(spans: List[Span]) -> Dict[str, float]:
    """Span name -> summed self time (``ir.verify`` vs ``ir.hash``)."""
    own = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.id]
    return dict(out)


# -- installing the wrappers ------------------------------------------------

def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str,
          after: Optional[Callable] = None,
          before: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``after(args, result, state)`` books the
    counters, where ``state`` is what ``before(args)`` returned."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        with tracer.span(name, layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result, state)
        return result
    return wrapper


class Installation:
    """The set of patches one :func:`install` applied; ``remove`` puts
    every original back."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def _patch_function_everywhere(inst: Installation, fn: Callable,
                               wrapper: Callable) -> None:
    """Rebind every ``repro`` module global that names ``fn`` (functions
    are imported by name into the modules that call them)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                inst.patch(mod, attr, wrapper)


def install(tracer: Tracer) -> Installation:
    """Wrap the public entry points of every layer.  Counters land in
    ``tracer.counts`` under their per-layer metric names."""
    from repro.codegen import compile_kernel, codegen_function
    from repro.frontend import compile_source
    from repro.ir import function_hash, verify_module
    from repro.oraql.cache import VerdictCache
    from repro.oraql.compiler import CompiledProgram, Compiler
    from repro.oraql.driver import ProbingDriver
    from repro.oraql.importance import ImportanceDriver, MeasuredCycleOracle
    from repro.oraql.journal import SessionJournal
    from repro.passes import PassManager

    c = tracer.counts
    inst = Installation()

    def count(key: str) -> Callable:
        def after(args, result, state):
            c[key] += 1
        return after

    def vm_run(args, result, state):
        c["vm.runs"] += 1
        c["vm.instructions"] += result.instructions

    def codegen_counters(args):
        return args[0].codegen_hits, args[0].codegen_misses

    def compiled(args, program, state):
        c["compiler.compiles"] += 1
        c["passes.executions"] += program.pass_executions
        c["codegen.hits"] += args[0].codegen_hits - state[0]
        c["codegen.misses"] += args[0].codegen_misses - state[1]

    def probed(args, report, state):
        c["driver.tests_run"] += report.tests_run
        c["driver.reused"] += report.tests_cached + report.tests_deduced
        c["executor.retries"] += report.retries
        c["executor.nondet_reruns"] += report.nondet_reruns

    def cache_get(args, result, state):
        c["cache.gets"] += 1
        c["cache.hits"] += result is not None

    def measured(args, m, state):
        c["importance.measurements"] += 1
        c["importance.measure_reused"] += m.from_cache

    methods = [
        (CompiledProgram, "run", "vm.run", "vm", vm_run),
        (Compiler, "compile", "compiler.compile", "compiler", compiled,
         codegen_counters),
        (PassManager, "run", "passes.run", "passes", count("passes.calls")),
        (ProbingDriver, "run", "driver.run", "driver", probed),
        (ImportanceDriver, "run", "importance.run", "importance", None),
        (MeasuredCycleOracle, "measure", "importance.measure", "importance",
         measured),
        (VerdictCache, "__init__", "cache.load", "cache", None),
        (VerdictCache, "get", "cache.get", "cache", cache_get),
        (VerdictCache, "get_record", "cache.get", "cache", cache_get),
        (VerdictCache, "put", "cache.put", "cache", None),
        (VerdictCache, "refresh", "cache.refresh", "cache", None),
        (SessionJournal, "__init__", "journal.open", "journal", None),
    ]
    for rec in ("record_probe", "record_measure", "record_done"):
        methods.append((SessionJournal, rec, "journal." + rec, "journal",
                        count("journal.appends")))
    for owner, attr, name, layer, *hooks in methods:
        inst.patch(owner, attr,
                   _wrap(tracer, getattr(owner, attr), name, layer, *hooks))

    functions = [
        (compile_source, "frontend.compile_source", "frontend",
         count("frontend.calls")),
        (verify_module, "ir.verify", "ir", None),
        (function_hash, "ir.hash", "ir", None),
        (codegen_function, "codegen.function", "codegen", None),
        (compile_kernel, "codegen.kernel", "codegen", None),
    ]
    for fn, name, layer, after in functions:
        _patch_function_everywhere(inst, fn,
                                   _wrap(tracer, fn, name, layer, after))
    return inst
