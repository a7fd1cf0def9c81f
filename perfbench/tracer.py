"""Outside-in span tracer for the ncerg layers.

The tracer never edits the package.  It replaces bindings from the outside
and puts every one of them back on exit:

* a module-level function is replaced in *every* ``ncerg.*`` module that
  binds it, because modules import each other's functions by name
  (``bau`` binds ``spectral_resolution``, ``experiments`` binds
  ``maximal_projection``, ``cli`` binds ``emit_plot_data``);
* a method is replaced on its class, and on any subclass that overrides it;
* a suite is replaced in the ``experiments._SUITES`` dispatch table.

Each call records one span (name, start, end, parent) in per-thread arrays.
After an invocation, :meth:`Tracer.collect` reduces the spans to calls,
self time (span minus the spans of its direct children) and total time
(outermost spans of a name only, so recursion is not counted twice), plus
the counters the probes gather.  A target that the program no longer has is
reported through ``missing`` and reads as zero.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from array import array

import numpy as np

SUITES = (
    "validate-semigroup",
    "local-avg",
    "sandwich",
    "maximal",
    "weighted-avg",
    "besicovitch",
    "banach-check",
)


def _probe_nodes(counters, args, kwargs, result):
    ts = kwargs["ts"] if "ts" in kwargs else args[1]
    counters["nodes"] = counters.get("nodes", 0) + int(np.size(ts))


def _probe_distinct_t(counters, args, kwargs, result):
    t = kwargs["t"] if "t" in kwargs else args[1]
    # The propagator cache lives on the instance, so a (instance, t) pair is
    # what a cache miss is keyed on.
    counters.setdefault("seen_t", set()).add((id(args[0]), float(t)))


def _probe_quadrature(counters, args, kwargs, result):
    counters["refinements"] = counters.get("refinements", 0) + int(result.refinements)
    counters["max_error"] = max(counters.get("max_error", 0.0), float(result.error))


# (metric prefix, module, attribute path, stats to report, probe)
# An attribute path "Class.method" names a method; "_SUITES[name]" a suite.
TARGETS = (
    ("semigroups.propagate_stack", "ncerg.semigroups", "Semigroup.propagate_stack",
     ("calls", "nodes", "self_s"), _probe_nodes),
    ("semigroups.propagator", "ncerg.semigroups", "GeneratorExp.propagator",
     ("calls", "distinct_t", "hit_ratio", "self_s"), _probe_distinct_t),
    ("semigroups.validate_absolute_contraction", "ncerg.semigroups",
     "validate_absolute_contraction", ("total_s",), None),
    ("semigroups.choi_blocks", "ncerg.semigroups", "choi_blocks",
     ("calls", "self_s"), None),
    ("averaging.integrate_flow", "ncerg.averaging", "integrate_flow",
     ("calls", "refinements", "max_error", "self_s"), _probe_quadrature),
    ("averaging.integrate_scalar", "ncerg.averaging", "integrate_scalar",
     ("calls", "self_s"), None),
    ("algebra.norm_inf", "ncerg.algebra", "Operator.norm_inf", ("calls", "self_s"), None),
    ("algebra.Projection", "ncerg.algebra", "Projection.__init__", ("calls", "self_s"), None),
    ("algebra.spectral_resolution", "ncerg.algebra", "spectral_resolution",
     ("calls", "self_s"), None),
    ("algebra.spectral_projection", "ncerg.algebra", "spectral_projection",
     ("calls", "self_s"), None),
    ("algebra.proj_meet", "ncerg.algebra", "proj_meet", ("calls", "self_s"), None),
    ("algebra.meet_all", "ncerg.algebra", "meet_all", ("calls", "self_s"), None),
    ("algebra.pnorm", "ncerg.algebra", "pnorm", ("calls", "self_s"), None),
    ("algebra.abs_value", "ncerg.algebra", "abs_value", ("calls", "self_s"), None),
    ("bau.maximal_projection", "ncerg.bau", "maximal_projection",
     ("calls", "self_s", "total_s"), None),
    ("bau.bau_cauchy_certify", "ncerg.bau", "bau_cauchy_certify",
     ("calls", "self_s", "total_s"), None),
    ("bau.double_average_certificate", "ncerg.bau", "double_average_certificate",
     ("calls", "self_s", "total_s"), None),
    ("bau.perturbation_transfer", "ncerg.bau", "perturbation_transfer",
     ("calls", "self_s", "total_s"), None),
    ("banach.assemble_certificate", "ncerg.banach", "assemble_certificate",
     ("self_s", "total_s"), None),
    ("banach.replay", "ncerg.banach", "AssemblyCertificate.replay", ("total_s",), None),
    *(
        (f"experiments.suite.{s}", "ncerg.experiments", f"_SUITES[{s}]", ("total_s",), None)
        for s in SUITES
    ),
    ("experiments.emit_plot_data", "ncerg.experiments", "emit_plot_data",
     ("total_s",), None),
)

UNITS = {
    "calls": "count",
    "nodes": "count",
    "distinct_t": "count",
    "refinements": "count",
    "hit_ratio": "ratio",
    "max_error": "rel",
    "self_s": "s",
    "total_s": "s",
}

# Stats that depend only on the inputs; two traced invocations of one
# config must agree on them exactly.
COUNT_STATS = ("calls", "nodes", "distinct_t", "hit_ratio", "refinements", "max_error")


def metrics() -> list[tuple[str, str, str]]:
    """(target prefix, stat, unit) of every per-layer metric a traced run reports."""
    return [(prefix, stat, UNITS[stat]) for prefix, _, _, stats, _ in TARGETS for stat in stats]


def locate(module_name: str, path: str) -> tuple[str, object, str, object] | None:
    """(kind, owner, key, function) of the binding a target names; None if it is gone."""
    module = importlib.import_module(module_name)
    if path.endswith("]"):
        table, key = path[:-1].split("[")
        owner = getattr(module, table, None)
        if isinstance(owner, dict) and key in owner:
            return "item", owner, key, owner[key]
    elif "." in path:
        cls_name, key = path.split(".")
        owner = getattr(module, cls_name, None)
        if isinstance(owner, type) and key in vars(owner):
            return "class", owner, key, vars(owner)[key]
    elif callable(getattr(module, path, None)):
        return "module", module, path, getattr(module, path)
    return None


def resolve(module_name: str, path: str):
    """The function a target names, or None when the program has no such thing."""
    where = locate(module_name, path)
    return where[3] if where else None


class _ThreadSpans:
    __slots__ = ("names", "parents", "outer", "starts", "ends", "stack", "open")

    def __init__(self, n_names: int):
        self.names = array("i")
        self.parents = array("i")
        self.outer = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.open = [0] * n_names


class Tracer:
    """Records spans around the targets while :meth:`installed` is active."""

    def __init__(self):
        self.counters: list[dict] = [{} for _ in TARGETS]
        self.missing: list[str] = []
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._threads_lock = threading.Lock()
        self._restore: list[tuple[str, object, object, object]] = []

    # -- recording ----------------------------------------------------------
    def _thread_spans(self) -> _ThreadSpans:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = _ThreadSpans(len(TARGETS))
            self._local.rec = rec
            with self._threads_lock:
                self._threads.append(rec)
        return rec

    def _wrap(self, nid: int, fn, probe):
        thread_spans = self._thread_spans
        counters = self.counters[nid]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = thread_spans()
            idx = len(rec.starts)
            stack = rec.stack
            rec.names.append(nid)
            rec.parents.append(stack[-1] if stack else -1)
            rec.outer.append(rec.open[nid] == 0)
            rec.ends.append(0.0)
            rec.open[nid] += 1
            stack.append(idx)
            rec.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.ends[idx] = clock()
                stack.pop()
                rec.open[nid] -= 1
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        traced.__perfbench_traced__ = True
        return traced

    def reset(self) -> None:
        """Drop the spans and counters recorded so far."""
        with self._threads_lock:
            for rec in self._threads:
                for arr in (rec.names, rec.parents, rec.outer, rec.starts, rec.ends):
                    del arr[:]
        for c in self.counters:
            c.clear()

    # -- installation -------------------------------------------------------
    def _bind(self, kind, owner, key, value) -> None:
        if kind == "item":
            old = owner[key]
            owner[key] = value
        else:
            old = owner.__dict__[key] if kind == "class" else getattr(owner, key)
            setattr(owner, key, value)
        self._restore.append((kind, owner, key, old))

    def _install_one(self, nid: int, module_name: str, path: str, probe) -> bool:
        where = locate(module_name, path)
        if where is None:
            return False
        kind, owner, key, fn = where
        wrapper = self._wrap(nid, fn, probe)
        if kind == "class":
            classes = [owner]
            for sub in classes:  # grows while iterating: every subclass
                classes.extend(s for s in sub.__subclasses__() if s not in classes)
            for cls in classes:
                own = cls.__dict__.get(key)
                if own is not None:
                    self._bind("class", cls, key, wrapper if own is fn else self._wrap(nid, own, probe))
            return True
        if kind == "item":
            self._bind("item", owner, key, wrapper)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "ncerg" and not name.startswith("ncerg."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._bind("module", mod, attr, wrapper)
        return True

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        try:
            for nid, (prefix, module, path, _, probe) in enumerate(TARGETS):
                if not self._install_one(nid, module, path, probe):
                    self.missing.append(prefix)
            yield self
        finally:
            while self._restore:
                kind, owner, key, old = self._restore.pop()
                if kind == "item":
                    owner[key] = old
                else:
                    setattr(owner, key, old)

    # -- reduction ----------------------------------------------------------
    def collect(self) -> dict[str, dict[str, float]]:
        """Every stat of every target, over the spans since the last reset."""
        n = len(TARGETS)
        calls = np.zeros(n)
        self_s = np.zeros(n)
        total_s = np.zeros(n)
        with self._threads_lock:
            threads = list(self._threads)
        for rec in threads:
            if not len(rec.starts):
                continue
            # np.array copies, so the arrays stay resizable afterwards.
            names = np.array(rec.names, dtype=np.intp)
            parents = np.array(rec.parents, dtype=np.intp)
            outer = np.array(rec.outer, dtype=bool)
            dur = np.array(rec.ends) - np.array(rec.starts)
            nested = parents >= 0
            child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
            calls += np.bincount(names, minlength=n)
            self_s += np.bincount(names, weights=dur - child, minlength=n)
            total_s += np.bincount(names, weights=np.where(outer, dur, 0.0), minlength=n)
        out = {}
        for nid, (prefix, _, _, _, _) in enumerate(TARGETS):
            c = self.counters[nid]
            distinct = len(c.get("seen_t", ()))
            out[prefix] = {
                "calls": int(calls[nid]),
                "self_s": float(self_s[nid]),
                "total_s": float(total_s[nid]),
                "nodes": c.get("nodes", 0),
                "distinct_t": distinct,
                "hit_ratio": float(1.0 - distinct / calls[nid]) if calls[nid] else 0.0,
                "refinements": c.get("refinements", 0),
                "max_error": c.get("max_error", 0.0),
            }
        return out
