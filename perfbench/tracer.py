"""Outside-in tracer for the opdual package.

`Tracer.install()` replaces the public functions and methods of every
traced module with wrappers, and rebinds every alias of them that other
`opdual.*` modules imported (`koszul.bar`, `cli.verify_kk`, the `cubes`
names imported into `barcobar`, ...). Nothing under `src/` is edited.

Two kinds of wrapper:

* a *span* times each call and attributes it to its layer (the module
  the function is defined in). Per function it keeps the call count, the
  inclusive time and the self time (inclusive time minus the time of the
  spans nested in it). The outermost spans are also kept one by one,
  with start, end and parent, for a timeline;
* a *counter* only counts calls. Hot leaf operations (field arithmetic,
  `Matrix.add_entry`, `Matrix.column`, tree accessors, ...) run millions
  of times per run, so they get counters and no spans; their time lands
  in the innermost enclosing span.

`dump()` returns the collected data as a JSON-ready dict (schema
`SCHEMA`), and `layer_metrics(dump)` derives the benchmark's per-layer
metrics from such a dump.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from fractions import Fraction

SCHEMA = "perfbench.trace/1"

LAYERS = ("cli", "koszul", "barcobar", "operads", "cubes", "trees",
          "chain", "linalg", "fields")

# Dunder methods that do real work and are worth a wrapper. Hashing,
# equality and item access are left alone: the tracer itself hashes trees.
_DUNDERS = ("__init__", "__matmul__", "__add__", "__sub__", "__neg__")

# Called 10^5 to 10^7 times per run and cheap each time: counted only.
COUNT_ONLY = {
    "linalg.Matrix.__init__", "linalg.Matrix.add_entry",
    "linalg.Matrix.column", "linalg.Matrix.columns",
    "linalg.Matrix.set_column", "linalg.Matrix.scale", "linalg.Matrix.copy",
    "linalg.Matrix.transpose", "linalg.Matrix.is_zero",
    "linalg.Matrix.zero", "linalg.Matrix.identity",
    "linalg.Eliminator.add", "linalg.Eliminator.reduce",
    "chain.ChainComplex.dim", "chain.ChainComplex.index",
    "chain.ChainComplex.d_matrix", "chain.ChainComplex.degrees",
    "chain.ChainComplex.dims", "chain.ChainComplex.total_dim",
    "chain.ChainComplex.boundary_of", "chain.ChainMap.matrix",
    "chain.ChainMap.apply", "chain.koszul_sign",
    "operads.SymSeq.term", "operads.SymSeq.tree_complex",
    "operads.SymSeq.sigma_adj", "trees.cluster_key",
}
# Every method of these classes is counted only.
COUNT_ONLY_CLASSES = {"trees.Tree", "fields.Field"}

# Field operations whose results are inspected for `fields.nonint_share`.
FIELD_OPS = ("of", "add", "sub", "mul", "neg", "inv")

SPAN_DEPTH = 4          # spans this shallow are kept one by one
SPAN_LIMIT = 20000      # ... up to this many


def _perm_key(sigma):
    return tuple(sorted(sigma.items())) if isinstance(sigma, dict) \
        else tuple(sigma)


# Functions whose distinct argument keys are counted, and how to key them.
# The instance is keyed by id(); `Tracer` keeps instances alive so that
# ids are not reused within a run.
DISTINCT = {
    "operads.SymSeq.tree_relabel":
        lambda a, k: (id(a[0]), a[1], _perm_key(a[2])),
    "operads.Operad.contract_map": lambda a, k: (id(a[0]), a[1], a[2]),
    "cubes.theta_cells": lambda a, k: (a[0], a[1], a[2]),
}


def opdual_modules():
    """Every module of the opdual package, imported."""
    pkg = importlib.import_module("opdual")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__, "opdual."):
        mods.append(importlib.import_module(info.name))
    return mods


def _targets(mod):
    """(owner, attribute, qualified name, callable, kind) for each public
    function and method defined in a traced module. kind is "function",
    "method", "classmethod" or "staticmethod"."""
    layer = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for mname, raw in sorted(vars(obj).items()):
                if mname.startswith("_") and mname not in _DUNDERS:
                    continue
                q = f"{layer}.{name}.{mname}"
                if isinstance(raw, classmethod):
                    yield obj, mname, q, raw.__func__, "classmethod"
                elif isinstance(raw, staticmethod):
                    yield obj, mname, q, raw.__func__, "staticmethod"
                elif inspect.isfunction(raw):
                    yield obj, mname, q, raw, "method"
        elif callable(obj) and not inspect.isclass(obj) \
                and getattr(obj, "__module__", None) == mod.__name__:
            # plain functions and lru_cache wrappers
            yield mod, name, f"{layer}.{name}", obj, "function"


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.functions = {}    # qualified name -> [calls, total_s, self_s]
        self.counters = {}     # qualified name -> [calls]
        self.distinct = {}     # qualified name -> set of argument keys
        self.field_stats = [0, 0]   # [ops inspected, non-integral results]
        self.basis_built = [0]
        self.spans = []        # [name, parent index, start_s, end_s]
        self._stack = [0.0]    # child-span time of each open span
        self._open = [None]    # index in self.spans of each open span
        self._patches = []     # (owner, attribute, original raw value)
        self._originals = {}   # id(original callable) -> wrapper
        self._keep = []        # instances keyed by id() in `distinct`

    # -- wrappers ---------------------------------------------------------

    def _span(self, q, fn):
        st = self.functions.setdefault(q, [0, 0.0, 0.0])
        stack, opened, spans = self._stack, self._open, self.spans
        t0 = self.t0
        keyf = DISTINCT.get(q)
        seen = self.distinct.setdefault(q, set()) if keyf else None
        keep = self._keep
        post = self._post_complex if q == "chain.ChainComplex.__init__" \
            else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if seen is not None:
                key = keyf(args, kwargs)
                if key not in seen:
                    seen.add(key)
                    keep.append(args[0])
            sid = None
            if len(stack) <= SPAN_DEPTH and len(spans) < SPAN_LIMIT:
                sid = len(spans)
                spans.append([q, opened[-1], 0.0, 0.0])
            opened.append(sid)
            stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(args[0])
                return out
            finally:
                end = time.perf_counter()
                dt = end - start
                child = stack.pop()
                opened.pop()
                stack[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                if sid is not None:
                    spans[sid][2] = start - t0
                    spans[sid][3] = end - t0
        return span

    def _post_complex(self, c):
        self.basis_built[0] += len(c.label_degree)

    def _counter(self, q, fn):
        ctr = self.counters.setdefault(q, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ctr[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _field_op(self, q, fn):
        ctr = self.counters.setdefault(q, [0])
        fs = self.field_stats

        @functools.wraps(fn)
        def counted(*args):
            ctr[0] += 1
            out = fn(*args)
            fs[0] += 1
            if out.__class__ is Fraction and out.denominator != 1:
                fs[1] += 1
            return out
        return counted

    def _wrap(self, q, fn):
        cls = q.rsplit(".", 1)[0]
        if cls == "fields.Field" and q.rsplit(".", 1)[1] in FIELD_OPS:
            return self._field_op(q, fn)
        if q in COUNT_ONLY or cls in COUNT_ONLY_CLASSES \
                or inspect.isgeneratorfunction(fn):
            return self._counter(q, fn)
        return self._span(q, fn)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        mods = opdual_modules()
        for mod in mods:
            if mod.__name__.rsplit(".", 1)[-1] not in LAYERS:
                continue
            for owner, attr, q, fn, kind in list(_targets(mod)):
                w = self._wrap(q, fn)
                raw = vars(owner)[attr]
                if kind == "classmethod":
                    new = classmethod(w)
                elif kind == "staticmethod":
                    new = staticmethod(w)
                else:
                    new = w
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                if kind == "function":
                    self._originals[id(fn)] = (fn, w)
        # rebind aliases: `from .x import f` made separate bindings
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = self._originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def wrapped(self):
        """The original callables that were replaced, by identity."""
        return {k: v[0] for k, v in self._originals.items()}

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        layers = {}
        for q, (calls, total, self_s) in self.functions.items():
            lay = layers.setdefault(q.split(".", 1)[0],
                                    {"calls": 0, "self_s": 0.0})
            lay["calls"] += calls
            lay["self_s"] += self_s
        counters = {q: c[0] for q, c in self.counters.items()}
        counters["chain.basis_built"] = self.basis_built[0]
        counters["fields.ops"] = self.field_stats[0]
        counters["fields.nonint"] = self.field_stats[1]
        return {
            "schema": SCHEMA,
            "elapsed_s": time.perf_counter() - self.t0,
            "functions": {q: {"calls": c, "total_s": t, "self_s": s}
                          for q, (c, t, s) in sorted(self.functions.items())
                          if c},
            "counters": dict(sorted(counters.items())),
            "distinct": {q: len(s) for q, s in sorted(self.distinct.items())},
            "layers": dict(sorted(layers.items())),
            "spans": [{"name": n, "parent": p, "start_s": a, "end_s": b}
                      for n, p, a, b in self.spans],
        }


# -- per-layer metrics ----------------------------------------------------

def _calls(dump, q):
    f = dump["functions"].get(q)
    return f["calls"] if f else dump["counters"].get(q, 0)


def _total(dump, q):
    f = dump["functions"].get(q)
    return f["total_s"] if f else 0.0


def _self(dump, layer):
    return dump["layers"].get(layer, {}).get("self_s", 0.0)


def layer_metrics(dump) -> dict:
    """Per-layer metric name -> (value, unit), from one trace dump."""
    c = dump["counters"]
    ops = c["fields.ops"]
    m = {
        "cli.select_operad_s": _total(dump, "cli.select_operad"),
        "cli.emit_s": _total(dump, "cli.emit"),
        "operads.self_s": _self(dump, "operads"),
        "operads.tree_relabel_calls":
            _calls(dump, "operads.SymSeq.tree_relabel"),
        "operads.tree_relabel_distinct":
            dump["distinct"].get("operads.SymSeq.tree_relabel", 0),
        "operads.contract_map_calls":
            _calls(dump, "operads.Operad.contract_map"),
        "operads.contract_map_distinct":
            dump["distinct"].get("operads.Operad.contract_map", 0),
        "operads.circ_calls": _calls(dump, "operads.Operad.circ"),
        "operads.axioms_s": _total(dump, "operads.check_operad_axioms"),
        "chain.self_s": _self(dump, "chain"),
        "chain.complexes_built": _calls(dump, "chain.ChainComplex.__init__"),
        "chain.maps_built": _calls(dump, "chain.ChainMap.__init__"),
        "chain.basis_built": c["chain.basis_built"],
        "chain.verify_s": _total(dump, "chain.ChainMap.verify"),
        "chain.is_iso_calls": _calls(dump, "chain.ChainMap.is_iso"),
        "linalg.self_s": _self(dump, "linalg"),
        "linalg.matmul_calls": _calls(dump, "linalg.Matrix.__matmul__"),
        "linalg.column_calls": _calls(dump, "linalg.Matrix.column"),
        "linalg.rank_calls": _calls(dump, "linalg.Matrix.rank"),
        "linalg.elim_columns": _calls(dump, "linalg.Eliminator.add"),
        "fields.ops": ops,
        "fields.inv_calls": _calls(dump, "fields.Field.inv"),
        "fields.nonint_share": c["fields.nonint"] / ops if ops else 0.0,
        "trees.self_s": _self(dump, "trees"),
        "trees.enumerate_calls": _calls(dump, "trees.enumerate_trees"),
        "cubes.self_s": _self(dump, "cubes"),
        "cubes.theta_cells_calls": _calls(dump, "cubes.theta_cells"),
        "cubes.theta_cells_distinct":
            dump["distinct"].get("cubes.theta_cells", 0),
        "barcobar.self_s": _self(dump, "barcobar"),
        "barcobar.bar_calls": _calls(dump, "barcobar.bar"),
        "barcobar.bar_s": _total(dump, "barcobar.bar"),
        "barcobar.cobar_s": _total(dump, "barcobar.cobar"),
        "barcobar.theta_s": _total(dump, "barcobar.theta"),
        "barcobar.theta_star_s": _total(dump, "barcobar.theta_star"),
        "koszul.self_s": _self(dump, "koszul"),
        "koszul.kp_iso_s": _total(dump, "koszul.kp_iso"),
        "koszul.cb_to_kk_s": _total(dump, "koszul.cb_to_kk"),
    }
    return {k: (v, "s" if k.endswith("_s") else
                "share" if k.endswith("_share") else "count")
            for k, v in m.items()}
