"""Span tracing installed around isospec's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules (and
the cut methods of `MarkovChain`, plus the private minimizer `_minimize`) by a
wrapper that records a span: its name, its parent span, the benchmark
operation it belongs to, and its start and end.  The wrapper is bound in every
`isospec` module namespace that held the original, so calls through
`from .x import f` imports are traced too.  Generator functions get one span
per resumption.  Nothing under `src/` is edited.

Spans are kept in memory (compact arrays) and written out once, at the end.
Self time (a span's duration minus the time its child spans cover) and call
counts are accumulated on the fly for spans inside timed operations.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "documents", "chains", "isoperimetry", "spectral", "homomorphism", "reports")
CUT_METHODS = ("boundary_ratio", "directed_boundary", "pi_mass", "inflow", "trace")
ENUMERATION = ("onto_homomorphisms", "iter_homomorphisms", "validate_hom", "no_hom_search")
CHAIN_BUILDERS = (
    "build_chain", "natural_walk", "lazy_max_degree_kernel", "explicit_chain",
    "reversibilize", "solve_stationary_exact", "solve_stationary_float",
)
# counted, not timed: its time stays in its callers' self time
COUNT_ONLY = ("isoperimetry.validate_positive_family",)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.ids = array("q")
        self.parents = array("q")
        self.op_ids = array("q")
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._next_id = 0
        self._stack = []          # [span id, child time] per open span
        self.op = -1              # current operation, -1 outside timed ops
        self.self_s = {}          # name -> self seconds inside ops
        self.calls = {}           # name -> calls inside ops
        self.families = 0         # families examined by the minimizer inside ops

    # -- span bookkeeping -----------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0])
        return sid, parent

    def _close(self, name, nid, sid, parent, start):
        end = perf_counter()
        _, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.ids.append(sid)
        self.parents.append(parent)
        self.op_ids.append(self.op)
        self.name_ids.append(nid)
        self.starts.append(start)
        self.ends.append(end)
        if self.op >= 0:
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
            self.calls[name] = self.calls.get(name, 0) + 1

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span called name (used for the operation root)."""
        nid = self._name_id(name)
        sid, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(name, nid, sid, parent, start)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        tracer = self
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, nid, sid, parent, start)

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name, fn):
        tracer = self
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid, parent = tracer._open()
                start = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close(name, nid, sid, parent, start)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op >= 0:
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _minimizer(self, fn):
        tracer = self
        exact_id = self._name_id("isoperimetry._minimize[exact]")
        float_id = self._name_id("isoperimetry._minimize[float]")

        def wrapper(chain, *args, **kwargs):
            name, nid = (
                ("isoperimetry._minimize[exact]", exact_id)
                if chain.exact
                else ("isoperimetry._minimize[float]", float_id)
            )
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                out = fn(chain, *args, **kwargs)
            finally:
                tracer._close(name, nid, sid, parent, start)
            if tracer.op >= 0:
                tracer.families += out[2]
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the traced layers of the already imported isospec package."""
        import isospec

        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"isospec.{layer}"]
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr == "_minimize":
                    replaced[obj] = self._minimizer(obj)
                elif attr.startswith("_"):
                    continue
                elif name in COUNT_ONLY:
                    replaced[obj] = self._counted(name, obj)
                elif inspect.isgeneratorfunction(obj):
                    replaced[obj] = self._generator(name, obj)
                else:
                    replaced[obj] = self._timed(name, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name == "isospec" or module_name.startswith("isospec."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])
        chain_cls = isospec.chains.MarkovChain
        for attr in CUT_METHODS:
            setattr(chain_cls, attr, self._timed(f"chains.MarkovChain.{attr}", getattr(chain_cls, attr)))

    # -- results --------------------------------------------------------------

    def _self_ms(self, predicate):
        return 1000.0 * sum(s for name, s in self.self_s.items() if predicate(name))

    def metrics(self, ops, gc_collections):
        """Per-layer metrics over the timed operations, each per operation."""
        ops = max(ops, 1)

        def per_op_ms(predicate):
            return self._self_ms(predicate) / ops

        def named(*names):
            return lambda name: name in names

        def calls(name):
            return self.calls.get(name, 0) / ops

        minimize_total_ms = self._self_ms(lambda n: n.startswith("isoperimetry._minimize["))
        return {
            "cli.run_self_ms": per_op_ms(lambda n: n.startswith("cli.")),
            "documents.parse_ms": per_op_ms(lambda n: n.startswith("documents.")),
            "reports.canonical_json_ms": per_op_ms(lambda n: n.startswith("reports.")),
            "chains.build_chain_ms": per_op_ms(named(*(f"chains.{f}" for f in CHAIN_BUILDERS))),
            "chains.boundary_ratio_ms": per_op_ms(
                named(*(f"chains.MarkovChain.{m}" for m in CUT_METHODS))
            ),
            "chains.boundary_ratio_calls": calls("chains.MarkovChain.boundary_ratio"),
            "isoperimetry.minimize_ms": per_op_ms(named("isoperimetry._minimize[exact]")),
            "isoperimetry.minimize_float_ms": per_op_ms(named("isoperimetry._minimize[float]")),
            "isoperimetry.families_examined": self.families / ops,
            "isoperimetry.families_per_ms": (
                self.families / minimize_total_ms if minimize_total_ms else 0.0
            ),
            "isoperimetry.isoperimetric_constant_calls": calls("isoperimetry.isoperimetric_constant"),
            "isoperimetry.random_positive_family_ms": per_op_ms(
                named("isoperimetry.random_positive_family")
            ),
            "isoperimetry.gamma_objective_ms": per_op_ms(named("isoperimetry.gamma_objective")),
            "isoperimetry.level_set_rounding_ms": per_op_ms(named("isoperimetry.level_set_rounding")),
            "isoperimetry.family_objective_ms": per_op_ms(named("isoperimetry.family_objective")),
            "isoperimetry.validate_positive_family_calls": calls(
                "isoperimetry.validate_positive_family"
            ),
            "isoperimetry.proposition_bounds_check_ms": per_op_ms(
                named("isoperimetry.proposition_bounds_check")
            ),
            "isoperimetry.random_disjoint_family_ms": per_op_ms(
                named("isoperimetry.random_disjoint_family")
            ),
            "spectral.spectrum_ms": per_op_ms(lambda n: n.startswith("spectral.")),
            "spectral.spectrum_calls": calls("spectral.spectrum"),
            "homomorphism.enumerate_ms": per_op_ms(named(*(f"homomorphism.{f}" for f in ENUMERATION))),
            "homomorphism.comparison_check_ms": per_op_ms(named("homomorphism.comparison_check")),
            "homomorphism.comparison_constants_ms": per_op_ms(
                named("homomorphism.comparison_constants")
            ),
            "runtime.gc_collections": gc_collections / ops,
        }

    def layer_shares(self, op_seconds):
        """Each module's share of the timed operations' wall time, by self time."""
        shares = {}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + s
        return {layer: s / op_seconds for layer, s in sorted(shares.items())} if op_seconds else {}

    def dump(self, path, summary):
        """Write the run summary and every span as gzip-compressed JSON.

        Span columns are streamed in chunks, so the dump needs no second copy
        of the spans in memory; start and end are integer nanoseconds on the
        `perf_counter` clock, relative to the first span's start."""
        origin = min(self.starts, default=0.0)
        columns = (
            ("id", self.ids, str), ("parent", self.parents, str), ("op", self.op_ids, str),
            ("name", self.name_ids, str),
            ("start_ns", self.starts, lambda t: str(round((t - origin) * 1e9))),
            ("end_ns", self.ends, lambda t: str(round((t - origin) * 1e9))),
        )
        head = {
            "summary": summary,
            "names": self.names,
            "self_ms": {name: 1000.0 * s for name, s in sorted(self.self_s.items())},
            "calls": dict(sorted(self.calls.items())),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(head)[:-1] + ',"spans":{')
            for k, (name, column, fmt) in enumerate(columns):
                fh.write(("," if k else "") + f'"{name}":[')
                for i in range(0, len(column), 65536):
                    fh.write(("," if i else "") + ",".join(map(fmt, column[i:i + 65536])))
                fh.write("]")
            fh.write("}}")
