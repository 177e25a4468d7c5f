"""Spans around the calls into each kneserdom module, set from outside.

`Tracer.install` substitutes module attributes at the layer boundaries and
`Tracer.remove` puts the originals back; no file of the program changes.
The boundaries are the names through which one module calls another:

- ``kneserdom.cli``: solve_domination, solve_rho2, verify,
  load_family_document, and the ``construct`` functions it reaches as
  ``cons.<name>``;
- ``kneserdom.solve``: verify, verify_2_packing, disjoint_clique,
  rho3_witness, rho4_witness;
- ``kneserdom.construct``: every public function;
- ``KneserParams.vertex_masks``: each vertex the generator yields is timed,
  and that time is charged to the span open when it is consumed.

Spans are kept in memory. A span records its name, start, end, parent span
and the workload call it belongs to, plus what the call returned that the
per-layer metrics need (search nodes, bounds, vertices checked).
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

LAYERS = ("cli", "familydoc", "core", "construct", "solve", "certify")

# Calls whose solve time and nodes are reported on their own:
# (function, n, r, invariant, k) -> metric suffix.
NAMED_CALLS = {
    ("solve_rho2", 9, 4, "rho2", 0): "rho2_9_4",
    ("solve_domination", 9, 4, "gamma_k", 2): "gamma_k2_9_4",
    ("solve_domination", 16, 3, "gamma_xkt", 2): "gamma_xkt2_16_3",
    ("solve_domination", 21, 3, "gamma_k", 4): "gamma_k4_21_3",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    call: int
    start: float
    end: float = 0.0
    child_s: float = 0.0   # time covered by child spans and core work
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "call": self.call, "start": self.start, "end": self.end,
                **self.info}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.call = -1
        self.core_calls = 0
        self.core_s = 0.0
        self.vertices = 0
        self._saved: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, describe=None):
        """`fn` with a span named `name`; `describe(args, result)` adds info."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(len(self.spans), name,
                        parent.id if parent else None, self.call, 0.0)
            self.spans.append(span)
            self.stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if describe is not None:
                span.info = describe(args, result)
            return result
        return traced

    def wrap_generator(self, gen_fn):
        """`gen_fn` with each `next` timed as core work of the open span."""
        tracer = self

        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            inner = gen_fn(*args, **kwargs)
            tracer.core_calls += 1
            count, spent = 0, 0.0
            try:
                while True:
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        spent += perf_counter() - t0
                        return
                    spent += perf_counter() - t0
                    count += 1
                    yield item
            finally:
                tracer.core_s += spent
                tracer.vertices += count
                if tracer.stack:
                    tracer.stack[-1].child_s += spent
        return traced

    # --- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, kd) -> None:
        """Wrap the boundaries of the imported package `kd`."""
        cli, solve, construct, core = kd.cli, kd.solve, kd.construct, kd.core
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        for name in ("solve_domination", "solve_rho2"):
            self._patch(cli, name, self.wrap(
                f"solve.{name}", getattr(cli, name),
                functools.partial(_describe_solve, name)))
        self._patch(cli, "verify", self.wrap(
            "certify.verify", cli.verify, _describe_report))
        self._patch(cli, "load_family_document", self.wrap(
            "familydoc.load_family_document", cli.load_family_document,
            lambda args, result: {"members": len(result[0])}))
        for name in ("verify", "verify_2_packing"):
            self._patch(solve, name, self.wrap(
                f"certify.{name}", getattr(solve, name), _describe_report))
        for name in ("disjoint_clique", "rho3_witness", "rho4_witness"):
            self._patch(solve, name, self.wrap(
                f"construct.{name}", getattr(solve, name)))
        for name, fn in list(vars(construct).items()):
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == construct.__name__):
                self._patch(construct, name, self.wrap(f"construct.{name}", fn))
        self._patch(core.KneserParams, "vertex_masks",
                    self.wrap_generator(core.KneserParams.vertex_masks))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- per-layer metrics -------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self time and counts over every span recorded."""
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.calls"] = 0
            m[f"{layer}.self_s"] = 0.0
        for key in ("solve.nodes", "solve.root_self_s", "solve.dom.nodes",
                    "solve.clique.nodes", "solve.lb_sum", "solve.ub_sum",
                    "certify.vertices_checked", "certify.pairs_checked",
                    "certify.invalid", "familydoc.members"):
            m[key] = 0
        for suffix in NAMED_CALLS.values():
            m[f"solve.self_s.{suffix}"] = 0.0
            m[f"solve.nodes.{suffix}"] = 0
        dom_s = clique_s = verify_s = 0.0
        for span in self.spans:
            m[f"{span.layer}.calls"] += 1
            m[f"{span.layer}.self_s"] += span.self_s
            info = span.info
            if not info:  # the call raised, or the layer returns no report
                continue
            if span.layer == "solve":
                if info["status"] == "optimal":
                    m["solve.nodes"] += info["nodes"]
                    if span.name == "solve.solve_domination":
                        m["solve.dom.nodes"] += info["nodes"]
                        dom_s += span.self_s
                    else:
                        m["solve.clique.nodes"] += info["nodes"]
                        clique_s += span.self_s
                elif info["status"] == "bounds":
                    m["solve.lb_sum"] += info["lower_bound"]
                    m["solve.ub_sum"] += info["upper_bound"]
                if info["nodes"] == 0:
                    m["solve.root_self_s"] += span.self_s
                if info.get("named"):
                    m[f"solve.self_s.{info['named']}"] += span.self_s
                    m[f"solve.nodes.{info['named']}"] += info["nodes"]
            elif span.layer == "certify":
                if info["kind"] == "rho2":
                    m["certify.pairs_checked"] += info["checked"]
                else:
                    m["certify.vertices_checked"] += info["checked"]
                    verify_s += span.end - span.start
                m["certify.invalid"] += not info["valid"]
            elif span.layer == "familydoc":
                m["familydoc.members"] += info["members"]
        m["core.calls"] = self.core_calls
        m["core.self_s"] = self.core_s
        m["core.vertices_enumerated"] = self.vertices
        m["solve.open_gap"] = m["solve.ub_sum"] - m["solve.lb_sum"]
        m["solve.dom.nodes_per_s"] = _rate(m["solve.dom.nodes"], dom_s)
        m["solve.clique.nodes_per_s"] = _rate(m["solve.clique.nodes"], clique_s)
        m["certify.vertices_per_s"] = _rate(m["certify.vertices_checked"],
                                            verify_s)
        return m


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _describe_solve(name: str, args, result) -> dict:
    params = args[0]
    if name == "solve_rho2":
        invariant, k = "rho2", 0
    else:
        invariant, k = args[1].value, args[2]
    info = {"n": params.n, "r": params.r, "invariant": invariant, "k": k,
            "status": result.status.value, "nodes": result.nodes,
            "lower_bound": result.lower_bound,
            "upper_bound": result.upper_bound}
    named = NAMED_CALLS.get((name, params.n, params.r, invariant, k))
    if named:
        info["named"] = named
    return info


def _describe_report(args, report) -> dict:
    return {"kind": report.kind.value, "valid": report.valid,
            "checked": report.checked_count}


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over several traced passes."""
    return {key: median(run[key] for run in runs) for key in runs[0]}
