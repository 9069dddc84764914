"""Span recorder for the traced run.

The recorder wraps the public functions of each ``weakroman`` module at the
names the other modules call them by, so every call into a layer becomes a
span with a parent link.  Spans stay in memory until the run writes them out
once at the end.  Nothing under ``src/`` is modified; :meth:`Recorder.uninstall`
puts the original functions back.
"""

from __future__ import annotations

import inspect
import time

import weakroman
import weakroman.cli
import weakroman.generators
import weakroman.graph
import weakroman.products
import weakroman.solvers
import weakroman.theorems

MODULES = (
    weakroman,
    weakroman.cli,
    weakroman.generators,
    weakroman.graph,
    weakroman.products,
    weakroman.solvers,
    weakroman.theorems,
)

# (layer, defining module, public names timed at their call sites).  The
# two legion-function predicates live in solvers but are raw predicates like
# the set ones, so they count towards the graph layer.
WRAPPED = (
    ("generators", weakroman.generators, ("generate", "random_connected")),
    ("products", weakroman.products, ("lexicographic", "corona")),
    ("graph", weakroman.graph, (
        "parse_edge_list", "is_dominating", "is_total_dominating",
        "is_double_total_dominating", "is_2packing", "is_secure_dominating",
    )),
    ("graph", weakroman.solvers, ("is_wrdf", "is_rdf")),
    ("solvers", weakroman.solvers, ("solve", "enumerate_optimal_wrdf", "minimum_dominating_sets")),
    ("theorems", weakroman.theorems, ("verify_claim", "verify_all", "resolve_graph")),
    ("cli", weakroman.cli, ("run",)),
)
LAYER_NAMES = ("graph", "generators", "products", "solvers", "theorems", "cli")


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "dur", "attrs")

    def __init__(self, sid, parent, layer, name, start):
        self.id = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.dur = 0.0
        self.attrs = {}

    def to_json(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if k != "key"}
        return {"id": self.id, "parent": self.parent, "layer": self.layer, "name": self.name,
                "start": self.start, "dur": self.dur, "attrs": attrs}


# Attribute hooks run after the call; ``result`` is None when it raised.


def _solve_attrs(span, args, kwargs, result):
    invariant = args[0] if args else kwargs["invariant"]
    g = args[1] if len(args) > 1 else kwargs["g"]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    flat = g.graph if isinstance(g, weakroman.ProductGraph) else g
    span.attrs["invariant"] = invariant
    span.attrs["nodes"] = result.nodes if result is not None else 0
    # what a cache of solves would have to match on; kept in memory only
    span.attrs["key"] = (invariant, flat.n, flat.adj, config)


def _product_attrs(span, args, kwargs, result):
    if result is not None:
        span.attrs["vertices"] = result.graph.n


def _claim_attrs(span, args, kwargs, result):
    span.attrs["claim"] = args[0] if args else kwargs["claim_id"]
    if result is not None:
        span.attrs["verdict"] = result.verdict


_ATTRS = {
    "solve": _solve_attrs,
    "lexicographic": _product_attrs,
    "corona": _product_attrs,
    "verify_claim": _claim_attrs,
}


class Recorder:
    """Records spans at layer boundaries while installed.

    Every wrapped name is called on the main thread: the shard threads inside
    ``solve`` call none of them, so one stack gives correct parent links.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _open(self, layer, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, layer, name, time.perf_counter() - self._t0)
        self.spans.append(span)
        return span

    def _wrap(self, layer, fn):
        name = fn.__name__
        attrs = _ATTRS.get(name)
        rec = self

        if inspect.isgeneratorfunction(fn):
            # time only the intervals in which the generator runs, so the
            # caller's work between items is not charged to it
            def gen_wrapper(*args, **kwargs):
                span = rec._open(layer, name)
                span.attrs["items"] = 0
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        rec._stack.append(span.id)
                        started = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span.dur += time.perf_counter() - started
                            rec._stack.pop()
                        span.attrs["items"] += 1
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = rec._open(layer, name)
            rec._stack.append(span.id)
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.dur = time.perf_counter() - started
                rec._stack.pop()
                if attrs is not None:
                    attrs(span, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        for layer, module, names in WRAPPED:
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(layer, original)
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def outer(self, layer: str) -> list[Span]:
        """Spans that enter ``layer`` from another layer or from the
        benchmark.  The benchmark calls the graph layer only to recheck
        outputs, outside the timed ops, so there only calls from another
        layer count."""
        spans = self.spans

        def entered(s: Span) -> bool:
            if s.parent is None:
                return layer != "graph"
            return spans[s.parent].layer != layer

        return [s for s in spans if s.layer == layer and entered(s)]

    def layer_metrics(self) -> dict[str, float]:
        """Busy time, self time and calls per layer, plus the solver and
        graph counters every workload can have.  A layer's self time is its
        busy time minus the part covered by spans of other layers below it.
        Zero values are left out: that layer or invariant was not exercised."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)

        def foreign(span: Span) -> float:
            total = 0.0
            for c in children.get(span.id, ()):
                total += c.dur if c.layer != span.layer else foreign(c)
            return total

        out = {}
        for layer in LAYER_NAMES:
            top = self.outer(layer)
            out[f"{layer}.busy_s"] = sum(s.dur for s in top)
            out[f"{layer}.self_s"] = sum(s.dur - foreign(s) for s in top)
            out[f"{layer}.calls"] = len(top)

        solves = [s for s in self.spans if s.name == "solve"]
        for invariant in weakroman.INVARIANTS:
            mine = [s for s in solves if s.attrs.get("invariant") == invariant]
            out[f"solvers.calls.{invariant}"] = len(mine)
            out[f"solvers.busy_s.{invariant}"] = sum(s.dur for s in mine)
            out[f"solvers.nodes.{invariant}"] = sum(s.attrs.get("nodes", 0) for s in mine)
        solve_s = sum(s.dur for s in solves)
        if solve_s:
            out["solvers.nodes_per_s"] = sum(s.attrs.get("nodes", 0) for s in solves) / solve_s
        enumerations = [s for s in self.spans if s.name == "enumerate_optimal_wrdf"]
        out["solvers.enumerate_s"] = sum(s.dur for s in enumerations)
        out["solvers.optima"] = sum(s.attrs["items"] for s in enumerations)

        out["graph.parse_s"] = sum(s.dur for s in self.outer("graph") if s.name == "parse_edge_list")
        out["products.vertices_built"] = sum(s.attrs.get("vertices", 0) for s in self.outer("products"))
        return {k: v for k, v in out.items() if v}

    def has_ancestor(self, span: Span, layer: str) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].layer == layer:
                return True
            p = self.spans[p].parent
        return False

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.spans]

