"""A machine-checkable registry of identities and bounds for the invariants.

Each registered claim couples a formal statement over the seven invariants
with a decidable applicability predicate (its hypotheses) and an executable
check over solver outputs.  Running a claim on an instance produces a
:class:`ClaimReport` with one of four verdicts:

* ``holds`` - hypotheses satisfied, check passed;
* ``violated`` - hypotheses satisfied, check failed: the report carries a
  counterexample witness that re-validates against the raw predicates;
* ``inapplicable`` - hypotheses not satisfied (never counted as a failure);
* ``budget-exceeded`` - a search ran out of its node budget.

Claims quantified over *every* optimal function enumerate all optima, so
they carry small default instances; claims about values only scale further.
Checks whose statements justify the solver's product-structure pruning are
run with that pruning disabled, so the verified route stays independent of
the claim under test.

One table, :data:`PARAMETERS`, maps each instance key to its parser: graph
specs go through :func:`resolve_graph`, the rest are integers or tuples of
integers.  A claim's ``params`` is the tuple of keys it takes, and
:func:`verify_claim` parses each of them once and calls the claim's runner
as ``runner(cfg, **args)``; a missing or malformed parameter raises
:class:`GraphError`.  A runner whose hypotheses fail raises
:class:`_Inapplicable` with the reason and any solved values behind it.

A claim on gamma_r(G o H) alone is one :func:`_lex_bound` row of (hypothesis,
facts, check) in :data:`REGISTRY`; its facts may raise :class:`_Inapplicable`
on a hypothesis about solved values.  Any other claim is a runner of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from .graph import Graph, GraphError, _bits
from .generators import FamilySpec, comb, complete, cycle, generate, grs, hk, path, random_connected, star
from .products import ProductGraph, closed_copy_weight, copy_weight, corona, lexicographic
from .solvers import (
    BudgetExceededError,
    SolverConfig,
    enumerate_optimal_wrdf,
    minimum_dominating_sets,
    satisfies_property_p,
    solve,
)

# ---------------------------------------------------------------------------
# Closed formulae
# ---------------------------------------------------------------------------

_FORMULAS = {
    "gamma_r_path_cycle": (4, lambda n: -(-3 * n // 7)),
    "gamma_t_path": (3, lambda n: n // 2 + (-(-n // 4)) - n // 4),
    "gamma_r_lex_path": (2, lambda n: n if n % 4 == 0 else (n + 2 if n % 4 == 2 else n + 1)),
    "gamma_r_lex_comb": (4, lambda n: 2 * (2 * n // 3)),
    "two_thirds_bound": (3, lambda n: 2 * (2 * n // 3)),
}


def closed_formula(name: str, n: int) -> int:
    """Evaluate one of the named closed formulae; out-of-range n raises."""
    if name not in _FORMULAS:
        raise GraphError(f"unknown formula {name!r} (expected one of {', '.join(_FORMULAS)})")
    low, fn = _FORMULAS[name]
    if n < low:
        raise GraphError(f"{name} requires n >= {low}")
    return fn(n)


# ---------------------------------------------------------------------------
# Degree-constrained induced paths and the weight-4 reduction
# ---------------------------------------------------------------------------


def find_P3_sets(g: Graph) -> list[tuple[int, int, int]]:
    """Ordered triples (x1, x2, x3) inducing a path with deg(x1) >= 2,
    deg(x2) = 2 and deg(x3) = 1."""
    out = []
    for x3 in range(g.n):
        if g.degree(x3) != 1:
            continue
        x2 = next(_bits(g.adj[x3]))
        if g.degree(x2) != 2:
            continue
        x1 = next(_bits(g.adj[x2] & ~(1 << x3)))
        if g.degree(x1) >= 2:
            out.append((x1, x2, x3))
    out.sort()
    return out


def find_P4_sets(g: Graph) -> list[tuple[int, int, int, int]]:
    """Ordered quadruples (x1, x2, x3, x4) inducing a path with the two
    middle vertices of degree exactly 2 and both ends of degree >= 2; every
    undirected instance appears in both orientations."""
    out = []
    for x2 in range(g.n):
        if g.degree(x2) != 2:
            continue
        for x3 in _bits(g.adj[x2]):
            if g.degree(x3) != 2:
                continue
            x1 = next(_bits(g.adj[x2] & ~(1 << x3)))
            x4 = next(_bits(g.adj[x3] & ~(1 << x2)))
            if x1 == x4 or x1 == x3 or x4 == x2:
                continue
            if g.adjacent(x1, x4):
                continue
            if g.degree(x1) >= 2 and g.degree(x4) >= 2:
                out.append((x1, x2, x3, x4))
    out.sort()
    return out


@dataclass(frozen=True)
class ReducedGraph:
    """Result of the degree-2 path contraction.

    ``vertex_map[i]`` is the original index of the reduced graph's vertex i.
    Proposed self-loops and duplicate edges are dropped and counted; either
    makes the reduction degenerate.
    """

    graph: Graph
    vertex_map: tuple[int, ...]
    dropped_loops: int
    dropped_duplicates: int

    @property
    def degenerate(self) -> bool:
        return self.dropped_loops > 0 or self.dropped_duplicates > 0


def reduce_P4(g: Graph, s: tuple[int, int, int, int]) -> ReducedGraph:
    """Remove an induced degree-2 path (x1, x2, x3, x4) and join every
    remaining neighbour of x1 to every remaining neighbour of x4."""
    s = tuple(s)
    if s not in set(find_P4_sets(g)):
        raise GraphError(f"{s} is not a degree-constrained induced 4-path of this graph")
    x1, x2, x3, x4 = s
    smask = (1 << x1) | (1 << x2) | (1 << x3) | (1 << x4)
    keep = [v for v in range(g.n) if not smask >> v & 1]
    index = {v: i for i, v in enumerate(keep)}
    edges = set()
    for v in keep:
        for u in _bits(g.adj[v] & ~smask):
            if u > v:
                edges.add((index[v], index[u]))
    loops = 0
    dups = 0
    for a in _bits(g.adj[x1] & ~(1 << x2)):
        for b in _bits(g.adj[x4] & ~(1 << x3)):
            if a == b:
                loops += 1
                continue
            e = (min(index[a], index[b]), max(index[a], index[b]))
            if e in edges:
                dups += 1
            else:
                edges.add(e)
    return ReducedGraph(Graph.from_edges(len(keep), sorted(edges)), tuple(keep), loops, dups)


# ---------------------------------------------------------------------------
# Claim registry infrastructure
# ---------------------------------------------------------------------------


@dataclass
class ClaimReport:
    claim_id: str
    instance: str
    verdict: str  # holds | violated | inapplicable | budget-exceeded
    details: dict = field(default_factory=dict)
    witness: dict | None = None
    elapsed_ms: float = 0.0

    def to_json_dict(self) -> dict:
        out = {
            "schema": "1",
            "claim": self.claim_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "details": self.details,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        out["millis"] = round(self.elapsed_ms, 3)
        return out


@dataclass(frozen=True)
class Claim:
    id: str
    kind: str  # formula | inequality | equivalence | existence | reduction
    statement: str
    params: tuple[str, ...]  # the keys of PARAMETERS that the runner takes, in order
    runner: Callable[..., tuple[str, dict, dict | None]]  # runner(cfg, *params)
    defaults: tuple[dict, ...] = ()


class _Inapplicable(Exception):
    """Raised by a runner whose claim's hypotheses fail.  The report's details
    are the reason, then the solved values ``facts`` that decided it."""

    def __init__(self, reason: str, **facts):
        super().__init__(reason)
        self.details = {"reason": reason, **facts}


def resolve_graph(value) -> Graph:
    """Build a graph from a family spec string, e.g. ``path:7``, ``grs:4,4``,
    ``hk:4,1,1,1,1``, ``random:8,0.3,7``, ``edges:5:0-1,1-2``, or the nested
    products ``lex(path:2,path:10)`` and ``corona(path:2,empty:2)``."""
    if isinstance(value, Graph):
        return value
    if isinstance(value, ProductGraph):
        return value.graph
    if not isinstance(value, str):
        raise GraphError(f"cannot interpret {value!r} as a graph")
    text = value.strip()
    for prefix, builder in (("lex(", lexicographic), ("corona(", corona)):
        if text.startswith(prefix) and text.endswith(")"):
            inner = text[len(prefix):-1]
            depth = 0
            for i, ch in enumerate(inner):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                elif ch == "," and depth == 0:
                    return builder(resolve_graph(inner[:i]), resolve_graph(inner[i + 1:])).graph
            raise GraphError(f"malformed product spec {value!r}")
    if text.startswith("edges:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise GraphError(f"malformed edge spec {value!r} (want edges:n:u-v,u-v)")
        n = int(parts[1])
        edges = []
        if parts[2]:
            for chunk in parts[2].split(","):
                a, b = chunk.split("-")
                edges.append((int(a), int(b)))
        return Graph.from_edges(n, edges)
    name, _, args = text.partition(":")
    params = tuple(float(p) if "." in p else int(p) for p in args.split(",")) if args else ()
    if name == "random":
        if len(params) != 3:
            raise GraphError("random spec needs n,p,seed")
        return random_connected(int(params[0]), float(params[1]), int(params[2]))
    return generate(FamilySpec(name, params))


def int_tuple(value) -> tuple[int, ...]:
    """A tuple of integers from a sequence or a comma-separated string."""
    return tuple(int(v) for v in (value.split(",") if isinstance(value, str) else value))


# The parser of each instance key a claim can take.
PARAMETERS: dict[str, Callable] = {
    "g": resolve_graph,
    "h": resolve_graph,
    **dict.fromkeys(("n", "m", "r", "s", "k"), int),
    **dict.fromkeys(("sizes", "cycle", "triple", "quad"), int_tuple),
}


def _parse_params(claim: Claim, instance: dict) -> dict:
    """The parsed value of each key the claim takes; a missing key, or a value
    its parser rejects, raises :class:`GraphError`."""
    args = {}
    for key in claim.params:
        if key not in instance:
            raise GraphError(f"claim {claim.id} needs a value for {key}")
        try:
            args[key] = PARAMETERS[key](instance[key])
        except (TypeError, ValueError) as exc:
            raise GraphError(f"bad value for {key}: {instance[key]!r} ({exc})") from None
    return args


def _describe(instance: dict) -> str:
    parts = []
    for key in sorted(instance):
        if key.startswith("_"):
            continue
        value = instance[key]
        if isinstance(value, Graph):
            value = f"graph(n={value.n},m={value.edge_count})"
        elif isinstance(value, ProductGraph):
            value = f"product(n={value.graph.n})"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _val(invariant: str, g, cfg: SolverConfig) -> int:
    return solve(invariant, g, cfg).value


def _blind(cfg: SolverConfig) -> SolverConfig:
    """``cfg`` without the product-structure shortcuts."""
    return replace(cfg, product_pruning=False)


def _is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.is_connected() and g.edge_count == g.n - 1


def _leaves(g: Graph) -> int:
    mask = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            mask |= 1 << v
    return mask


def _support_vertices(g: Graph) -> list[int]:
    leaves = _leaves(g)
    return [v for v in range(g.n) if g.adj[v] & leaves]


def _strong_support(g: Graph, v: int) -> bool:
    return (g.adj[v] & _leaves(g)).bit_count() >= 2


def _is_planar(g: Graph) -> bool:
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(range(g.n))
    ng.add_edges_from(g.edges())
    return nx.check_planarity(ng)[0]


# ---------------------------------------------------------------------------
# Claim runners.  Each takes (cfg, *params) and returns (verdict, details,
# witness), or raises _Inapplicable.
# ---------------------------------------------------------------------------


def _verdict(ok: bool, details: dict) -> tuple[str, dict, dict | None]:
    """A checked claim's result; a violation's witness is a copy of its details."""
    return ("holds" if ok else "violated"), details, (None if ok else details.copy())


def _run_chain(cfg, g):
    gamma = _val("gamma", g, cfg)
    gr = _val("gamma_r", g, cfg)
    gR = _val("gamma_R", g, cfg)
    details = {"gamma": gamma, "gamma_r": gr, "gamma_R": gR}
    ok = gamma <= gr <= gR <= 2 * gamma
    if ok and g.n > 0 and g.min_degree() >= 1:
        gt = _val("gamma_t", g, cfg)
        details["gamma_t"] = gt
        ok = 2 * gamma <= 2 * gt
    return _verdict(ok, details)


def _run_complete_iff(cfg, g):
    gr = _val("gamma_r", g, cfg)
    ok = (gr == 1) == g.is_complete()
    details = {"gamma_r": gr, "complete": g.is_complete()}
    return _verdict(ok, details)


def _run_wrdn2_iff(cfg, g):
    if g.is_complete():
        raise _Inapplicable("graph is complete")
    gr = _val("gamma_r", g, cfg)
    gamma = _val("gamma", g, cfg)
    gs = _val("gamma_s", g, cfg)
    ok = (gr == 2) == (gamma == 1 or gs == 2)
    details = {"gamma_r": gr, "gamma": gamma, "gamma_s": gs}
    return _verdict(ok, details)


def _run_path_cycle_formula(cfg, n):
    if n < 4:
        raise _Inapplicable("needs n >= 4")
    want = closed_formula("gamma_r_path_cycle", n)
    got_p = _val("gamma_r", path(n), cfg)
    got_c = _val("gamma_r", cycle(n), cfg)
    ok = got_p == want == got_c
    details = {"n": n, "expected": want, "path": got_p, "cycle": got_c}
    return _verdict(ok, details)


def _run_hamiltonian_bound(cfg, g, cycle):
    n = g.n
    valid = (
        n >= 4
        and len(cycle) == n
        and sorted(cycle) == list(range(n))
        and all(g.adjacent(cycle[i], cycle[(i + 1) % n]) for i in range(n))
    )
    if not valid:
        raise _Inapplicable("witness is not a Hamiltonian cycle")
    bound = closed_formula("gamma_r_path_cycle", n)
    gr = _val("gamma_r", g, cfg)
    ok = gr <= bound
    details = {"gamma_r": gr, "bound": bound}
    return _verdict(ok, details)


def _product_value(g: Graph, h: Graph, cfg: SolverConfig) -> int:
    return _val("gamma_r", lexicographic(g, h), cfg)


def _lex_bound(needs, reason, facts, holds, blind=False):
    """The runner of a claim on gamma_r(G o H) alone.  ``needs(g, h)``, unless
    None, is its hypothesis on the factors; ``facts(g, h, cfg)`` are the
    details reported next to the product value, solved before it, and may
    raise :class:`_Inapplicable` on a hypothesis about them;
    ``holds(value, facts)`` is its check.  ``blind`` solves the product
    without the product-structure shortcuts."""
    def run(cfg, g, h):
        if needs is not None and not needs(g, h):
            raise _Inapplicable(reason)
        known = facts(g, h, cfg)
        val = _product_value(g, h, _blind(cfg) if blind else cfg)
        return _verdict(holds(val, known), {"gamma_r_product": val, **known})
    return run


def _lex_family(family, low, expected):
    """The runner of gamma_r(F_n o H) == expected(n) for n >= low and
    gamma(H) >= 4, F_n the member of ``family`` on parameter n."""
    def run(cfg, n, h):
        if n < low or _val("gamma", h, cfg) < 4:
            raise _Inapplicable(f"needs n >= {low} and gamma(H) >= 4")
        want = expected(n)
        val = _product_value(family(n), h, cfg)
        return _verdict(val == want, {"gamma_r_product": val, "expected": want})
    return run


def _no_isolated(g: Graph) -> bool:
    return g.n > 0 and g.min_degree() > 0


def _diameter_two(g: Graph) -> bool:
    return g.is_connected() and g.n >= 2 and g.diameter() == 2


def _need_gamma_h_4(h: Graph, cfg: SolverConfig) -> None:
    if _val("gamma", h, cfg) < 4:
        raise _Inapplicable("needs gamma(H) >= 4")


def _need_gamma_r_h_2(h: Graph, cfg: SolverConfig) -> None:
    if _val("gamma_r", h, cfg) != 2:
        raise _Inapplicable("needs gamma_r(H) == 2")


def _lower_max_facts(g, h, cfg) -> dict:
    facts = {inv: _val(inv, g, cfg) for inv in ("gamma_r", "gamma_t", "rho")}
    facts["bound"] = max(facts["gamma_r"], facts["gamma_t"], 2 * facts["rho"])
    return facts


def _eq_2gt_facts(g, h, cfg) -> dict:
    gt, gr, rho = (_val(inv, g, cfg) for inv in ("gamma_t", "gamma_r", "rho"))
    if 2 * gt != max(gr, 2 * rho):
        raise _Inapplicable("hypothesis 2*gamma_t == max(gamma_r, 2*rho) fails", gamma_t=gt, gamma_r=gr, rho=rho)
    return {"gamma_t": gt}


def _eq_g2t_facts(g, h, cfg) -> dict:
    g2t, gr, rho = (_val(inv, g, cfg) for inv in ("gamma_2t", "gamma_r", "rho"))
    if g2t != max(gr, 2 * rho):
        raise _Inapplicable("hypothesis gamma_2t == max(gamma_r, 2*rho) fails", gamma_2t=g2t, gamma_r=gr, rho=rho)
    return {"gamma_2t": g2t}


def _weakroman_facts(g, h, cfg) -> dict:
    gamma, gr = _val("gamma", g, cfg), _val("gamma_r", g, cfg)
    if gr != 2 * gamma:
        raise _Inapplicable("first factor is not a weak Roman graph", gamma=gamma, gamma_r=gr)
    _need_gamma_r_h_2(h, cfg)
    return {"gamma": gamma}


def _strongsupport_facts(g, h, cfg) -> dict:
    sets = minimum_dominating_sets(g, cfg)
    if len(sets) != 1:
        raise _Inapplicable("minimum dominating set is not unique", count=len(sets))
    if not all(_strong_support(g, v) for v in sets[0]):
        raise _Inapplicable("dominating set has a non strong-support member")
    _need_gamma_r_h_2(h, cfg)
    return {"gamma": len(sets[0]), "dominating_set": sorted(sets[0])}


def _star_leaf_facts(g, h, cfg) -> dict:
    _need_gamma_h_4(h, cfg)
    gamma, gt = _val("gamma", g, cfg), _val("gamma_t", g, cfg)
    if gt != 2 * gamma:
        raise _Inapplicable("needs gamma_t == 2*gamma", gamma=gamma, gamma_t=gt)
    leaves = _leaves(g)
    for ds in minimum_dominating_sets(g, cfg):
        if all(g.adj[v] & leaves for v in ds):
            return {"gamma": gamma, "dominating_set": sorted(ds)}
    raise _Inapplicable("no minimum dominating set of leaf-adjacent vertices")


def _run_lex_upper_g2t(cfg, g, h):
    if g.n == 0 or g.min_degree() < 2:
        raise _Inapplicable("needs minimum degree two")
    g2t = _val("gamma_2t", g, cfg)
    gr_g = _val("gamma_r", g, cfg)
    p = lexicographic(g, h)
    g2t_p = _val("gamma_2t", p, cfg)
    gr_p = _val("gamma_r", p, cfg)
    details = {"gamma_2t": g2t, "gamma_r": gr_g, "gamma_2t_product": g2t_p, "gamma_r_product": gr_p}
    ok = gr_g <= g2t and g2t_p <= g2t and gr_p <= g2t
    return _verdict(ok, details)


def _run_copy_lemma(cfg, g, h):
    if h.is_complete():
        raise _Inapplicable("needs a noncomplete second factor")
    p = lexicographic(g, h)
    blind = _blind(cfg)
    count = 0
    for f in enumerate_optimal_wrdf(p, blind):
        count += 1
        for u in range(g.n):
            if closed_copy_weight(p, f, u) < 2:
                witness = {
                    "V1": sorted(f.v1), "V2": sorted(f.v2), "copy": u,
                    "closed_copy_weight": closed_copy_weight(p, f, u),
                }
                return "violated", {"optima_checked": count}, witness
    return "holds", {"optima_checked": count}, None


def _run_lex_complete_second(cfg, g, m):
    if m < 1:
        raise _Inapplicable("needs m >= 1")
    gr = _val("gamma_r", g, cfg)
    val = _val("gamma_r", lexicographic(g, complete(m)), cfg)
    details = {"gamma_r": gr, "gamma_r_product": val}
    ok = val == gr
    return _verdict(ok, details)


def _run_corona_eq(cfg, g, h):
    if g.n == 0 or g.min_degree() == 0 or h.is_complete():
        raise _Inapplicable("needs no isolated vertex in g1 and noncomplete g2")
    p = corona(g, h)
    gr = _val("gamma_r", p, cfg)
    gt = _val("gamma_t", p, cfg)
    rho = _val("rho", p, cfg)
    details = {"gamma_r": gr, "gamma_t": gt, "rho": rho, "n1": g.n}
    ok = gr == 2 * gt == 2 * rho
    return _verdict(ok, details)


def _run_kn_lex(cfg, n, h):
    if n < 3 or h.is_complete():
        raise _Inapplicable("needs n >= 3 and a noncomplete second factor")
    val = _val("gamma_r", lexicographic(complete(n), h), cfg)
    grh = _val("gamma_r", h, cfg)
    has_p = any(satisfies_property_p(h, a) for a in range(h.n))
    ok = 2 <= val <= 3 and (val == 2) == (grh == 2 or has_p)
    details = {"gamma_r_product": val, "gamma_r_h": grh, "property_p_vertex": has_p}
    return _verdict(ok, details)


def _run_star_lex(cfg, n, h):
    if n < 3:
        raise _Inapplicable("needs n >= 3")
    grh = _val("gamma_r", h, cfg)
    if grh < 2:
        raise _Inapplicable("second factor is complete")
    gh = _val("gamma", h, cfg)
    val = _val("gamma_r", lexicographic(star(n), h), cfg)
    details = {"gamma_r_product": val, "gamma_r_h": grh, "gamma_h": gh}
    if gh >= 4:
        ok = val == 4
        details["case"] = "gamma(H) >= 4"
    elif grh in (2, 3):
        ok = val == grh
        details["case"] = "gamma_r(H) in {2, 3}"
    else:
        ok = 3 <= val <= 4
        details["case"] = "gamma_r(H) >= 4"
    return _verdict(ok, details)


def _run_p3_lemma(cfg, g, triple, h):
    if triple not in set(find_P3_sets(g)):
        raise _Inapplicable("triple is not a degree-constrained induced 3-path")
    _need_gamma_h_4(h, cfg)
    p = lexicographic(g, h)
    blind = _blind(cfg)
    x1, x2, x3 = triple
    count = 0
    exists_shape = False
    for f in enumerate_optimal_wrdf(p, blind):
        count += 1
        total = copy_weight(p, f, x1) + copy_weight(p, f, x2) + copy_weight(p, f, x3)
        if total != 4:
            witness = {"V1": sorted(f.v1), "V2": sorted(f.v2), "sum": total}
            return "violated", {"optima_checked": count}, witness
        if copy_weight(p, f, x2) == 2 and copy_weight(p, f, x3) == 0:
            exists_shape = True
    details = {"optima_checked": count, "shape_witness_found": exists_shape}
    ok = count > 0 and exists_shape
    return _verdict(ok, details)


def _run_p4_reduction(cfg, g, quad, h):
    if quad not in set(find_P4_sets(g)):
        raise _Inapplicable("quad is not a degree-constrained induced 4-path")
    _need_gamma_h_4(h, cfg)
    red = reduce_P4(g, quad)
    lhs = _val("gamma_r", lexicographic(g, h), cfg)
    rhs = _val("gamma_r", lexicographic(red.graph, h), cfg) + 4
    details = {
        "gamma_r_product": lhs,
        "gamma_r_reduced_plus_4": rhs,
        "reduced_n": red.graph.n,
        "degenerate": red.degenerate,
        "dropped_loops": red.dropped_loops,
        "dropped_duplicates": red.dropped_duplicates,
    }
    ok = lhs == rhs
    return _verdict(ok, details)


def _run_twoouterweights(cfg, g, h):
    if g.n < 2 or h.n < 2 or not g.is_connected() or not h.is_connected():
        raise _Inapplicable("needs nontrivial connected factors")
    _need_gamma_h_4(h, cfg)
    p = lexicographic(g, h)
    blind = _blind(cfg)
    count = 0
    for f in enumerate_optimal_wrdf(p, blind):
        count += 1
        if all(
            sum(copy_weight(p, f, u2) for u2 in _bits(g.adj[u])) >= 2
            for u in range(g.n)
        ):
            return "holds", {"optima_checked": count,
                             "witness": {"V1": sorted(f.v1), "V2": sorted(f.v2)}}, None
    return "violated", {"optima_checked": count}, {"reason": "no optimal function has all open copy neighbourhoods of weight >= 2"}


def _run_grs_value(cfg, r, s, h):
    if r < 1 or s < 1 or _val("gamma", h, cfg) < 3:
        raise _Inapplicable("needs r, s >= 1 and gamma(H) >= 3")
    g = grs(r, s)
    g2t = _val("gamma_2t", g, cfg)
    val = _val("gamma_r", lexicographic(g, h), cfg)
    details = {"gamma_r_product": val, "gamma_2t": g2t}
    ok = val == 5 == g2t
    return _verdict(ok, details)


def _run_hk_value(cfg, k, sizes, h):
    g = hk(k, sizes)
    gr = _val("gamma_r", g, cfg)
    g2t = _val("gamma_2t", g, cfg)
    val = _val("gamma_r", lexicographic(g, h), cfg)
    details = {"gamma_r": gr, "gamma_2t": g2t, "gamma_r_product": val, "k": k}
    ok = gr == g2t == k and val == k
    return _verdict(ok, details)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

_N4 = "empty:4"  # smallest graph with domination number 4

REGISTRY: tuple[Claim, ...] = (
    Claim("chain", "inequality",
          "gamma <= gamma_r <= gamma_R <= 2*gamma (<= 2*gamma_t without isolated vertices)",
          ("g",), _run_chain,
          ({"g": "path:7", "_size": 7}, {"g": "fig1_tree", "_size": 6},
           {"g": "random:8,0.3,7", "_size": 8}, {"g": "grs:2,2", "_size": 7})),
    Claim("complete_iff", "equivalence", "gamma_r == 1 iff the graph is complete", ("g",),
          _run_complete_iff,
          ({"g": "complete:5", "_size": 5}, {"g": "path:5", "_size": 5},
           {"g": "star:4", "_size": 5})),
    Claim("wrdn2_iff", "equivalence",
          "for noncomplete graphs: gamma_r == 2 iff gamma == 1 or gamma_s == 2", ("g",),
          _run_wrdn2_iff,
          ({"g": "star:4", "_size": 5}, {"g": "cycle:4", "_size": 4},
           {"g": "path:6", "_size": 6}, {"g": "cocktail_party:3", "_size": 6})),
    Claim("path_cycle_formula", "formula",
          "gamma_r(P_n) == gamma_r(C_n) == ceil(3n/7) for n >= 4", ("n",),
          _run_path_cycle_formula,
          tuple({"n": n, "_size": n} for n in range(4, 11))),
    Claim("hamiltonian_bound", "inequality",
          "gamma_r <= ceil(3n/7) for Hamiltonian graphs, given a witness cycle", ("g", "cycle"),
          _run_hamiltonian_bound,
          ({"g": "cycle:7", "cycle": (0, 1, 2, 3, 4, 5, 6), "_size": 7},
           {"g": "cocktail_party:3", "cycle": (0, 2, 4, 1, 3, 5), "_size": 6},
           {"g": "complete:6", "cycle": (0, 1, 2, 3, 4, 5), "_size": 6})),
    Claim("lex_upper_2gt", "inequality", "gamma_r(G o H) <= 2*gamma_t(G)", ("g", "h"),
          _lex_bound(lambda g, h: _no_isolated(g), "needs no isolated vertex",
                     lambda g, h, cfg: {"gamma_t": _val("gamma_t", g, cfg)}, lambda val, f: val <= 2 * f["gamma_t"]),
          ({"g": "path:4", "h": _N4, "_size": 16}, {"g": "cycle:5", "h": "path:4", "_size": 20})),
    Claim("lex_upper_maxdeg4", "inequality",
          "gamma_r(G o H) <= 4 when max degree >= n-2 and no isolated vertex", ("g", "h"),
          _lex_bound(lambda g, h: _no_isolated(g) and g.max_degree() >= g.n - 2,
                     "needs no isolated vertex and max degree >= n-2", lambda g, h, cfg: {}, lambda val, f: val <= 4),
          ({"g": "star:3", "h": _N4, "_size": 16}, {"g": "complete:4", "h": "path:4", "_size": 16})),
    Claim("lex_upper_diam2", "inequality",
          "gamma_r(G o H) <= 2*(min degree + 1) for diameter-2 G", ("g", "h"),
          _lex_bound(lambda g, h: _diameter_two(g), "needs diameter two",
                     lambda g, h, cfg: {"bound": 2 * (g.min_degree() + 1)}, lambda val, f: val <= f["bound"]),
          ({"g": "cycle:5", "h": _N4, "_size": 20},
           {"g": "complete_bipartite:2,3", "h": "path:3", "_size": 15})),
    Claim("lex_upper_two_thirds", "inequality",
          "gamma_r(G o H) <= 2*floor(2n/3) for connected G, n >= 3", ("g", "h"),
          _lex_bound(lambda g, h: g.n >= 3 and g.is_connected(), "needs a connected graph on n >= 3",
                     lambda g, h, cfg: {"bound": closed_formula("two_thirds_bound", g.n)},
                     lambda val, f: val <= f["bound"]),
          ({"g": "path:6", "h": _N4, "_size": 24}, {"g": "comb:6", "h": _N4, "_size": 24})),
    Claim("lex_upper_tree_ns", "inequality",
          "gamma_r(T o H) <= n + (number of support vertices) for trees", ("g", "h"),
          _lex_bound(lambda g, h: _is_tree(g) and g.n >= 3, "needs a tree on n >= 3",
                     lambda g, h, cfg: {"bound": g.n + (s := len(_support_vertices(g))), "supports": s},
                     lambda val, f: val <= f["bound"]),
          ({"g": "comb:7", "h": _N4, "_size": 28}, {"g": "star:4", "h": "path:5", "_size": 25})),
    Claim("lex_upper_planar6", "inequality",
          "gamma_r(G o H) <= 6 for planar diameter-2 G", ("g", "h"),
          _lex_bound(lambda g, h: _diameter_two(g) and _is_planar(g), "needs a planar graph of diameter two",
                     lambda g, h, cfg: {}, lambda val, f: val <= 6),
          ({"g": "fig2_planar", "h": _N4, "_size": 36},)),
    Claim("lex_upper_4gamma", "inequality",
          "gamma_r(G o H) <= 4*gamma(G) for noncomplete H", ("g", "h"),
          _lex_bound(lambda g, h: _no_isolated(g) and not h.is_complete(),
                     "needs no isolated vertex and noncomplete second factor",
                     lambda g, h, cfg: {"gamma": _val("gamma", g, cfg)}, lambda val, f: val <= 4 * f["gamma"]),
          ({"g": "path:5", "h": "empty:2", "_size": 10}, {"g": "comb:6", "h": _N4, "_size": 24})),
    Claim("lex_upper_gamma_gammar", "inequality",
          "gamma_r(G o H) <= gamma(G)*gamma_r(H) for noncomplete H", ("g", "h"),
          _lex_bound(lambda g, h: not h.is_complete(), "needs a noncomplete second factor",
                     lambda g, h, cfg: {"gamma": _val("gamma", g, cfg), "gamma_r_h": _val("gamma_r", h, cfg)},
                     lambda val, f: val <= f["gamma"] * f["gamma_r_h"]),
          ({"g": "path:4", "h": "path:4", "_size": 16}, {"g": "complete:3", "h": "cycle:5", "_size": 15})),
    Claim("lex_upper_g2t", "inequality",
          "for min degree 2: gamma_r(G) <= gamma_2t(G), gamma_2t(G o H) <= gamma_2t(G), gamma_r(G o H) <= gamma_2t(G)",
          ("g", "h"), _run_lex_upper_g2t,
          ({"g": "cycle:4", "h": "path:3", "_size": 12},
           {"g": "hk:3,1,1,1", "h": "empty:2", "_size": 12})),
    Claim("copy_lemma", "inequality",
          "every optimal function puts closed copy weight >= 2 on every copy", ("g", "h"),
          _run_copy_lemma,
          ({"g": "path:2", "h": "path:4", "_size": 8}, {"g": "cycle:4", "h": "empty:3", "_size": 12})),
    Claim("lex_lower_max", "inequality",
          "gamma_r(G o H) >= max(gamma_r(G), gamma_t(G), 2*rho(G))", ("g", "h"),
          _lex_bound(lambda g, h: _no_isolated(g) and not h.is_complete(),
                     "needs minimum degree one and noncomplete second factor",
                     _lower_max_facts, lambda val, f: val >= f["bound"], blind=True),
          ({"g": "path:4", "h": _N4, "_size": 16},
           {"g": "complete_bipartite:3,3", "h": "path:4", "_size": 24},
           {"g": "path:5", "h": "empty:2", "_size": 10})),
    Claim("tree_lower_2gamma", "inequality",
          "gamma_r(T o H) >= 2*gamma(T) for trees and noncomplete H", ("g", "h"),
          _lex_bound(lambda g, h: _is_tree(g) and not h.is_complete(),
                     "needs a tree and a noncomplete second factor",
                     lambda g, h, cfg: {"gamma": _val("gamma", g, cfg)}, lambda val, f: val >= 2 * f["gamma"],
                     blind=True),
          ({"g": "path:4", "h": "empty:2", "_size": 8},
           {"g": "star:3", "h": _N4, "_size": 16},
           {"g": "fig1_tree", "h": "empty:2", "_size": 12})),
    Claim("lex_complete_second", "formula", "gamma_r(G o K_m) == gamma_r(G)", ("g", "m"),
          _run_lex_complete_second,
          ({"g": "path:5", "m": 2, "_size": 10}, {"g": "cycle:5", "m": 3, "_size": 15},
           {"g": "fig1_tree", "m": 2, "_size": 12})),
    Claim("eq_2gt", "formula",
          "gamma_r(G o H) == 2*gamma_t(G) when 2*gamma_t(G) == max(gamma_r(G), 2*rho(G))", ("g", "h"),
          _lex_bound(lambda g, h: _no_isolated(g) and not h.is_complete(),
                     "needs no isolated vertex and noncomplete second factor",
                     _eq_2gt_facts, lambda val, f: val == 2 * f["gamma_t"]),
          ({"g": "path:4", "h": _N4, "_size": 16},
           {"g": "corona(path:2,empty:2)", "h": "empty:2", "_size": 12})),
    Claim("corona_eq", "formula",
          "gamma_r == 2*gamma_t == 2*rho on corona products with noncomplete second factor",
          ("g", "h"), _run_corona_eq,
          ({"g": "path:2", "h": "empty:2", "_size": 6}, {"g": "path:3", "h": "empty:2", "_size": 9},
           {"g": "cycle:3", "h": "empty:3", "_size": 12})),
    Claim("weakroman_eq_2gamma", "formula",
          "gamma_r(G o H) == 2*gamma(G) for weak Roman G and gamma_r(H) == 2", ("g", "h"),
          _lex_bound(None, None, _weakroman_facts, lambda val, f: val == 2 * f["gamma"]),
          ({"g": "corona(path:2,empty:2)", "h": "empty:2", "_size": 12},
           {"g": "fig6_spider", "h": "empty:2", "_size": 30})),
    Claim("strongsupport_tree", "formula",
          "gamma_r(T o H) == 2*gamma(T) for trees with a unique all-strong-support minimum dominating set and gamma_r(H) == 2",
          ("g", "h"),
          _lex_bound(lambda g, h: _is_tree(g), "needs a tree", _strongsupport_facts,
                     lambda val, f: val == 2 * f["gamma"]),
          ({"g": "path:3", "h": "empty:2", "_size": 6},
           {"g": "fig6_spider", "h": "empty:2", "_size": 30})),
    Claim("star_leaf_4gamma", "formula",
          "gamma_r(G o H) == 4*gamma(G) when gamma_t(G) == 2*gamma(G), some minimum dominating set is all leaf-adjacent, and gamma(H) >= 4",
          ("g", "h"),
          _lex_bound(lambda g, h: _no_isolated(g), "needs no isolated vertex", _star_leaf_facts,
                     lambda val, f: val == 4 * f["gamma"]),
          ({"g": "star:3", "h": _N4, "_size": 16},
           {"g": "fig6_spider", "h": _N4, "_size": 60})),
    Claim("eq_g2t", "formula",
          "gamma_r(G o H) == gamma_2t(G) when gamma_2t(G) == max(gamma_r(G), 2*rho(G))", ("g", "h"),
          _lex_bound(lambda g, h: g.n > 0 and g.min_degree() >= 2 and not h.is_complete(),
                     "needs minimum degree two and noncomplete second factor",
                     _eq_g2t_facts, lambda val, f: val == f["gamma_2t"]),
          ({"g": "hk:3,1,1,1", "h": "empty:2", "_size": 12},
           {"g": "hk:4,2,1,2,1", "h": "empty:2", "_size": 20})),
    Claim("kn_lex", "equivalence",
          "2 <= gamma_r(K_n o H) <= 3, with value 2 iff gamma_r(H) == 2 or H has a vertex whose closed-neighbourhood complement is a clique",
          ("n", "h"), _run_kn_lex,
          ({"n": 3, "h": "path:4", "_size": 12}, {"n": 3, "h": "cycle:7", "_size": 21},
           {"n": 3, "h": _N4, "_size": 12}, {"n": 4, "h": "star:3", "_size": 16})),
    Claim("star_lex", "formula",
          "gamma_r(K_{1,n} o H): equals gamma_r(H) when that is 2 or 3; in [3,4] when gamma_r(H) >= 4; equals 4 when gamma(H) >= 4",
          ("n", "h"), _run_star_lex,
          ({"n": 3, "h": _N4, "_size": 16}, {"n": 3, "h": "cycle:7", "_size": 28},
           {"n": 4, "h": "path:4", "_size": 20}, {"n": 3, "h": "path:9", "_size": 36})),
    Claim("p3_lemma", "formula",
          "every optimal function puts total weight exactly 4 on a degree-constrained induced 3-path of copies, and some optimal function realises (2 on the middle, 0 on the leaf)",
          ("g", "triple", "h"), _run_p3_lemma,
          ({"g": "edges:5:0-1,0-2,1-2,2-3,3-4", "triple": (2, 3, 4), "h": _N4, "_size": 20},)),
    Claim("comb_formula", "formula",
          "gamma_r(T_n o H) == 2*floor(2n/3) for combs, gamma(H) >= 4", ("n", "h"),
          _lex_family(comb, 4, lambda n: closed_formula("gamma_r_lex_comb", n)),
          ({"n": 6, "h": _N4, "_size": 24}, {"n": 7, "h": _N4, "_size": 28})),
    Claim("p4_reduction", "reduction",
          "gamma_r(G o H) == gamma_r(G* o H) + 4 for the degree-2 path contraction G*, gamma(H) >= 4",
          ("g", "quad", "h"), _run_p4_reduction,
          ({"g": "path:7", "quad": (1, 2, 3, 4), "h": _N4, "_size": 28},
           {"g": "cycle:8", "quad": (0, 1, 2, 3), "h": _N4, "_size": 32},
           {"g": "cycle:6", "quad": (0, 1, 2, 3), "h": _N4, "_size": 24})),
    Claim("cycle_lex", "formula", "gamma_r(C_n o H) == n for gamma(H) >= 4", ("n", "h"),
          _lex_family(cycle, 3, lambda n: n),
          tuple({"n": n, "h": _N4, "_size": 4 * n} for n in (3, 4, 5, 6, 7))),
    Claim("path_lex", "formula",
          "gamma_r(P_n o H) == n, n+2, n+1 as n mod 4 is 0, 2, odd, for gamma(H) >= 4", ("n", "h"),
          _lex_family(path, 2, lambda n: closed_formula("gamma_r_lex_path", n)),
          tuple({"n": n, "h": _N4, "_size": 4 * n} for n in (2, 3, 4, 5, 6))),
    Claim("twoouterweights", "existence",
          "some optimal function has open copy-neighbourhood weight >= 2 at every copy", ("g", "h"),
          _run_twoouterweights,
          # needs a *connected* second factor with domination number >= 4;
          # the corona of P_4 with K_1 is the smallest such graph
          ({"g": "path:3", "h": "corona(path:4,empty:1)", "_size": 24},
           {"g": "cycle:4", "h": "corona(path:4,empty:1)", "_size": 32})),
    Claim("grs_value", "formula",
          "gamma_r(G_{r,s} o H) == 5 == gamma_2t(G_{r,s}) for gamma(H) >= 3", ("r", "s", "h"),
          _run_grs_value,
          ({"r": 1, "s": 1, "h": "path:7", "_size": 35},)),
    Claim("hk_value", "formula",
          "gamma_r == gamma_2t == k on the cycle-with-blocks family, and gamma_r(G o H) == k",
          ("k", "sizes", "h"), _run_hk_value,
          ({"k": 3, "sizes": (1, 1, 1), "h": "path:3", "_size": 18},
           {"k": 4, "sizes": (2, 1, 2, 1), "h": "empty:2", "_size": 20},
           {"k": 4, "sizes": (1, 1, 1, 1), "h": "empty:2", "_size": 16})),
)

_REGISTRY_BY_ID = {c.id: c for c in REGISTRY}


def get_claim(claim_id: str) -> Claim:
    claim = _REGISTRY_BY_ID.get(claim_id)
    if claim is None:
        raise GraphError(f"unknown claim {claim_id!r} (see REGISTRY)")
    return claim


def verify_claim(claim_id: str, instance: dict, config: SolverConfig | None = None) -> ClaimReport:
    """Run one registered claim on one instance; a missing or malformed
    parameter raises :class:`GraphError`."""
    claim = get_claim(claim_id)
    cfg = config or SolverConfig()
    started = time.perf_counter()
    args = _parse_params(claim, instance)
    try:
        verdict, details, witness = claim.runner(cfg, **args)
    except _Inapplicable as exc:
        verdict, details, witness = "inapplicable", exc.details, None
    except BudgetExceededError as exc:
        verdict = "budget-exceeded"
        details = {"lower": exc.lower, "upper": exc.upper, "invariant": exc.invariant}
        witness = None
    elapsed = (time.perf_counter() - started) * 1000.0
    return ClaimReport(claim_id, _describe(instance), verdict, details, witness, elapsed)


def verify_all(max_n: int | None = None, config: SolverConfig | None = None) -> list[ClaimReport]:
    """Run every claim on its default desk-scale instances, skipping those
    whose flat size exceeds ``max_n``."""
    reports = []
    for claim in REGISTRY:
        for instance in claim.defaults:
            if max_n is not None and instance.get("_size", 0) > max_n:
                continue
            reports.append(verify_claim(claim.id, instance, config))
    return reports


def summary_table(reports: list[ClaimReport]) -> str:
    """A Markdown summary of claim verdicts."""
    rows: dict[str, dict[str, int]] = {}
    for rep in reports:
        row = rows.setdefault(rep.claim_id, {"instances": 0, "holds": 0, "violated": 0,
                                              "inapplicable": 0, "budget-exceeded": 0})
        row["instances"] += 1
        row[rep.verdict] += 1
    lines = [
        "| claim | instances | holds | violated | inapplicable | budget-exceeded |",
        "|---|---|---|---|---|---|",
    ]
    for claim in REGISTRY:
        if claim.id in rows:
            r = rows[claim.id]
            lines.append(
                f"| {claim.id} | {r['instances']} | {r['holds']} | {r['violated']} "
                f"| {r['inapplicable']} | {r['budget-exceeded']} |"
            )
    return "\n".join(lines)
