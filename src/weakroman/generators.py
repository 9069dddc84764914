"""Deterministic constructors for the named graph families.

Every family fixes a documented vertex-index convention so that solver
certificates are reproducible and can be cross-checked against the original
drawings and definitions:

* ``path`` / ``cycle``: consecutive indices.
* ``star``: centre 0, then the leaves (parameter = number of leaves).
* ``complete_bipartite(r, s)``: left part ``0..r-1``, right part ``r..r+s-1``.
* ``cocktail_party(k)``: K_{2k} minus the perfect matching (2i, 2i+1).
* ``comb(n)``: spine ``v_1..v_k`` first (k = ceil(n/3)), then two extra tooth
  vertices per spine vertex ``v_1..v_{k-1}`` (each tooth is a P_3 sharing its
  first vertex with the spine), then a tail of r = n - 3k + 2 vertices hung
  off ``v_k``.  The comb of order six is a plain path.
* ``grs(r, s)``: x1 = 0, x2 = 1, x3 = 2, then y_1..y_r, then z_1..z_s, with
  edges x1y_i, x1z_i, x2y_i, x3z_i and x2x3.
* ``hk(k, (s_1..s_k))``: cycle ``0..k-1`` first, then the independent blocks
  in order; block i is joined to cycle vertices i and i+1 (mod k).
* ``fig1_tree``: the 6-vertex tree with legs of lengths 3, 1, 1 from a
  degree-3 centre (gamma = 2, weak Roman number 3, Roman number 4).
* ``fig2_planar``: a 9-vertex planar graph of diameter two.
* ``fig4_twocycles``: two 5-cycles sharing one vertex.
* ``fig6_spider``: a 9-vertex path spine with two pendant leaves on each of
  the spine positions 2, 5, 8 (1-based); the three support vertices form the
  unique minimum dominating set.  Its pinned properties (total domination
  number 6 = twice the domination number, unique dominating set of strong
  support vertices) are asserted by the test suite rather than trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, GraphError


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its integer parameters.

    ``hk`` takes the cycle length first, then one block size per cycle
    vertex; every other family takes plain integers per the module
    docstring.
    """

    family: str
    params: tuple = ()


FAMILIES = (
    "complete",
    "empty",
    "path",
    "cycle",
    "star",
    "complete_bipartite",
    "cocktail_party",
    "comb",
    "grs",
    "hk",
    "fig1_tree",
    "fig2_planar",
    "fig4_twocycles",
    "fig6_spider",
)


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n: int) -> Graph:
    if n < 1:
        raise GraphError("empty graph needs n >= 1")
    return Graph.from_edges(n, [])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def star(leaves: int) -> Graph:
    if leaves < 1:
        raise GraphError("star needs at least one leaf")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise GraphError("complete bipartite graph needs r, s >= 1")
    return Graph.from_edges(r + s, [(u, r + v) for u in range(r) for v in range(s)])


def cocktail_party(k: int) -> Graph:
    if k < 1:
        raise GraphError("cocktail party graph needs k >= 1")
    n = 2 * k
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not (u % 2 == 0 and v == u + 1)  # drop the matching (2i, 2i+1)
    ]
    return Graph.from_edges(n, edges)


def comb(n: int) -> Graph:
    if n < 4:
        raise GraphError("comb needs n >= 4")
    k = -(-n // 3)  # ceil(n/3)
    r = n - 3 * k + 2  # tail length, in {0, 1, 2}
    edges = [(i, i + 1) for i in range(k - 1)]  # spine v_1..v_k
    nxt = k
    for i in range(k - 1):  # tooth at v_i: v_i - a_i - b_i
        edges.append((i, nxt))
        edges.append((nxt, nxt + 1))
        nxt += 2
    prev = k - 1
    for _ in range(r):  # tail hung off v_k
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    assert nxt == n
    return Graph.from_edges(n, edges)


def grs(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise GraphError("grs needs r, s >= 1")
    x1, x2, x3 = 0, 1, 2
    ys = list(range(3, 3 + r))
    zs = list(range(3 + r, 3 + r + s))
    edges = [(x2, x3)]
    edges += [(x1, y) for y in ys]
    edges += [(x1, z) for z in zs]
    edges += [(x2, y) for y in ys]
    edges += [(x3, z) for z in zs]
    return Graph.from_edges(3 + r + s, edges)


def hk(k: int, sizes: tuple[int, ...]) -> Graph:
    if k < 3:
        raise GraphError("hk needs cycle length k >= 3")
    if len(sizes) != k or any(s < 1 for s in sizes):
        raise GraphError("hk needs one block size >= 1 per cycle vertex")
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    nxt = k
    for i, s in enumerate(sizes):
        for _ in range(s):
            edges.append((min(i, nxt), max(i, nxt)))
            j = (i + 1) % k
            edges.append((min(j, nxt), max(j, nxt)))
            nxt += 1
    return Graph.from_edges(k + sum(sizes), edges)


def fig1_tree() -> Graph:
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5)])


def fig2_planar() -> Graph:
    return Graph.from_edges(
        9,
        [
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 5), (1, 6),
            (2, 6), (2, 7),
            (3, 7), (3, 8),
            (4, 5), (4, 8),
            (5, 6), (6, 7), (7, 8), (5, 8),
        ],
    )


def fig4_twocycles() -> Graph:
    return Graph.from_edges(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
         (0, 5), (5, 6), (6, 7), (7, 8), (0, 8)],
    )


def fig6_spider() -> Graph:
    edges = [(i, i + 1) for i in range(8)]  # spine 0..8
    edges += [(1, 9), (1, 10), (4, 11), (4, 12), (7, 13), (7, 14)]
    return Graph.from_edges(15, edges)


_DISPATCH = {
    "complete": complete,
    "empty": empty,
    "path": path,
    "cycle": cycle,
    "star": star,
    "complete_bipartite": complete_bipartite,
    "cocktail_party": cocktail_party,
    "comb": comb,
    "grs": grs,
    "fig1_tree": fig1_tree,
    "fig2_planar": fig2_planar,
    "fig4_twocycles": fig4_twocycles,
    "fig6_spider": fig6_spider,
}


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``; invalid parameters raise."""
    if spec.family == "hk":
        if len(spec.params) < 1:
            raise GraphError("hk needs k followed by k block sizes")
        return hk(int(spec.params[0]), tuple(int(p) for p in spec.params[1:]))
    fn = _DISPATCH.get(spec.family)
    if fn is None:
        raise GraphError(f"unknown family {spec.family!r} (expected one of {', '.join(FAMILIES)})")
    arity = fn.__code__.co_argcount
    if len(spec.params) != arity:
        raise GraphError(f"{spec.family} takes {arity} parameter(s), got {len(spec.params)}")
    return fn(*spec.params)


def random_connected(n: int, p: float, seed: int) -> Graph:
    """A connected simple graph, deterministic for a fixed seed.

    A uniformly random spanning tree skeleton guarantees connectivity, then
    each remaining pair is added independently with probability ``p``.
    """
    if n < 1:
        raise GraphError("random graph needs n >= 1")
    if not 0 < p <= 1:
        raise GraphError("edge probability must satisfy 0 < p <= 1")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    present = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        present.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < p:
                present.add((u, v))
    return Graph.from_edges(n, sorted(present))
