"""Lexicographic and corona product constructors with copy accessors.

Both constructors return a :class:`ProductGraph`, which couples the flat
product graph with the index map the product-aware solver and the claim
checks need in order to talk about per-copy legion weights.

Index conventions (fixed so certificates are portable across runs):

* lexicographic ``G o H``: vertex (u, v) gets the row-major index
  ``u * n_H + v``; the copy H_u is the contiguous block ``[u*n_H, (u+1)*n_H)``.
* corona ``G1 (.) G2``: vertex u of G1 keeps index u; the u-th copy of G2
  occupies the contiguous block ``n1 + u*n2 .. n1 + (u+1)*n2 - 1``.  The
  "copy" accessor for corona returns the unit {u} | block_u, the subgraph the
  corona weight argument reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, GraphError, VertexSet, _bits


@dataclass(frozen=True)
class ProductGraph:
    """A product graph plus the structure map back to its factors.

    ``copies[u]`` is the bitmask of product vertices grouped with factor-G
    vertex u (see the module docstring for what the group is per product
    kind).
    """

    graph: Graph
    kind: str  # "lexicographic" | "corona"
    g_factor: Graph
    h_factor: Graph
    copies: tuple[int, ...] = field(repr=False)

    @property
    def n_g(self) -> int:
        return self.g_factor.n

    @property
    def n_h(self) -> int:
        return self.h_factor.n

    def pair_index(self, u: int, v: int) -> int:
        """Flat index of (u, v); lexicographic products only."""
        if self.kind != "lexicographic":
            raise GraphError("pair indexing applies to lexicographic products")
        if not (0 <= u < self.n_g and 0 <= v < self.n_h):
            raise GraphError(f"pair ({u},{v}) out of range")
        return u * self.n_h + v

    def unpair(self, i: int) -> tuple[int, int]:
        if self.kind != "lexicographic":
            raise GraphError("pair indexing applies to lexicographic products")
        if not 0 <= i < self.graph.n:
            raise GraphError(f"index {i} out of range")
        return divmod(i, self.n_h)

    def copy_members(self, u: int) -> VertexSet:
        """The vertex group of factor vertex u as a set in the product."""
        if not 0 <= u < self.n_g:
            raise GraphError(f"factor vertex {u} out of range")
        return VertexSet(self.graph.n, self.copies[u])

    def index_map_json(self) -> dict:
        """A machine-readable description of the index map (CLI sidecar)."""
        return {
            "schema": "1",
            "kind": self.kind,
            "n_g": self.n_g,
            "n_h": self.n_h,
            "n": self.graph.n,
            "copies": [sorted(VertexSet(self.graph.n, c)) for c in self.copies],
        }


def lexicographic(g: Graph, h: Graph) -> ProductGraph:
    """The lexicographic product: (u,v) ~ (x,y) iff ux is a G-edge, or u = x
    and vy is an H-edge."""
    if g.n == 0 or h.n == 0:
        raise GraphError("lexicographic product needs nonempty factors")
    nh = h.n
    n = g.n * nh
    copies = tuple(((1 << nh) - 1) << (u * nh) for u in range(g.n))
    adj = []
    m = 0
    for u in range(g.n):
        outer = 0
        for x in _bits(g.adj[u]):
            outer |= copies[x]
        for v in range(nh):
            row = outer | (h.adj[v] << (u * nh))
            adj.append(row)
            m += row.bit_count()
    return ProductGraph(Graph(n, tuple(adj), m // 2), "lexicographic", g, h, copies)


def corona(g1: Graph, g2: Graph) -> ProductGraph:
    """The corona product: one copy of g2 per vertex of g1, fully joined to
    that vertex."""
    if g1.n == 0:
        raise GraphError("corona product needs a nonempty first factor")
    n1, n2 = g1.n, g2.n
    n = n1 * (1 + n2)
    edges = list(g1.edges())
    for u in range(n1):
        base = n1 + u * n2
        edges.extend((min(base + a, base + b), max(base + a, base + b)) for a, b in g2.edges())
        edges.extend((u, base + v) for v in range(n2))
    copies = tuple(
        (1 << u) | (((1 << n2) - 1) << (n1 + u * n2)) for u in range(n1)
    )
    return ProductGraph(Graph.from_edges(n, edges), "corona", g1, g2, copies)


def copy_weight(p: ProductGraph, f, u: int) -> int:
    """Total legion weight the function places on the copy of factor vertex u."""
    if not 0 <= u < p.n_g:
        raise GraphError(f"factor vertex {u} out of range")
    mask = p.copies[u]
    return (f.v1_mask & mask).bit_count() + 2 * (f.v2_mask & mask).bit_count()


def closed_copy_weight(p: ProductGraph, f, u: int) -> int:
    """Sum of copy weights over the closed factor neighbourhood of u."""
    if not 0 <= u < p.n_g:
        raise GraphError(f"factor vertex {u} out of range")
    total = 0
    for x in _bits(p.g_factor.closed[u]):
        total += copy_weight(p, f, x)
    return total
