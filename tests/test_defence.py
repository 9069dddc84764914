"""The defence kernel against the raw definitions on small random graphs.

``_defended`` (the leaf test of the weak Roman search) must agree
with ``is_wrdf`` and ``is_secure_dominating``; the kernel ``_undefended``
must return exactly the V0 vertices that no legal move defends, vertex by
vertex, which is what lets the search fold its last checks into the leaf;
and the gamma_r search with its symmetry cuts off must yield exactly the
weak Roman dominating functions of each weight, also at the weights above
the optimum, where the early defence checkpoints see placements that no
optimum-only test reaches.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weakroman import LegionFunction, is_dominating, is_secure_dominating, is_wrdf
from weakroman.graph import Graph, _bits
from weakroman.solvers import _Counter, _defended, _undefended, _WrdfSearch

_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def _placements(draw):
    """A graph with a random (V2, V1) on it."""
    g = draw(_graphs())
    values = draw(st.lists(st.sampled_from((0, 0, 1, 2)), min_size=g.n, max_size=g.n))
    return g, LegionFunction.from_values(values)


@st.composite
def _dominating_placements(draw):
    """A graph with a random dominating (V2, V1) on it - each vertex the
    drawn values leave uncovered takes a legion - and a few check masks."""
    g, f = draw(_placements())
    m1 = f.v1_mask
    for v in range(g.n):
        if not g.closed[v] & (m1 | f.v2_mask):
            m1 |= 1 << v
    checks = draw(st.lists(st.integers(0, (1 << g.n) - 1), min_size=1, max_size=4))
    return g, LegionFunction(g.n, m1, f.v2_mask), checks


def _undefended_by_definition(g: Graph, f: LegionFunction) -> int:
    """The V0 vertices to which no neighbour can send a legion and leave
    the positive set dominating."""
    pos = f.v1_mask | f.v2_mask
    out = 0
    for v in _bits(((1 << g.n) - 1) & ~pos):
        defended = False
        for u in _bits(g.adj[v] & pos):
            moved = pos | 1 << v
            if f.v1_mask >> u & 1:
                moved &= ~(1 << u)
            defended = defended or is_dominating(g, moved)
        if not defended:
            out |= 1 << v
    return out


def _covers(g: Graph, positive: int) -> tuple[int, int]:
    """The vertices covered at least once and at least twice by the closed
    neighbourhoods of ``positive``."""
    once = twice = 0
    for v in range(g.n):
        if positive >> v & 1:
            twice |= once & g.closed[v]
            once |= g.closed[v]
    return once, twice


@_SETTINGS
@given(_placements())
def test_defended_is_wrdf(case):
    g, f = case
    cov1, cov2 = _covers(g, f.v1_mask | f.v2_mask)
    assert _defended(g, f.v2_mask, f.v1_mask, cov1, cov2, {}) == is_wrdf(g, f)


@_SETTINGS
@given(_placements())
def test_defended_without_v2_is_secure_domination(case):
    g, f = case
    cov1, cov2 = _covers(g, f.v1_mask)
    assert _defended(g, 0, f.v1_mask, cov1, cov2, {}) == is_secure_dominating(g, f.v1_mask)


@_SETTINGS
@given(_dominating_placements())
def test_kernel_returns_the_undefended_vertices(case):
    g, f, checks = case
    cov1, cov2 = _covers(g, f.v1_mask | f.v2_mask)
    full = (1 << g.n) - 1
    common: dict[int, int] = {}
    bad = _undefended(g.adj, g.closed, full, f.v2_mask, f.v1_mask, cov1 & ~cov2, common)
    assert bad == _undefended_by_definition(g, f)
    # each vertex's verdict is its own: checking a window is the full
    # verdict masked by it, with the memo shared across the calls
    for check in checks:
        assert _undefended(g.adj, g.closed, check, f.v2_mask, f.v1_mask, cov1 & ~cov2, common) == bad & check


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_graphs())
def test_search_yields_every_wrdf_of_each_weight(g):
    by_weight: dict[int, set] = {}
    for values in itertools.product((0, 1, 2), repeat=g.n):
        f = LegionFunction.from_values(values)
        if f.weight <= g.n and is_wrdf(g, f):
            by_weight.setdefault(f.weight, set()).add((f.v2_mask, f.v1_mask))
    search = _WrdfSearch(g)
    for t in range(g.n + 1):
        found = list(search.at_weight(t, _Counter(None, "gamma_r", g.n), symmetry=False))
        assert set(found) == by_weight.get(t, set())
        # each function once, in canonical (sorted V2, sorted V1) order
        keys = [LegionFunction(g.n, m1, m2).key() for m2, m1 in found]
        assert keys == sorted(set(keys))
