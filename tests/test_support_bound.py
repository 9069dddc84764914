"""The gadget start bounds of the gamma_r search on G o H.

lambda(H) is the least weight on P3 o H that dominates and defends copies 0
(a leaf) and 1 (its support) when only those two copies must stay dominated;
the solver reads it off the vertex table M(H) below.  The support-gadget
bound is the heaviest 2-packing of G in which a support vertex of degree at
least 2 weighs lambda(H) and every other vertex weighs 2.  The vertex table
M(H) lists the minimal (a, b) such that a function on P2 o H with weight a
on copy 0 and b legions (capped at 2) on copy 1 keeps copy 0 dominated and
defended, and the copy-weight programme is the least total of copy weights
that meet M(H) at every vertex of G.  The solver starts at max(gamma_t(G),
packing bound, programme).  These tests check lambda and M(H) against brute
force, check that every optimum puts at least lambda(H) on the copies of a
support's closed neighbourhood, check that neither bound exceeds the value,
and check that the programme alone is at least gamma_r(G), gamma_t(G) and
the packing bound, so the start needs no gamma_r(G) search.
"""

import functools
import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from weakroman import SolverConfig, corona, enumerate_optimal_wrdf, lexicographic, oracle, solve
from weakroman import generators as gen
from weakroman.graph import Graph, _bits
from weakroman.solvers import _copy_programme, _Counter, _packing_bound, _support_weight, _vertex_table

_BLIND = SolverConfig(product_pruning=False)
_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None, database=None,
                     suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _table(h: Graph) -> tuple:
    return _vertex_table(h, _Counter(None, "gamma_r", 0))


def _lam(h: Graph) -> int:
    return _support_weight(_table(h))


def _programme(g: Graph, h: Graph, lo: int = 0) -> int:
    counter = _Counter(None, "gamma_r", 0)
    return _copy_programme(g, _vertex_table(h, counter), lo, 2 * solve("gamma_t", g).value, counter)


def _graphs(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for keep in itertools.product((False, True), repeat=len(pairs)):
        yield Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


def _noncomplete_up_to_isomorphism(n: int) -> list[Graph]:
    out = {}
    for h in _graphs(n):
        edges = [(u, v) for u in range(n) for v in _bits(h.adj[u]) if u < v]
        key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                  for p in itertools.permutations(range(n)))
        if not h.is_complete():
            out.setdefault(key, h)
    return list(out.values())


def _keeps_core(g: Graph, core: int, m2: int, m1: int) -> bool:
    """Whether every vertex of ``core`` is dominated under (V2, V1) = (m2,
    m1), and each of its zeros has a neighbour whose move of one legion to
    it leaves ``core`` dominated."""

    def dominated(pos: int) -> bool:
        cover = pos
        for v in _bits(pos):
            cover |= g.adj[v]
        return cover & core == core

    pos = m2 | m1
    if not dominated(pos):
        return False
    for v in _bits(core & ~pos):
        if not any(dominated((pos | 1 << v) & ~(m1 & 1 << u)) for u in _bits(g.adj[v] & pos)):
            return False
    return True


def _relaxed_minimum(h: Graph) -> int:
    """The least weight of a function on P3 o H that keeps copies 0 and 1
    dominated and defended (:func:`_keeps_core`) - by exhaustive search over
    the functions of each weight in turn."""
    g = lexicographic(gen.path(3), h).graph
    core = (1 << 2 * h.n) - 1
    ok = functools.partial(_keeps_core, g, core)

    for t in itertools.count():
        for k2 in range(t // 2 + 1):
            for v2 in itertools.combinations(range(g.n), k2):
                m2 = sum(1 << v for v in v2)
                rest = [v for v in range(g.n) if v not in v2]
                for v1 in itertools.combinations(rest, t - 2 * k2):
                    if ok(m2, sum(1 << v for v in v1)):
                        return t


def test_lambda_matches_brute_force_up_to_four_vertices():
    checked = 0
    for n in (2, 3, 4):
        for h in _noncomplete_up_to_isomorphism(n):
            assert _lam(h) == _relaxed_minimum(h), h.adj
            checked += 1
    assert checked == 14


@pytest.mark.parametrize("h, lam", [
    (gen.path(10), 4), (gen.empty(4), 4), (corona(gen.path(4), gen.empty(1)).graph, 4), (gen.cycle(10), 4),
    (gen.empty(3), 3), (gen.path(7), 3), (gen.cycle(6), 3), (gen.complete_bipartite(3, 3), 3),
    (gen.empty(2), 2), (gen.path(4), 2), (gen.cycle(5), 2), (gen.path(3), 2),
], ids=["P10", "empty4", "corona(P4,K1)", "C10", "empty3", "P7", "C6", "K33", "empty2", "P4", "C5", "P3"])
def test_lambda_values(h, lam):
    assert _lam(h) == lam


# lambda 2, 3, 3, 4 and 2: empty:3 and K2 + 2K1 are the smallest H with
# lambda 3, and empty:4 the smallest with lambda 4
_POOL = (gen.empty(2), gen.empty(3), Graph.from_edges(4, [(0, 1)]), gen.empty(4), gen.path(4))


@st.composite
def _connected(draw, max_n):
    n = draw(st.integers(2, max_n))
    # a random tree on 0..n-1 plus random chords keeps G connected
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    keep = draw(st.lists(st.booleans(), min_size=len(chords), max_size=len(chords)))
    return Graph.from_edges(n, sorted(edges) + [e for e, k in zip(chords, keep) if k])


def _supports(g: Graph) -> list[int]:
    """The vertices of degree at least 2 next to a vertex of degree 1."""
    return [s for s in range(g.n) if g.degree(s) >= 2 and any(g.degree(x) == 1 for x in _bits(g.adj[s]))]


@_SETTINGS
@given(_connected(6), st.sampled_from(range(len(_POOL))))
def test_every_optimum_puts_lambda_on_each_support(g, i):
    supports = _supports(g)
    assume(supports)
    h = _POOL[i]
    p = lexicographic(g, h)
    assume(p.graph.n <= 18)
    lam = _lam(h)
    regions = [sum(p.copies[x] for x in _bits(g.closed[s])) for s in supports]
    count = 0
    for f in enumerate_optimal_wrdf(p, _BLIND):
        for region in regions:
            assert (f.v1_mask & region).bit_count() + 2 * (f.v2_mask & region).bit_count() >= lam
        count += 1
    assert count


@_SETTINGS
@given(_connected(8), st.sampled_from(range(len(_POOL))))
def test_start_bounds_never_exceed_the_value(g, i):
    # the support-gadget packing bound and the copy-weight programme, which
    # alone reaches the packing bound and the factor's gamma_r and gamma_t
    h = _POOL[i]
    p = lexicographic(g, h)
    assume(p.graph.n <= 32)
    packing, _ = _packing_bound(g, _table(h), _Counter(None, "gamma_r", 0))
    programme = _programme(g, h)
    assert programme >= max(packing, solve("gamma_r", g).value, solve("gamma_t", g).value)
    assert programme <= solve("gamma_r", p, _BLIND).value
    if p.graph.n <= 12:
        assert programme <= oracle("gamma_r", p)


# lambda 3, 4, 3 and 3: the H whose support neighbourhoods the search asks
# for more than weight 2
_RAISED = (gen.empty(3), gen.empty(4), gen.cycle(6), gen.complete_bipartite(3, 3))


@_SETTINGS
@given(_connected(6), st.sampled_from(range(len(_RAISED))))
def test_raised_demand_agrees_with_blind_search(g, i):
    h = _RAISED[i]
    p = lexicographic(g, h)
    # the search raises the demand to lambda(H) on each support of degree
    # at least 2, so above 2 where G has one and lambda(H) > 2
    assume(_supports(g) and _lam(h) > 2 and p.graph.n <= 32)
    res = solve("gamma_r", p)
    blind = solve("gamma_r", p, _BLIND)
    assert (res.value, res.certificate) == (blind.value, blind.certificate)
    if p.graph.n <= 18:
        assert list(enumerate_optimal_wrdf(p)) == list(enumerate_optimal_wrdf(p, _BLIND))
    if p.graph.n <= 12:
        assert res.value == oracle("gamma_r", p)


# -- the vertex table and the copy-weight programme --------------------------


@pytest.mark.parametrize("h, table", [
    (gen.path(10), {(0, 2), (3, 1), (5, 0)}), (gen.cycle(10), {(0, 2), (3, 1), (5, 0)}),
    (gen.empty(4), {(0, 2), (3, 1), (4, 0)}), (corona(gen.path(4), gen.empty(1)).graph, {(0, 2), (3, 1), (4, 0)}),
    (gen.empty(5), {(0, 2), (4, 1), (5, 0)}),
], ids=["P10", "C10", "empty4", "corona(P4,K1)", "empty5"])
def test_vertex_table_values(h, table):
    assert set(_table(h)) == table


def _gadget_table(h: Graph) -> set:
    """The minimal (a, b) over every function on P2 o H that keeps copy 0
    dominated and defended: a its weight on copy 0, b its weight on copy 1
    capped at 2."""
    g = lexicographic(gen.path(2), h).graph
    core = (1 << h.n) - 1
    pairs = set()
    for values in itertools.product((0, 1, 2), repeat=g.n):
        m2 = sum(1 << v for v, x in enumerate(values) if x == 2)
        m1 = sum(1 << v for v, x in enumerate(values) if x == 1)
        if _keeps_core(g, core, m2, m1):
            pairs.add((sum(values[:h.n]), min(sum(values[h.n:]), 2)))
    return {(a, b) for a, b in pairs if not any((c, d) != (a, b) and c <= a and d <= b for c, d in pairs)}


def test_vertex_table_matches_brute_force_up_to_four_vertices():
    checked = 0
    for n in (2, 3, 4):
        for h in _noncomplete_up_to_isomorphism(n):
            assert set(_table(h)) == _gadget_table(h), h.adj
            checked += 1
    assert checked == 14


# gamma(H) 3, 4, 4 and 5: the programme reaches past the support-gadget
# bound mostly where H needs many legions to dominate itself
_DEEP = (gen.empty(3), gen.empty(4), corona(gen.path(4), gen.empty(1)).graph, gen.empty(5))


@_SETTINGS
@given(_connected(7), st.sampled_from(range(len(_DEEP))))
def test_raised_start_agrees_with_blind_search(g, i):
    h = _DEEP[i]
    p = lexicographic(g, h)
    assume(p.graph.n <= 32)
    # the programme runs from the solver's seed max(gamma_t(G), packing bound)
    total = solve("gamma_t", g).value
    seed = max(total, _packing_bound(g, _table(h), _Counter(None, "gamma_r", 0))[0])
    assume(seed < 2 * total and _programme(g, h, seed) > seed)
    res = solve("gamma_r", p)
    blind = solve("gamma_r", p, _BLIND)
    assert (res.value, res.certificate) == (blind.value, blind.certificate)
