"""Symmetry cuts of the gamma_r search: the twin rule and the per-copy Aut(H)
lex-leader cut keep the value and the canonical certificate.

``enumerate_optimal_wrdf`` streams its optima from a search with both cuts
off, so its first optimum is the reference certificate, and its full list
must not depend on the product prunes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weakroman import SolverConfig, corona, enumerate_optimal_wrdf, lexicographic, oracle, solve
from weakroman import generators as gen
from weakroman.graph import Graph
from weakroman.solvers import _automorphisms

_BLIND = SolverConfig(product_pruning=False)
# Above this size the optima lists are compared no more: C4oP10 (n = 40) has
# 44,100 optima and listing them twice takes about 3 s.
_LIST_MAX_N = 32


def _check_cuts_keep_certificate(p):
    res = solve("gamma_r", p)
    blind = solve("gamma_r", p, _BLIND)
    assert (res.value, res.certificate) == (blind.value, blind.certificate)
    assert res.certificate == next(enumerate_optimal_wrdf(p))
    if p.graph.n <= _LIST_MAX_N:
        assert list(enumerate_optimal_wrdf(p)) == list(enumerate_optimal_wrdf(p, _BLIND))
    if p.graph.n <= 12:
        assert res.value == oracle("gamma_r", p)


@st.composite
def _graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_graphs(5), _graphs(6))
def test_cuts_keep_value_and_certificate_random(g, h):
    _check_cuts_keep_certificate(lexicographic(g, h))


@pytest.mark.parametrize("h", [
    gen.path(10),
    gen.cycle(6),
    corona(gen.path(4), gen.empty(1)).graph,
    gen.star(4),
    gen.empty(4),
], ids=["P10", "C6", "corona(P4,K1)", "K14", "empty4"])
@pytest.mark.parametrize("g", [gen.path(3), gen.cycle(4)], ids=["P3", "C4"])
def test_cuts_keep_value_and_certificate_named(g, h):
    _check_cuts_keep_certificate(lexicographic(g, h))


def _is_automorphism(h, sigma):
    return sorted(sigma) == list(range(h.n)) and all(
        h.adjacent(sigma[u], sigma[v]) for u, v in h.edges()
    )


def test_automorphisms_keep_twin_order_and_skip_identity():
    for n in range(4, 9):
        auts = _automorphisms(gen.path(n))
        assert auts == (tuple(reversed(range(n))),)
    for n in range(5, 9):
        c = gen.cycle(n)
        auts = _automorphisms(c)
        assert len(auts) == 2 * n - 1 and len(set(auts)) == 2 * n - 1
        assert all(_is_automorphism(c, sigma) for sigma in auts)
    # every automorphism of these only permutes twins
    for k in range(1, 6):
        assert _automorphisms(gen.empty(k)) == ()
        assert _automorphisms(gen.star(k)) == ()
    # C4 is two classes of open twins: swapping the classes keeps each in order
    assert _automorphisms(gen.cycle(4)) == ((1, 0, 3, 2),)
