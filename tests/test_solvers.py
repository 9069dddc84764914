"""Solvers: legion-function predicates, exact values, certificates, oracle
agreement, enumeration of optima, determinism across shard counts."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weakroman import (
    BudgetExceededError,
    GraphError,
    LegionFunction,
    SolverConfig,
    UndefinedInvariantError,
    corona,
    enumerate_optimal_wrdf,
    is_dominating,
    is_rdf,
    is_roman_graph,
    is_secure_dominating,
    is_undefended,
    is_weak_roman_graph,
    is_wrdf,
    lexicographic,
    minimum_dominating_sets,
    oracle,
    random_connected,
    satisfies_property_p,
    solve,
)
from weakroman import generators as gen
from weakroman.graph import Graph, is_2packing, is_double_total_dominating, is_total_dominating


# -- legion functions and raw predicates -------------------------------------


def test_legion_function_basics():
    f = LegionFunction.from_values((0, 2, 1, 0))
    assert f.weight == 3
    assert sorted(f.v0) == [0, 3] and sorted(f.v1) == [2] and sorted(f.v2) == [1]
    assert f.values() == (0, 2, 1, 0)
    assert f == LegionFunction.from_sets(4, [2], [1])
    with pytest.raises(GraphError):
        LegionFunction.from_sets(4, [1], [1])
    with pytest.raises(GraphError):
        LegionFunction.from_values((0, 3))


def test_is_undefended():
    g = gen.path(3)
    zero = LegionFunction.from_values((0, 0, 0))
    assert all(is_undefended(g, zero, v) for v in range(3))
    f = LegionFunction.from_values((0, 1, 0))
    assert not any(is_undefended(g, f, v) for v in range(3))
    far = LegionFunction.from_values((1, 0, 0))
    assert is_undefended(g, far, 2)
    tree = gen.fig1_tree()
    placed = LegionFunction.from_sets(6, [2], [0])
    assert not is_undefended(tree, placed, 3)


def test_is_wrdf_fig1_placements():
    tree = gen.fig1_tree()
    # the two drawn optimal placements: 2 on the degree-3 vertex plus 1 on
    # either vertex of the long leg's far edge
    assert is_wrdf(tree, LegionFunction.from_sets(6, [2], [0]))
    assert is_wrdf(tree, LegionFunction.from_sets(6, [3], [0]))
    assert not is_wrdf(tree, LegionFunction.from_sets(6, [1], [0]))  # leaf 3 breaks


def test_is_wrdf_edge_cases():
    assert not is_wrdf(gen.complete(1), LegionFunction.from_values((0,)))
    assert is_wrdf(gen.complete(1), LegionFunction.from_values((1,)))
    for g in (gen.path(4), gen.cycle(5), gen.fig1_tree()):
        assert not is_wrdf(g, LegionFunction.from_sets(g.n, (), ()))
        assert is_wrdf(g, LegionFunction.from_sets(g.n, range(g.n), ()))
    # no weight-2 function secures a path on seven vertices
    p7 = gen.path(7)
    for a in range(7):
        assert not is_wrdf(p7, LegionFunction.from_sets(7, (), (a,)))
        for b in range(a + 1, 7):
            assert not is_wrdf(p7, LegionFunction.from_sets(7, (a, b), ()))


def test_is_rdf_examples():
    tree = gen.fig1_tree()
    assert is_rdf(tree, LegionFunction.from_sets(6, (), (0, 2)))
    assert is_rdf(tree, LegionFunction.from_values((1,) * 6))
    assert not is_rdf(tree, LegionFunction.from_sets(6, [2], [0]))  # optimal WRDF is not an RDF


def test_property_p():
    star = gen.star(4)
    assert satisfies_property_p(star, 0)
    p4 = gen.path(4)
    assert satisfies_property_p(p4, 0)
    c7 = gen.cycle(7)
    assert not any(satisfies_property_p(c7, v) for v in range(7))


# -- solve: fixed values ------------------------------------------------------


@pytest.mark.parametrize("invariant,builder,value", [
    ("gamma_r", lambda: gen.path(7), 3),
    ("gamma_r", lambda: gen.complete(6), 1),
    ("gamma_t", lambda: gen.path(7), 4),
    ("rho", lambda: gen.path(7), 3),
    ("gamma_r", lambda: gen.fig4_twocycles(), 4),
    ("gamma_t", lambda: gen.fig4_twocycles(), 5),
    ("gamma_2t", lambda: gen.grs(4, 4), 5),
    ("gamma_r", lambda: gen.complete_bipartite(3, 3), 3),
    ("gamma_t", lambda: gen.complete_bipartite(3, 3), 2),
    ("gamma_s", lambda: gen.cycle(5), 3),
    ("gamma_R", lambda: gen.path(7), 5),
    ("gamma", lambda: gen.fig1_tree(), 2),
    ("gamma_r", lambda: gen.fig1_tree(), 3),
    ("gamma_R", lambda: gen.fig1_tree(), 4),
])
def test_fixed_values(invariant, builder, value):
    assert solve(invariant, builder()).value == value


def test_certificates_validate_under_raw_predicates():
    checks = {
        "gamma": is_dominating,
        "gamma_t": is_total_dominating,
        "gamma_2t": is_double_total_dominating,
        "gamma_s": is_secure_dominating,
        "rho": is_2packing,
    }
    for seed in range(12):
        g = random_connected(4 + seed % 5, 0.5, seed)
        for invariant, predicate in checks.items():
            if invariant == "gamma_2t" and g.min_degree() < 2:
                continue
            res = solve(invariant, g)
            assert predicate(g, res.certificate)
            assert len(res.certificate) == res.value
        for invariant, predicate in (("gamma_r", is_wrdf), ("gamma_R", is_rdf)):
            res = solve(invariant, g)
            assert predicate(g, res.certificate)
            assert res.certificate.weight == res.value


@st.composite
def _small_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


# combinations() runs in ascending lexicographic order, so the first
# 2-packing of the largest size, or the first feasible set of the smallest,
# is the canonical certificate.  For gamma_s this guards the twin rule of
# the weak Roman search, which it runs with V2 empty; for gamma, gamma_t and
# gamma_2t it guards the coverage-deficit prune of the set search.  Where
# the predicate finds gamma_t or gamma_2t undefined, so must the solver.
@pytest.mark.parametrize("invariant, sizes, predicate", [
    ("rho", lambda n: range(n, 0, -1), is_2packing),
    ("gamma_s", lambda n: range(1, n + 1), is_secure_dominating),
    ("gamma", lambda n: range(1, n + 1), is_dominating),
    ("gamma_t", lambda n: range(1, n + 1), is_total_dominating),
    ("gamma_2t", lambda n: range(1, n + 1), is_double_total_dominating),
], ids=["rho", "gamma_s", "gamma", "gamma_t", "gamma_2t"])
@given(g=_small_graphs())
@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_rho_certificate_is_first_maximum_packing(invariant, sizes, predicate, g):
    try:
        first = next(s for k in sizes(g.n) for s in itertools.combinations(range(g.n), k) if predicate(g, s))
    except UndefinedInvariantError:
        with pytest.raises(UndefinedInvariantError):
            solve(invariant, g)
        return
    assert sorted(solve(invariant, g).certificate) == list(first)


# every minimum dominating set, in the order combinations() lists them;
# on a disconnected graph they are the products of the components' lists
@given(g=_small_graphs())
@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_minimum_dominating_sets_are_every_minimum(g):
    brute = []
    for k in range(1, g.n + 1):
        brute = [list(s) for s in itertools.combinations(range(g.n), k) if is_dominating(g, s)]
        if brute:
            break
    assert [sorted(s) for s in minimum_dominating_sets(g)] == brute


@st.composite
def _connected_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, tree | {e for e, k in zip(pairs, keep) if k})


# an optimal Roman dominating function has V1 = V minus N[V2], so the
# canonical certificate is the optimum with the least sorted V2
@given(g=_connected_graphs())
@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_gamma_R_certificate_has_least_v2(g):
    best = None
    for k in range(g.n + 1):
        for v2 in itertools.combinations(range(g.n), k):
            v1 = tuple(v for v in range(g.n) if not any(g.closed[u] >> v & 1 for u in v2))
            f = LegionFunction.from_sets(g.n, v1, v2)
            assert is_rdf(g, f)
            if best is None or (f.weight, f.key()) < (best.weight, best.key()):
                best = f
    res = solve("gamma_R", g)
    assert res.value == best.weight
    assert res.certificate.key() == best.key()


# the least (weight, key) over all 3^n functions is the value and the
# canonical certificate; this guards the V2 cap of the plain gamma_r search
@given(g=_connected_graphs(max_n=7))
@settings(max_examples=80, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_gamma_r_certificate_is_least_function(g):
    best = None
    for values in itertools.product((0, 1, 2), repeat=g.n):
        if best is not None and sum(values) > best.weight:
            continue
        f = LegionFunction.from_values(values)
        if (best is None or (f.weight, f.key()) < (best.weight, best.key())) and is_wrdf(g, f):
            best = f
    res = solve("gamma_r", g)
    assert res.value == best.weight
    assert res.certificate == best


def test_undefined_invariant_errors():
    lonely = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(UndefinedInvariantError):
        solve("gamma_t", lonely)
    with pytest.raises(UndefinedInvariantError):
        solve("gamma_2t", gen.path(4))
    empty = gen.path(1).induced([])
    with pytest.raises(UndefinedInvariantError):
        solve("gamma_r", empty)
    with pytest.raises(GraphError):
        solve("nosuch", gen.path(3))


def test_component_additivity():
    p3 = gen.path(3)
    double = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # P3 + P3
    for invariant in ("gamma", "gamma_r", "gamma_R", "gamma_s", "rho"):
        assert solve(invariant, double).value == 2 * solve(invariant, p3).value


def test_disconnected_certificate_is_the_union_of_component_certificates():
    # for gamma_r and gamma_R the union of the components' least optima need
    # not be the least optimum of the whole graph: V2 is compared first
    p3_k13 = Graph.from_edges(7, [(0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])  # centres 0 and 1
    assert solve("gamma_r", p3_k13).certificate.key() == ((1,), (0, 2))
    assert next(enumerate_optimal_wrdf(p3_k13)).key() == ((0, 1), ())
    k2_k13 = Graph.from_edges(6, [(0, 1), (2, 3), (2, 4), (2, 5)])  # centre 2
    res = solve("gamma_R", k2_k13)
    assert res.value == 4 and res.certificate.key() == ((2,), (0, 1))
    assert is_rdf(k2_k13, LegionFunction.from_sets(6, [], [0, 2]))


def test_domination_chain_random():
    for seed in range(40):
        g = random_connected(4 + seed % 6, 0.4, seed)
        gamma = solve("gamma", g).value
        gr = solve("gamma_r", g).value
        gR = solve("gamma_R", g).value
        assert gamma <= gr <= gR <= 2 * gamma
        assert solve("gamma_s", g).value >= gr


def test_weak_roman_iff_one_and_two():
    # value 1 exactly on complete graphs
    assert solve("gamma_r", gen.complete(4)).value == 1
    for seed in range(20):
        g = random_connected(3 + seed % 5, 0.45, seed)
        gr = solve("gamma_r", g).value
        assert (gr == 1) == g.is_complete()
        if not g.is_complete():
            gamma = solve("gamma", g).value
            gs = solve("gamma_s", g).value
            assert (gr == 2) == (gamma == 1 or gs == 2)


def test_edge_removal_monotone():
    for seed in range(10):
        g = random_connected(6 + seed % 3, 0.45, seed)
        gr = solve("gamma_r", g).value
        for u, v in list(g.edges()):
            assert solve("gamma_r", g.remove_edge(u, v)).value >= gr


def test_weak_roman_and_roman_graph_flags():
    tree = gen.fig1_tree()
    assert is_roman_graph(tree)
    assert not is_weak_roman_graph(tree)
    k1 = gen.complete(1)
    assert not is_weak_roman_graph(k1)
    assert not is_roman_graph(k1)
    assert is_weak_roman_graph(gen.fig6_spider())


# -- oracle -------------------------------------------------------------------


def test_oracle_examples():
    assert oracle("gamma_r", gen.cycle(4)) == 2
    assert oracle("gamma", gen.complete(1)) == 1
    assert oracle("gamma_R", gen.path(7)) == 5


def test_oracle_limits():
    with pytest.raises(GraphError):
        oracle("gamma_r", gen.path(13))
    with pytest.raises(GraphError):
        oracle("gamma", gen.path(21))


def test_oracle_agreement_small_sweep():
    # the full 200-seed sweep is acceptance criterion 3; this is a quick gate
    for seed in range(30):
        g = random_connected(4 + seed % 4, 0.45, seed)
        for invariant in ("gamma", "gamma_t", "rho", "gamma_s", "gamma_r", "gamma_R"):
            assert solve(invariant, g).value == oracle(invariant, g), (invariant, seed)


# -- enumeration of optima ----------------------------------------------------


def test_enumerate_k3():
    opts = list(enumerate_optimal_wrdf(gen.complete(3)))
    assert [(sorted(f.v2), sorted(f.v1)) for f in opts] == [([], [0]), ([], [1]), ([], [2])]


def test_enumerate_p4_all_weight_two():
    opts = list(enumerate_optimal_wrdf(gen.path(4)))
    assert all(f.weight == 2 and not f.v2_mask for f in opts)
    assert [sorted(f.v1) for f in opts] == [[0, 2], [0, 3], [1, 2], [1, 3]]


def test_enumerate_fig1_contains_drawn_placements():
    opts = set(enumerate_optimal_wrdf(gen.fig1_tree()))
    assert LegionFunction.from_sets(6, [2], [0]) in opts
    assert LegionFunction.from_sets(6, [3], [0]) in opts
    assert all(f.weight == 3 for f in opts)


def test_enumerate_matches_bruteforce():
    import itertools

    for seed in range(8):
        g = random_connected(5 + seed % 3, 0.4, seed)
        best = oracle("gamma_r", g)
        brute = set()
        for values in itertools.product((0, 1, 2), repeat=g.n):
            if sum(values) == best:
                f = LegionFunction.from_values(values)
                if is_wrdf(g, f):
                    brute.add(f)
        got = list(enumerate_optimal_wrdf(g))
        assert set(got) == brute
        assert got == sorted(got, key=lambda f: f.key())


def test_enumerate_streams():
    # the first optimum comes out long before the whole list is built:
    # listing every optimum needs about 35k nodes
    g = lexicographic(gen.cycle(4), corona(gen.path(4), gen.empty(1)).graph)
    first = next(enumerate_optimal_wrdf(g, SolverConfig(node_budget=10_000)))
    assert first.weight == solve("gamma_r", g).value
    with pytest.raises(BudgetExceededError):
        list(enumerate_optimal_wrdf(g, SolverConfig(node_budget=10_000)))


def _optima_by_brute_force(g: Graph, t: int) -> list:
    """The weak Roman dominating functions of weight exactly t, by the raw
    predicate over every (V2, V1) of that weight, in canonical order."""
    out = []
    for k2 in range(t // 2 + 1):
        for v2 in itertools.combinations(range(g.n), k2):
            rest = [v for v in range(g.n) if v not in v2]
            for v1 in itertools.combinations(rest, t - 2 * k2):
                f = LegionFunction.from_sets(g.n, v1, v2)
                if is_wrdf(g, f):
                    out.append(f)
    return sorted(out, key=LegionFunction.key)


# a plain piece streams its optima with V2 capped at val - gamma(G); the
# stream alone took 304, 166 and 122 nodes without the cap, the value
# search 44, 24 and 30 before it
@pytest.mark.parametrize("g, count, budget", [
    (gen.path(10), 36, 258), (gen.cycle(8), 30, 134), (gen.comb(7), 24, 110),
], ids=["P10", "C8", "comb7"])
def test_enumerate_caps_v2_on_plain_pieces(g, count, budget):
    got = list(enumerate_optimal_wrdf(g, SolverConfig(node_budget=budget)))
    assert len(got) == count
    assert got == _optima_by_brute_force(g, solve("gamma_r", g).value)
    with pytest.raises(BudgetExceededError):
        list(enumerate_optimal_wrdf(g, SolverConfig(node_budget=budget - 1)))


def test_enumerate_disconnected_cross_product():
    double = Graph.from_edges(4, [(0, 1), (2, 3)])  # K2 + K2
    opts = list(enumerate_optimal_wrdf(double))
    assert len(opts) == 4  # one legion per component, two spots each
    assert all(f.weight == 2 for f in opts)


# -- determinism and configuration -------------------------------------------


def test_shard_determinism():
    p4 = lexicographic(gen.path(4), gen.path(10))
    for g in (gen.fig4_twocycles(), gen.comb(7), lexicographic(gen.cycle(4), gen.path(7)), p4):
        results = [solve("gamma_r", g, SolverConfig(shards=k)) for k in (1, 2, 8)]
        assert len({r.value for r in results}) == 1
        assert len({r.certificate for r in results}) == 1
        assert len({r.nodes for r in results}) == 1
    # one node budget covers the whole search, so the verdict cannot depend
    # on the shard count (P4oP10 needs 447 nodes)
    lowers = set()
    for k in (1, 2, 8):
        with pytest.raises(BudgetExceededError) as exc:
            solve("gamma_r", p4, SolverConfig(shards=k, node_budget=300))
        lowers.add(exc.value.lower)
    assert lowers == {4}
    with pytest.raises(GraphError):
        SolverConfig(shards=0)


# Node counts decide budget verdicts, so a change to the search that keeps
# every value may still move them; these pin the gamma_r counts.
@pytest.mark.parametrize("g, nodes", [
    (lexicographic(gen.cycle(4), gen.path(10)), 140),
    (lexicographic(gen.cycle(4), corona(gen.path(4), gen.empty(1)).graph), 83),
    (lexicographic(gen.cycle(5), gen.empty(4)), 100),
    (lexicographic(gen.path(3), gen.cycle(6)), 35),
    (gen.fig6_spider(), 869),
    (gen.cycle(8), 24),
    (gen.path(10), 44),
    (lexicographic(gen.cycle(5), gen.path(10)), 13417),
    (lexicographic(gen.comb(5), gen.path(10)), 134),
    (lexicographic(gen.path(5), gen.path(10)), 733),
    (lexicographic(gen.fig6_spider(), gen.empty(4)), 150),
    (lexicographic(gen.path(7), gen.path(10)), 151),
    (lexicographic(gen.path(6), gen.path(10)), 251),
    (lexicographic(gen.path(8), gen.path(10)), 743),
    (lexicographic(gen.path(3), gen.path(10)), 129),
    (lexicographic(gen.path(4), gen.path(10)), 447),
    (lexicographic(gen.star(3), gen.path(10)), 353),
], ids=["C4oP10", "C4ocorona(P4,K1)", "C5oempty4", "P3oC6", "fig6_spider", "C8", "P10", "C5oP10", "comb5oP10",
        "P5oP10", "fig6_spideroempty4", "P7oP10", "P6oP10", "P8oP10", "P3oP10", "P4oP10", "K13oP10"])
def test_gamma_r_node_counts(g, nodes):
    assert solve("gamma_r", g).nodes == nodes


def test_node_counts_repeat_in_one_process():
    # nothing a solve searches (the vertex table, the factors' values) is
    # kept for the next call
    for g in (lexicographic(gen.cycle(4), gen.path(10)), lexicographic(gen.path(3), gen.cycle(6))):
        first, second = solve("gamma_r", g), solve("gamma_r", g)
        assert (first.nodes, first.certificate) == (second.nodes, second.certificate)


@pytest.mark.parametrize("g, h", [
    (gen.path(2), gen.path(10)), (gen.cycle(4), gen.path(10)), (gen.cycle(5), gen.empty(4)),
    (gen.path(3), gen.cycle(6)),
], ids=["P2oP10", "C4oP10", "C5oempty4", "P3oC6"])
def test_budget_intervals_bracket_the_value(g, h):
    # at every budget the interval holds the value.  The upper end is the
    # weight 2 gamma_t(G) of the witness V2 = {(u, 0) : u in a minimum total
    # dominating set of G} once the gamma_t(G) search, the first one, is
    # done; before it the witness V2 = {(u, 0) : u in V(G)} gives 2 n(G).
    p = lexicographic(g, h)
    solved = solve("gamma_r", p)
    total = solve("gamma_t", g)
    for budget in range(1, solved.nodes):
        with pytest.raises(BudgetExceededError) as exc:
            solve("gamma_r", p, SolverConfig(node_budget=budget))
        lower, upper = exc.value.lower, exc.value.upper
        assert lower <= solved.value <= upper, budget
        assert upper <= (2 * total.value if budget >= total.nodes else 2 * g.n), budget
    assert solve("gamma_r", p, SolverConfig(node_budget=solved.nodes)).value == solved.value


# P6oP10 and P8oP10 took 293,509 and 1,662,493 nodes before the lookahead
# asked lambda(P10) = 4 of each support neighbourhood; the value and the
# canonical certificate are the ones that search found
@pytest.mark.parametrize("g_n, v1", [
    (6, [0, 1, 10, 11, 30, 31, 40, 41]),
    (8, [10, 11, 20, 21, 50, 51, 60, 61]),
], ids=["P6oP10", "P8oP10"])
def test_raised_demand_keeps_canonical_certificate(g_n, v1):
    p = lexicographic(gen.path(g_n), gen.path(10))
    res = solve("gamma_r", p)
    assert res.value == 8
    assert res.certificate == LegionFunction.from_sets(p.graph.n, v1, ())
    assert is_wrdf(p.graph, res.certificate)


def test_budget_exceeded_reports_interval():
    from weakroman import BudgetExceededError

    with pytest.raises(BudgetExceededError) as exc:
        solve("gamma_r", lexicographic(gen.path(5), gen.path(10)), SolverConfig(node_budget=100))
    assert exc.value.lower >= 1
    # the upper end is 2 gamma_t(P5) = 6, from V2 = {(u, 0) : u in a minimum
    # total dominating set of P5}
    assert exc.value.upper == 6


def test_max_weight_cap():
    from weakroman import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        solve("gamma_r", gen.path(7), SolverConfig(max_weight=2))
    # the cap binds gamma_R too, and the error carries the bound above the cap
    with pytest.raises(BudgetExceededError) as exc:
        solve("gamma_R", gen.path(7), SolverConfig(max_weight=2))
    assert exc.value.lower == 3
    assert solve("gamma_R", gen.path(7), SolverConfig(max_weight=5)).value == 5
    # a cap below the start weight gamma(P7) = 3 still reports that bound
    for invariant in ("gamma_r", "gamma_R"):
        with pytest.raises(BudgetExceededError) as exc:
            solve(invariant, gen.path(7), SolverConfig(max_weight=1))
        assert exc.value.lower == 3
        # the upper end is 2 gamma(P7), from V2 = a minimum dominating set
        assert exc.value.upper == 6


def test_max_weight_below_the_start_on_a_product():
    # P5oP10 starts at its value 6 > gamma_r(P5) = 3; a cap below either
    # reports that start and the 2 gamma_t(P5) witness
    p = lexicographic(gen.path(5), gen.path(10))
    for cap in (2, 5):
        with pytest.raises(BudgetExceededError) as exc:
            solve("gamma_r", p, SolverConfig(max_weight=cap))
        assert (exc.value.lower, exc.value.upper) == (6, 6)


def test_max_weight_caps_the_whole_graph():
    double = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # P3 + P3, value 2 + 2
    capped = SolverConfig(max_weight=3)
    for invariant in ("gamma_r", "gamma_R"):
        with pytest.raises(BudgetExceededError) as exc:
            solve(invariant, double, capped)
        assert exc.value.lower == 4
        assert solve(invariant, double, SolverConfig(max_weight=4)).value == 4
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_optimal_wrdf(double, capped))
    assert exc.value.lower == 4


def test_budget_lower_bound_covers_the_whole_graph():
    # P8 + P8 has value 4 + 4: a budget error counts the solved piece, the
    # open piece's bound and 1 for each piece not yet started
    double = Graph.from_edges(16, [(i, i + 1) for i in (*range(7), *range(8, 15))])
    lowers = []
    for budget in (20, 25, 35):
        with pytest.raises(BudgetExceededError) as exc:
            solve("gamma_r", double, SolverConfig(node_budget=budget))
        lowers.append(exc.value.lower)
    assert lowers == [5, 7, 7]


def test_budget_upper_bound_covers_the_whole_graph():
    # P8 + P8 again: the upper end counts the solved piece, the open piece's
    # witness (2 gamma(P8) = 6 once gamma is known, f = 1 of weight 8
    # before) and the vertex count of each piece not yet started
    double = Graph.from_edges(16, [(i, i + 1) for i in (*range(7), *range(8, 15))])
    uppers = []
    for budget in (20, 25, 35):
        with pytest.raises(BudgetExceededError) as exc:
            solve("gamma_r", double, SolverConfig(node_budget=budget))
        uppers.append(exc.value.upper)
    assert uppers == [6 + 8, 4 + 8, 4 + 6]


def test_minimum_dominating_sets_budget_covers_the_whole_graph():
    # P6 + P6 has gamma 2 + 2.  Listing the sets of the first component,
    # the error counts its value 2 and 1 for the second; in the second, the
    # solved 2 and the open piece's 2.  Set invariants carry no witness, so
    # the open and unstarted pieces count their vertex counts above.
    double = Graph.from_edges(12, [(i, i + 1) for i in (*range(5), *range(6, 11))])
    intervals = []
    for budget in (5, 10):
        with pytest.raises(BudgetExceededError) as exc:
            minimum_dominating_sets(double, SolverConfig(node_budget=budget))
        intervals.append((exc.value.lower, exc.value.upper))
    with pytest.raises(BudgetExceededError) as exc:
        solve("gamma", double, SolverConfig(node_budget=3))
    assert intervals == [(3, 12), (4, 8)] and (exc.value.lower, exc.value.upper) == (4, 8)
    assert len(minimum_dominating_sets(double)) == 1


@pytest.mark.parametrize("g, rho", [
    (gen.path(30), 10),
    (Graph.from_edges(12, [(i, i + 1) for i in (*range(5), *range(6, 11))]), 4),  # P6 + P6
], ids=["P30", "P6+P6"])
def test_rho_budget_reports_packing_found(g, rho):
    # a budget error's lower end is the heaviest packing found so far in
    # the open piece, at least 1 for each piece, and never above rho
    pieces = len(g.components())
    for budget in (1, 2, 3, 5, 10, 15):
        try:
            assert solve("rho", g, SolverConfig(node_budget=budget)).value == rho
        except BudgetExceededError as exc:
            assert pieces <= exc.lower <= rho <= exc.upper, budget
    with pytest.raises(BudgetExceededError) as exc:
        solve("rho", gen.path(30), SolverConfig(node_budget=20))
    assert exc.value.lower == 10


def test_product_route_agrees_with_blind_route():
    cases = [
        (gen.path(4), gen.path(4)),
        (gen.cycle(4), gen.empty(3)),
        (gen.star(3), gen.path(4)),
        (gen.complete(3), gen.cycle(5)),
    ]
    blind = SolverConfig(product_pruning=False)
    for g, h in cases:
        p = lexicographic(g, h)
        assert solve("gamma_r", p).value == solve("gamma_r", p, blind).value
