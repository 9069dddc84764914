"""Claim registry: formulas, structure finders, the reduction, verdicts."""

import inspect
import json
from pathlib import Path

import pytest

from weakroman import (
    GraphError,
    REGISTRY,
    closed_formula,
    find_P3_sets,
    find_P4_sets,
    lexicographic,
    reduce_P4,
    resolve_graph,
    solve,
    summary_table,
    verify_all,
    verify_claim,
)
from weakroman import generators as gen
from weakroman.solvers import SolverConfig
from weakroman.theorems import PARAMETERS


def test_closed_formula_values():
    assert closed_formula("gamma_r_path_cycle", 7) == 3
    assert [closed_formula("gamma_r_path_cycle", n) for n in range(4, 10)] == [2, 3, 3, 3, 4, 4]
    assert closed_formula("gamma_t_path", 7) == 4
    assert closed_formula("gamma_r_lex_path", 4) == 4
    assert closed_formula("gamma_r_lex_path", 6) == 8
    assert closed_formula("gamma_r_lex_path", 7) == 8
    assert closed_formula("gamma_r_lex_comb", 6) == 8
    assert closed_formula("two_thirds_bound", 6) == 8
    with pytest.raises(GraphError):
        closed_formula("gamma_r_path_cycle", 3)
    with pytest.raises(GraphError):
        closed_formula("nosuch", 5)


def test_find_p3_sets():
    t7 = gen.comb(7)
    assert find_P3_sets(t7) == [(0, 3, 4), (1, 5, 6)]
    assert find_P3_sets(gen.cycle(5)) == []
    assert find_P3_sets(gen.star(3)) == []


def test_find_p4_sets():
    assert (1, 2, 3, 4) in find_P4_sets(gen.path(7))
    sets = find_P4_sets(gen.cycle(8))
    assert len(sets) == 16  # 8 rotations, both orientations
    reversed_too = {tuple(reversed(s)) for s in sets}
    assert reversed_too == set(sets)
    assert find_P4_sets(gen.star(3)) == []


def test_reduce_p4_examples():
    red = reduce_P4(gen.path(7), (1, 2, 3, 4))
    assert red.graph.n == 3 and not red.degenerate
    assert sorted(red.graph.edges()) == [(0, 1), (1, 2)]
    assert red.vertex_map == (0, 5, 6)

    red = reduce_P4(gen.cycle(8), (0, 1, 2, 3))
    assert red.graph.n == 4 and red.graph.edge_count == 4 and not red.degenerate

    red = reduce_P4(gen.cycle(6), (0, 1, 2, 3))
    assert red.graph.n == 2 and red.graph.edge_count == 1
    assert red.degenerate and red.dropped_duplicates == 1

    red = reduce_P4(gen.cycle(5), (0, 1, 2, 3))
    assert red.graph.n == 1 and red.degenerate and red.dropped_loops == 1

    with pytest.raises(GraphError):
        reduce_P4(gen.path(7), (0, 1, 2, 3))


def test_reduce_p4_join_property():
    # without degeneracy, every outside neighbour of x1 ends adjacent to
    # every outside neighbour of x4
    g = gen.cycle(8)
    red = reduce_P4(g, (0, 1, 2, 3))
    inv = {orig: i for i, orig in enumerate(red.vertex_map)}
    for a in g.neighbors(0) - {1}:
        for b in g.neighbors(3) - {2}:
            assert red.graph.adjacent(inv[a], inv[b])


def test_resolve_graph_specs():
    assert resolve_graph("path:5").n == 5
    assert resolve_graph("hk:3,1,1,1").n == 6
    assert resolve_graph("fig1_tree").n == 6
    assert resolve_graph("random:6,0.4,3").is_connected()
    assert resolve_graph("lex(path:2,path:3)").n == 6
    assert resolve_graph("corona(path:2,empty:2)").n == 6
    assert resolve_graph("edges:3:0-1,1-2").edge_count == 2
    with pytest.raises(GraphError):
        resolve_graph("nosuch:3")


def test_registry_covers_spec_claims():
    ids = {c.id for c in REGISTRY}
    required = {
        "chain", "complete_iff", "wrdn2_iff", "path_cycle_formula", "hamiltonian_bound",
        "lex_upper_2gt", "lex_upper_maxdeg4", "lex_upper_diam2", "lex_upper_two_thirds",
        "lex_upper_tree_ns", "lex_upper_planar6", "lex_upper_4gamma", "lex_upper_gamma_gammar",
        "lex_upper_g2t", "copy_lemma", "lex_lower_max", "tree_lower_2gamma",
        "lex_complete_second", "eq_2gt", "corona_eq", "weakroman_eq_2gamma",
        "strongsupport_tree", "star_leaf_4gamma", "eq_g2t", "kn_lex", "star_lex",
        "p3_lemma", "comb_formula", "p4_reduction", "cycle_lex", "path_lex",
        "twoouterweights", "grs_value", "hk_value",
    }
    assert required <= ids
    for claim in REGISTRY:
        assert claim.statement
        assert claim.kind in ("formula", "inequality", "equivalence", "existence", "reduction")


def test_claim_params_follow_the_parameter_table():
    for claim in REGISTRY:
        assert isinstance(claim.params, tuple) and set(claim.params) <= set(PARAMETERS)
        for instance in claim.defaults:
            assert set(claim.params) <= set(instance), (claim.id, instance)
        assert list(inspect.signature(claim.runner).parameters) == ["cfg", *claim.params], claim.id


@pytest.mark.parametrize("claim_id, instance", [
    ("chain", {}),
    ("kn_lex", {"n": 3}),
    ("chain", {"g": "path:x"}),
    ("chain", {"g": "path:2,3"}),
    ("hk_value", {"k": 3, "sizes": "1,x", "h": "path:3"}),
    ("p3_lemma", {"g": "path:5", "triple": 7, "h": "empty:4"}),
])
def test_verify_claim_rejects_missing_or_malformed_parameters(claim_id, instance):
    with pytest.raises(GraphError):
        verify_claim(claim_id, instance)


def test_tuple_parameters_take_text_or_sequences():
    assert verify_claim("hk_value", {"k": 3, "sizes": "1,1,1", "h": "path:3"}).verdict == "holds"
    assert verify_claim("hk_value", {"k": "3", "sizes": ["1", 1, 1], "h": "path:3"}).verdict == "holds"


def test_verify_claim_holds_and_inapplicable():
    rep = verify_claim("path_cycle_formula", {"n": 7})
    assert rep.verdict == "holds"
    rep = verify_claim("path_cycle_formula", {"n": 3})
    assert rep.verdict == "inapplicable"
    rep = verify_claim("wrdn2_iff", {"g": "complete:4"})
    assert rep.verdict == "inapplicable"
    rep = verify_claim("star_lex", {"n": 3, "h": "path:10"})
    assert rep.verdict == "holds" and rep.details["gamma_r_product"] == 4


def test_verify_claim_budget():
    rep = verify_claim("cycle_lex", {"n": 5, "h": "empty:4"}, SolverConfig(node_budget=50))
    assert rep.verdict == "budget-exceeded"


@pytest.mark.parametrize("claim_id, instance, budget, invariant, lower, upper", [
    ("eq_2gt", {"g": "path:5", "h": "empty:4"}, 1, "gamma_t", 3, 5),
    ("eq_2gt", {"g": "path:5", "h": "empty:4"}, 6, "gamma_r", 2, 4),
    ("eq_g2t", {"g": "cycle:6", "h": "empty:2"}, 1, "gamma_2t", 6, 6),
    ("eq_g2t", {"g": "cycle:6", "h": "empty:2"}, 7, "gamma_r", 2, 4),
    ("weakroman_eq_2gamma", {"g": "corona(path:2,empty:2)", "h": "empty:2"}, 1, "gamma", 2, 6),
    ("weakroman_eq_2gamma", {"g": "corona(path:2,empty:2)", "h": "empty:2"}, 3, "gamma_r", 2, 4),
    ("strongsupport_tree", {"g": "path:3", "h": "empty:2"}, 1, "gamma", 1, 3),
    ("strongsupport_tree", {"g": "path:3", "h": "empty:2"}, 4, "gamma_r", 2, 3),
    ("star_leaf_4gamma", {"g": "star:3", "h": "empty:4"}, 1, "gamma", 4, 4),
    ("star_leaf_4gamma", {"g": "star:3", "h": "empty:4"}, 8, "gamma_r", 2, 4),
])
def test_budget_report_names_the_solve_that_ran_out(claim_id, instance, budget, invariant, lower, upper):
    # the facts of a claim are solved in a fixed order, so a small budget
    # always runs out in the same solve
    rep = verify_claim(claim_id, instance, SolverConfig(node_budget=budget))
    assert rep.verdict == "budget-exceeded"
    assert rep.details == {"lower": lower, "upper": upper, "invariant": invariant}


def test_star_leaf_claim_finishes_within_budget():
    rep = verify_claim("star_leaf_4gamma", {"g": "fig6_spider", "h": "empty:4"},
                       SolverConfig(node_budget=100_000))
    assert rep.verdict == "holds" and rep.details["gamma_r_product"] == 12


def test_verify_all_uncapped():
    reports = verify_all()
    assert len(reports) == 92
    others = sorted((r.claim_id, r.instance, r.verdict) for r in reports if r.verdict != "holds")
    assert others == [
        ("hk_value", "h=empty:2 k=4 sizes=(1, 1, 1, 1)", "violated"),
        ("p4_reduction", "g=cycle:6 h=empty:4 quad=(0, 1, 2, 3)", "violated"),
    ]


def test_verify_all_matches_pinned_registry():
    # the benchmark's pinned reports; the registry must reproduce each one
    pinned = json.loads((Path(__file__).resolve().parent.parent / "bench" / "expected" / "registry.json")
                        .read_text(encoding="utf-8"))
    got = [(r.claim_id, r.instance, r.verdict, json.dumps(r.details, sort_keys=True))
           for r in verify_all(max_n=32)]
    want = [(p["claim"], p["instance"], p["verdict"], json.dumps(p["details"], sort_keys=True)) for p in pinned]
    assert got == want


def test_p4_boundary_probe_is_violated_and_revalidates():
    rep = verify_claim("p4_reduction", {"g": "cycle:6", "quad": (0, 1, 2, 3), "h": "empty:4"})
    assert rep.verdict == "violated"
    assert rep.details["degenerate"]
    # the recorded discrepancy reproduces bit for bit
    h = gen.empty(4)
    lhs = solve("gamma_r", lexicographic(gen.cycle(6), h)).value
    red = reduce_P4(gen.cycle(6), (0, 1, 2, 3))
    rhs = solve("gamma_r", lexicographic(red.graph, h)).value + 4
    assert rep.details["gamma_r_product"] == lhs == 6
    assert rep.details["gamma_r_reduced_plus_4"] == rhs == 8


def test_hk_family_boundary_member_is_violated():
    # the all-singleton-block member of the cycle-with-blocks family at k=4
    # admits a weight-3 function (ones on three consecutive cycle vertices),
    # so the k-value claim fails there; the verdict records that honestly
    rep = verify_claim("hk_value", {"k": 4, "sizes": (1, 1, 1, 1), "h": "empty:2"})
    assert rep.verdict == "violated"
    assert rep.details["gamma_r"] == 3 and rep.details["gamma_2t"] == 4
    rep = verify_claim("hk_value", {"k": 3, "sizes": (1, 1, 1), "h": "path:3"})
    assert rep.verdict == "holds"


def test_copy_lemma_and_twoouterweights():
    rep = verify_claim("copy_lemma", {"g": "path:2", "h": "path:4"})
    assert rep.verdict == "holds" and rep.details["optima_checked"] > 0
    rep = verify_claim("twoouterweights", {"g": "path:3", "h": "corona(path:4,empty:1)"})
    assert rep.verdict == "holds"


def test_summary_table_shape():
    reports = [verify_claim("chain", {"g": "path:5"}), verify_claim("chain", {"g": "cycle:4"})]
    table = summary_table(reports)
    assert table.splitlines()[0].startswith("| claim ")
    assert "| chain | 2 | 2 | 0 | 0 | 0 |" in table
