"""Command-line front end: pipelines, exit codes, JSON round-trips."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from weakroman.cli import run


def cli(args, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(args, stdout=out, stderr=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


def test_generate_pipe_solve_json():
    code, edge_list, _ = cli(["generate", "path", "7"])
    assert code == 0
    code, out, _ = cli(["solve", "gamma_r", "--json"], stdin_text=edge_list)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3 and payload["schema"] == "1"
    assert payload["invariant"] == "gamma_r" and payload["n"] == 7


def test_generate_comb_info():
    code, edge_list, _ = cli(["generate", "comb", "6"])
    assert code == 0
    code, out, _ = cli(["info"], stdin_text=edge_list)
    assert code == 0
    assert "n=6" in out and "m=5" in out and "tree=true" in out


def test_info_disconnected():
    code, edge_list, _ = cli(["generate", "empty", "3"])
    code, out, _ = cli(["info"], stdin_text=edge_list)
    assert "components=3" in out


def test_gamma_t_isolated_vertex_exit_2():
    _, edge_list, _ = cli(["generate", "empty", "3"])
    code, _, err = cli(["solve", "gamma_t"], stdin_text=edge_list)
    assert code == 2
    assert "total domination undefined" in err


def test_malformed_input_line_diagnostic():
    code, _, err = cli(["solve", "gamma"], stdin_text="3 1\n0 9\n")
    assert code == 2 and "line 2" in err


def test_unknown_flag_rejected():
    code, _, _ = cli(["solve", "gamma_r", "--nonsense"])
    assert code == 2


def test_parser_messages_go_to_the_given_streams():
    # one process, one shared parser: each call writes to its own streams
    code, out, err = cli(["solve", "nosuch", "--json"])
    assert code == 2 and out == ""
    assert "usage: weakroman solve" in err and "invalid choice: 'nosuch'" in err
    code, out, err = cli(["solve", "gamma_r", "--json"], stdin_text="3 2\n0 1\n1 2\n")
    assert code == 0 and err == "" and json.loads(out)["value"] == 2
    code, out, err = cli(["--help"])
    assert code == 0 and err == "" and out.startswith("usage: weakroman")
    code, out, err = cli(["solve", "--help"])
    assert code == 0 and err == "" and "--max-weight" in out


def test_python_dash_m_pipeline():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def module(*args, stdin_text=""):
        return subprocess.run([sys.executable, "-m", "weakroman", *args], input=stdin_text, env=env,
                              capture_output=True, text=True, timeout=60)

    generated = module("generate", "path", "7")
    assert generated.returncode == 0
    solved = module("solve", "gamma_r", "--json", stdin_text=generated.stdout)
    assert solved.returncode == 0
    assert json.loads(solved.stdout)["value"] == 3
    bad = module("solve", "nosuch")
    assert bad.returncode == 2 and bad.stdout == "" and "invalid choice: 'nosuch'" in bad.stderr


def test_budget_exit_3():
    _, edge_list, _ = cli(["generate", "path", "10"])
    code, _, err = cli(["solve", "gamma_r", "--budget", "4"], stdin_text=edge_list)
    assert code == 3 and "budget exceeded" in err
    # the budget runs out before gamma(P10) is known: the upper end is f = 1
    assert "value in [4, 10]" in err


def test_max_weight_exit_3_on_two_components():
    # P3 + P3 has value 4: the cap binds the sum, not each component
    double = "6 4\n0 1\n1 2\n3 4\n4 5\n"
    code, _, err = cli(["solve", "gamma_r", "--max-weight", "3"], stdin_text=double)
    assert code == 3 and "budget exceeded" in err
    code, out, _ = cli(["solve", "gamma_r", "--max-weight", "4", "--json"], stdin_text=double)
    assert code == 0 and json.loads(out)["value"] == 4


def test_oracle_subcommand():
    _, edge_list, _ = cli(["generate", "cycle", "4"])
    code, out, _ = cli(["oracle", "gamma_r", "--json"], stdin_text=edge_list)
    assert code == 0 and json.loads(out)["value"] == 2


def test_product_pipeline(tmp_path):
    _, p2, _ = cli(["generate", "path", "2"])
    _, p3, _ = cli(["generate", "path", "3"])
    fg = tmp_path / "g.txt"
    fh = tmp_path / "h.txt"
    fg.write_text(p2)
    fh.write_text(p3)
    sidecar = tmp_path / "map.json"
    code, out, _ = cli(["product", "lex", str(fg), str(fh), "--map", str(sidecar)])
    assert code == 0
    assert out.splitlines()[0] == "6 13"  # 1*3^2 + 2*2 edges
    payload = json.loads(sidecar.read_text())
    assert payload["copies"] == [[0, 1, 2], [3, 4, 5]]
    code, out, _ = cli(["product", "corona", str(fg), str(fh)])
    assert code == 0 and out.splitlines()[0] == "8 11"  # 1 + 2*(2+3) edges


def test_verify_strict_exit_4():
    code, out, _ = cli(["verify", "p4_reduction", "--g", "cycle:6", "--quad", "0,1,2,3",
                        "--h", "empty:4", "--strict"])
    assert code == 4 and "verdict=violated" in out
    code, _, _ = cli(["verify", "p4_reduction", "--g", "cycle:8", "--quad", "0,1,2,3",
                      "--h", "empty:4", "--strict"])
    assert code == 0


@pytest.mark.parametrize("args, code, text", [
    (["lex_lower_max", "--g", "path:4", "--h", "empty:4"], 0,
     '{"schema": "1", "claim": "lex_lower_max", "instance": "g=path:4 h=empty:4", "verdict": "holds", '
     '"details": {"gamma_r_product": 4, "gamma_r": 2, "gamma_t": 2, "rho": 2, "bound": 4}}'),
    (["lex_upper_tree_ns", "--g", "cycle:5", "--h", "empty:4"], 0,
     '{"schema": "1", "claim": "lex_upper_tree_ns", "instance": "g=cycle:5 h=empty:4", '
     '"verdict": "inapplicable", "details": {"reason": "needs a tree on n >= 3"}}'),
    (["cycle_lex", "--n", "5", "--h", "empty:4", "--budget", "20"], 3,
     '{"schema": "1", "claim": "cycle_lex", "instance": "h=empty:4 n=5", "verdict": "budget-exceeded", '
     '"details": {"lower": 3, "upper": 6, "invariant": "gamma_r"}}'),
    # hypotheses that fail on solved values report those values after the reason
    (["eq_2gt", "--g", "path:5", "--h", "empty:4"], 0,
     '{"schema": "1", "claim": "eq_2gt", "instance": "g=path:5 h=empty:4", "verdict": "inapplicable", '
     '"details": {"reason": "hypothesis 2*gamma_t == max(gamma_r, 2*rho) fails", "gamma_t": 3, "gamma_r": 3, '
     '"rho": 2}}'),
    (["eq_g2t", "--g", "cycle:6", "--h", "empty:2"], 0,
     '{"schema": "1", "claim": "eq_g2t", "instance": "g=cycle:6 h=empty:2", "verdict": "inapplicable", '
     '"details": {"reason": "hypothesis gamma_2t == max(gamma_r, 2*rho) fails", "gamma_2t": 6, "gamma_r": 3, '
     '"rho": 2}}'),
    (["weakroman_eq_2gamma", "--g", "path:5", "--h", "empty:2"], 0,
     '{"schema": "1", "claim": "weakroman_eq_2gamma", "instance": "g=path:5 h=empty:2", "verdict": "inapplicable", '
     '"details": {"reason": "first factor is not a weak Roman graph", "gamma": 2, "gamma_r": 3}}'),
    (["strongsupport_tree", "--g", "path:5", "--h", "empty:2"], 0,
     '{"schema": "1", "claim": "strongsupport_tree", "instance": "g=path:5 h=empty:2", "verdict": "inapplicable", '
     '"details": {"reason": "minimum dominating set is not unique", "count": 3}}'),
    (["star_leaf_4gamma", "--g", "path:5", "--h", "empty:4"], 0,
     '{"schema": "1", "claim": "star_leaf_4gamma", "instance": "g=path:5 h=empty:4", "verdict": "inapplicable", '
     '"details": {"reason": "needs gamma_t == 2*gamma", "gamma": 2, "gamma_t": 3}}'),
], ids=["holds", "inapplicable", "budget-exceeded", "eq_2gt-facts", "eq_g2t-facts", "weakroman-facts",
        "strongsupport-facts", "star_leaf-facts"])
def test_verify_json_bytes(args, code, text):
    # verify --json keeps the report's key order; only the timing varies
    got_code, out, _ = cli(["verify", *args, "--json"])
    assert got_code == code
    assert re.sub(r', "millis": [0-9.]+', "", out) == text + "\n"


@pytest.mark.parametrize("args", [
    ["generate", "path"],
    ["generate", "path", "x"],
    ["generate", "path", "2", "3"],
    ["generate", "comb", "3.5"],
    ["generate", "fig6_spider", "3"],
    ["generate", "random", "5", "x"],
    ["verify", "chain"],
    ["verify", "kn_lex", "--n", "3"],
    ["verify", "chain", "--g", "path:x"],
    ["verify", "chain", "--g", "path:2,3"],
    ["verify", "chain", "--g", "fig6_spider:3"],
    ["verify", "chain", "--g", "edges:3:0-1,1"],
    ["verify", "hamiltonian_bound", "--g", "cycle:5", "--cycle", "0,1,x"],
    ["verify", "hk_value", "--k", "3", "--sizes", "1,x", "--h", "path:3"],
    ["verify", "path_cycle_formula", "--sweep", "n=4..x"],
], ids=lambda args: " ".join(args))
def test_malformed_parameters_exit_2(args):
    # a missing or malformed family or claim parameter is an input error
    code, out, err = cli(args)
    assert code == 2 and out == ""
    assert "error: " in err and "Traceback" not in err


def test_verify_sweep():
    code, out, _ = cli(["verify", "path_cycle_formula", "--sweep", "n=4..8"])
    assert code == 0
    assert out.count("verdict=holds") == 5


def test_verify_sweep_over_a_key_the_claim_does_not_take():
    code, out, err = cli(["verify", "chain", "--g", "path:3", "--sweep", "q=1..2"])
    assert code == 2 and out == ""
    assert err.count("error: ") == 1 and "Traceback" not in err


def test_verify_unknown_claim():
    code, _, err = cli(["verify", "nosuch"])
    assert code == 2 and "unknown claim" in err


def test_verify_cert_roundtrip(tmp_path):
    _, edge_list, _ = cli(["generate", "fig4_twocycles"])
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(edge_list)
    code, out, _ = cli(["solve", "gamma_r", str(graph_file), "--json"])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = cli(["verify-cert", "gamma_r", str(graph_file), "--cert", str(cert_file)])
    assert code == 0 and "VALID" in out
    # a certificate checked as a different invariant is rejected
    code, out, err = cli(["verify-cert", "gamma", str(graph_file), "--cert", str(cert_file)])
    assert code == 2 and "VALID" not in out and "'gamma_r', not 'gamma'" in err
    # a doctored certificate fails
    payload = json.loads(cert_file.read_text())
    payload["certificate"]["V1"] = payload["certificate"]["V1"][:-1]
    cert_file.write_text(json.dumps(payload))
    code, out, _ = cli(["verify-cert", "gamma_r", str(graph_file), "--cert", str(cert_file)])
    assert code == 2 and "INVALID" in out


def test_verify_cert_set_invariant(tmp_path):
    _, edge_list, _ = cli(["generate", "grs", "4", "4"])
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(edge_list)
    _, out, _ = cli(["solve", "gamma_2t", str(graph_file), "--json"])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(out)
    code, out, _ = cli(["verify-cert", "gamma_2t", str(graph_file), "--cert", str(cert_file)])
    assert code == 0 and "VALID" in out


def _cert_payload(invariant, certificate, value=1, schema="1", n=3):
    return json.dumps({"schema": schema, "invariant": invariant, "n": n, "value": value,
                       "certificate": certificate})


@pytest.mark.parametrize("invariant, text", [
    ("gamma", "{not json"),
    ("gamma", "[1]"),
    ("gamma", _cert_payload("gamma", [1])),
    ("gamma", _cert_payload("gamma", {"set": [-1]})),
    ("gamma", _cert_payload("gamma", {"set": ["1"]})),
    ("gamma", _cert_payload("gamma", {"set": [1.5]})),
    ("gamma", _cert_payload("gamma", {"set": 1})),
    ("gamma_r", _cert_payload("gamma_r", {"V1": [-1], "V2": []})),
    ("gamma_r", _cert_payload("gamma_r", {"V1": ["a"], "V2": []})),
    ("gamma", _cert_payload("gamma", {"set": [1]}, schema="7")),
    ("gamma", _cert_payload("gamma", {"set": [1]}, n=99)),
    ("gamma", _cert_payload("gamma", {"set": [1]}, value=True)),
], ids=["not-json", "not-object", "certificate-not-object", "negative-member", "string-member",
        "float-member", "set-not-list", "negative-V1", "string-V1", "wrong-schema", "wrong-n",
        "bool-value"])
def test_verify_cert_malformed_input_exit_2(tmp_path, invariant, text):
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(cli(["generate", "path", "3"])[1])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(text)
    code, out, err = cli(["verify-cert", invariant, str(graph_file), "--cert", str(cert_file)])
    assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_cert_value_counts_distinct_vertices(tmp_path):
    # {1, 1} is the dominating set {1} of P3, of size 1, not 2
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(cli(["generate", "path", "3"])[1])
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(_cert_payload("gamma", {"set": [1, 1]}, value=2))
    code, out, _ = cli(["verify-cert", "gamma", str(graph_file), "--cert", str(cert_file)])
    assert code == 2 and "INVALID" in out and "predicate=true value_matches=false" in out


def test_random_generate_deterministic():
    _, a, _ = cli(["generate", "random", "8", "0.3", "--seed", "7"])
    _, b, _ = cli(["generate", "random", "8", "0.3", "--seed", "7"])
    _, c, _ = cli(["generate", "random", "8", "0.3", "--seed", "8"])
    assert a == b != c


def test_solve_stats_flag_adds_counters():
    _, edge_list, _ = cli(["generate", "path", "5"])
    _, out_plain, _ = cli(["solve", "gamma_r", "--json"], stdin_text=edge_list)
    _, out_stats, _ = cli(["solve", "gamma_r", "--json", "--stats"], stdin_text=edge_list)
    plain = json.loads(out_plain)
    stats = json.loads(out_stats)
    assert "nodes" not in plain and "millis" not in plain
    assert stats["nodes"] > 0 and "millis" in stats
    for key in plain:
        assert plain[key] == stats[key]
