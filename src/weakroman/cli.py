"""Command-line front end: generate graphs, build products, solve invariants,
cross-check with the oracle, and run the claim registry.

Graphs travel between commands in the canonical edge-list format (first line
``n m``, then one ``u v`` pair per line with u < v), so commands compose in
pipelines::

    weakroman generate path 7 | weakroman solve gamma_r --json

Exit codes: 0 success; 2 usage or input error (including invariants that are
undefined for the input graph); 3 solver budget exhausted; 4 at least one
claim violated under ``verify --strict``.

JSON outputs carry ``"schema": "1"`` and contain only deterministic fields;
``--stats`` adds the volatile node and timing counters.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys

from .generators import FAMILIES, FamilySpec, generate, random_connected
from .graph import EdgeListFormatError, Graph, GraphError, UndefinedInvariantError, format_edge_list, parse_edge_list
from .products import corona, lexicographic
from .solvers import (
    FUNCTION_INVARIANTS,
    INVARIANTS,
    PREDICATES,
    BudgetExceededError,
    LegionFunction,
    SolverConfig,
    oracle,
    solve,
)
from .theorems import PARAMETERS, get_claim, resolve_graph, summary_table, verify_all, verify_claim

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VIOLATED = 4

_PARAMETER_HELP = {
    "g": "graph spec, e.g. path:7 or lex(path:2,path:10)",
    "h": "second graph spec",
    "sizes": "comma-separated block sizes (hk)",
    "cycle": "comma-separated Hamiltonian cycle witness",
    "triple": "comma-separated induced 3-path",
    "quad": "comma-separated induced 4-path",
}


def _read_graph(path: str | None, stdin) -> Graph:
    if path is None or path == "-":
        return parse_edge_list(stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _config(args) -> SolverConfig:
    return SolverConfig(
        shards=getattr(args, "shards", 1),
        node_budget=getattr(args, "budget", None),
        max_weight=getattr(args, "max_weight", None),
    )


def _cmd_generate(args, stdout, stdin) -> int:
    is_random = args.family == "random"
    if is_random and len(args.params) != 2:
        raise GraphError("random needs: n p [--seed S]")
    try:
        params = tuple(float(p) if is_random and i == 1 else int(p) for i, p in enumerate(args.params))
    except ValueError:
        raise GraphError(f"{args.family} parameters must be numbers, got {' '.join(args.params)}") from None
    g = random_connected(*params, args.seed) if is_random else generate(FamilySpec(args.family, params))
    stdout.write(format_edge_list(g))
    return EXIT_OK


def _cmd_product(args, stdout, stdin) -> int:
    g = _read_graph(args.file_g, stdin)
    h = _read_graph(args.file_h, stdin)
    p = lexicographic(g, h) if args.kind == "lex" else corona(g, h)
    stdout.write(format_edge_list(p.graph))
    if args.map:
        with open(args.map, "w", encoding="utf-8") as fh:
            json.dump(p.index_map_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_solve(args, stdout, stdin) -> int:
    g = _read_graph(args.file, stdin)
    result = solve(args.invariant, g, _config(args))
    if args.json:
        stdout.write(json.dumps(result.to_json_dict(g.n, stats=args.stats)) + "\n")
    else:
        stdout.write(f"{args.invariant} = {result.value}\n")
        cert = result.certificate_json()
        if "set" in cert:
            stdout.write(f"set: {cert['set']}\n")
        else:
            stdout.write(f"V1: {cert['V1']}\nV2: {cert['V2']}\n")
        if args.stats:
            stdout.write(f"nodes: {result.nodes}\nmillis: {result.millis:.1f}\n")
    return EXIT_OK


def _cmd_oracle(args, stdout, stdin) -> int:
    g = _read_graph(args.file, stdin)
    value = oracle(args.invariant, g)
    if args.json:
        stdout.write(json.dumps({"schema": "1", "invariant": args.invariant,
                                 "n": g.n, "value": value}) + "\n")
    else:
        stdout.write(f"{args.invariant} = {value}\n")
    return EXIT_OK


def _cmd_info(args, stdout, stdin) -> int:
    g = _read_graph(args.file, stdin)
    comps = g.components()
    parts = [f"n={g.n}", f"m={g.edge_count}"]
    if g.n:
        parts.append(f"min_degree={g.min_degree()}")
        parts.append(f"max_degree={g.max_degree()}")
    connected = len(comps) <= 1
    parts.append(f"connected={str(connected).lower()}")
    tree = g.n >= 1 and connected and g.edge_count == g.n - 1
    parts.append(f"tree={str(tree).lower()}")
    if connected and g.n >= 1:
        parts.append(f"diameter={g.diameter()}")
    else:
        parts.append(f"components={len(comps)}")
        parts.append("sizes=" + ",".join(str(len(c)) for c in comps))
    stdout.write(" ".join(parts) + "\n")
    return EXIT_OK


def _parse_instance(args) -> dict:
    return {key: getattr(args, key) for key in PARAMETERS if getattr(args, key) is not None}


def _parse_sweep(spec: str) -> tuple[str, range]:
    match = re.fullmatch(r"(\w+)=(-?\d+)\.\.(-?\d+)", spec.strip())
    if match is None:
        raise GraphError("sweep spec must look like n=4..14")
    return match[1], range(int(match[2]), int(match[3]) + 1)


def _cmd_verify(args, stdout, stdin) -> int:
    cfg = _config(args)
    if args.all:
        reports = verify_all(max_n=args.max_n, config=cfg)
        if args.json:
            stdout.write(json.dumps([r.to_json_dict() for r in reports]) + "\n")
        else:
            stdout.write(summary_table(reports) + "\n")
        violated = [r for r in reports if r.verdict == "violated"]
        if violated and not args.json:
            for r in violated:
                stdout.write(f"violated: {r.claim_id} on {r.instance}\n")
        return EXIT_VIOLATED if args.strict and violated else EXIT_OK
    if not args.claim:
        raise GraphError("verify needs a claim id or --all")
    claim = get_claim(args.claim)  # fail fast on unknown ids
    base = _parse_instance(args)
    instances = [base]
    if args.sweep:
        key, values = _parse_sweep(args.sweep)
        if key not in claim.params:
            raise GraphError(f"claim {claim.id} takes no parameter {key} to sweep")
        instances = [{**base, key: v} for v in values]
    reports = [verify_claim(args.claim, inst, cfg) for inst in instances]
    if args.json:
        payload = [r.to_json_dict() for r in reports]
        stdout.write(json.dumps(payload[0] if len(payload) == 1 else payload) + "\n")
    else:
        for r in reports:
            line = f"claim={r.claim_id} instance=[{r.instance}] verdict={r.verdict}"
            if r.details:
                line += " " + json.dumps(r.details, sort_keys=True)
            stdout.write(line + "\n")
    if args.strict and any(r.verdict == "violated" for r in reports):
        return EXIT_VIOLATED
    if any(r.verdict == "budget-exceeded" for r in reports):
        return EXIT_BUDGET
    return EXIT_OK


def _cert_members(cert: dict, key: str, n: int) -> list[int]:
    """``cert[key]`` (empty if absent), checked to be a list of vertices."""
    members = cert.get(key, [])
    if not isinstance(members, list) or any(type(v) is not int or not 0 <= v < n for v in members):
        raise GraphError(f"certificate {key!r} must be a list of vertices 0..{n - 1}")
    return members


def _cmd_verify_cert(args, stdout, stdin) -> int:
    g = _read_graph(args.file, stdin)
    with open(args.cert, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise GraphError(f"certificate is not JSON: {exc}") from None
    cert = payload.get("certificate", {}) if isinstance(payload, dict) else None
    if not isinstance(cert, dict):
        raise GraphError("certificate must be a JSON object with a 'certificate' object")
    if payload.get("schema") != "1":
        raise GraphError(f"certificate schema is {payload.get('schema')!r}, expected '1'")
    invariant = args.invariant
    if payload.get("invariant") != invariant:
        raise GraphError(f"certificate is for {payload.get('invariant')!r}, not {invariant!r}")
    n = payload.get("n")
    if type(n) is not int or n != g.n:
        raise GraphError(f"certificate is for {n!r} vertices, the graph has {g.n}")
    value = payload.get("value")
    if type(value) is not int:
        raise GraphError(f"certificate value {value!r} is not an integer")
    if invariant in FUNCTION_INVARIANTS:
        subject = LegionFunction.from_sets(g.n, _cert_members(cert, "V1", g.n), _cert_members(cert, "V2", g.n))
        value_ok = subject.weight == value
    else:
        subject = set(_cert_members(cert, "set", g.n))
        value_ok = len(subject) == value
    predicate_ok = PREDICATES[invariant](g, subject)
    ok = predicate_ok and value_ok
    stdout.write(
        f"certificate {'VALID' if ok else 'INVALID'}: predicate={str(predicate_ok).lower()} "
        f"value_matches={str(value_ok).lower()}\n"
    )
    return EXIT_OK if ok else EXIT_USAGE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state in it, so every call of :func:`run` can share it."""
    parser = argparse.ArgumentParser(
        prog="weakroman",
        description="Exact weak Roman domination toolkit: generators, products, solvers, claim registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a named graph as an edge list")
    p.add_argument("family", choices=tuple(FAMILIES) + ("random",))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("--seed", type=int, default=0, help="seed for random graphs")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("product", help="build a lexicographic or corona product")
    p.add_argument("kind", choices=("lex", "corona"))
    p.add_argument("file_g")
    p.add_argument("file_h")
    p.add_argument("--map", help="write the index-map JSON sidecar here")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("solve", help="compute an invariant exactly, with certificate")
    p.add_argument("invariant", choices=INVARIANTS)
    p.add_argument("file", nargs="?", help="edge-list file (default stdin)")
    p.add_argument("--shards", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--budget", type=int, default=None, help="search node budget")
    p.add_argument("--max-weight", dest="max_weight", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--stats", action="store_true", help="include node/timing counters")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("oracle", help="recompute an invariant by exhaustive scan")
    p.add_argument("invariant", choices=INVARIANTS)
    p.add_argument("file", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("info", help="summarise a graph")
    p.add_argument("file", nargs="?")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("verify", help="check registered claims on instances")
    p.add_argument("claim", nargs="?", help="claim id (see --all for the registry)")
    p.add_argument("--all", action="store_true", help="run every claim on its default instances")
    p.add_argument("--max-n", dest="max_n", type=int, default=None, help="size cap for --all")
    for key, parse in PARAMETERS.items():
        # graph specs stay text: the report's instance string shows them as given
        p.add_argument(f"--{key}", type=None if parse is resolve_graph else parse, help=_PARAMETER_HELP.get(key))
    p.add_argument("--sweep", help="range over one integer key, e.g. n=4..14")
    p.add_argument("--strict", action="store_true", help="exit 4 on any violation")
    p.add_argument("--shards", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("verify-cert", help="re-validate a solve --json certificate with raw predicates")
    p.add_argument("invariant", choices=INVARIANTS)
    p.add_argument("file", nargs="?", help="edge-list file (default stdin)")
    p.add_argument("--cert", required=True, help="JSON file produced by solve --json")
    p.set_defaults(fn=_cmd_verify_cert)

    return parser


def run(argv, stdout=None, stderr=None, stdin=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    try:
        # argparse prints usage errors and --help to sys.stderr/sys.stdout
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, stdout, stdin)
    except BudgetExceededError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (EdgeListFormatError, UndefinedInvariantError, GraphError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))
