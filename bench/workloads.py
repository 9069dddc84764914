"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``build``), runs one timed
pass over them (``run_pass``) and checks every output against a pinned or
recomputed answer.  All three are closed loops with one client in one
process, at ``shards=1``.  The pinned answers under ``expected/`` were taken
from the ``--json`` payloads and ``verify_all`` reports of commit 2c3d007.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import weakroman as wr
import weakroman.cli

EXPECTED = Path(__file__).resolve().parent / "expected"


def _expected(name: str):
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Pass:
    """What one pass did: its wall time, the latency of each op that
    returned, and how many ops were attempted and failed."""

    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)

    def fail(self, op: str, why: str, count: int = 1) -> None:
        self.failed += count
        print(f"check failed: {op}: {why}", file=sys.stderr)


def _crash(p: Pass, op: str) -> None:
    """Record an op that raised.  The pass goes on, so one broken op shows
    as a failure instead of ending the run."""
    traceback.print_exc(file=sys.stderr)
    p.fail(op, "raised")


# ---------------------------------------------------------------------------
# lex_search: the fixed G∘P10 products, solved for gamma_r
# ---------------------------------------------------------------------------

LEX_FACTORS = (
    ("P2", "path", (2,)), ("P3", "path", (3,)), ("P4", "path", (4,)),
    ("K13", "star", (3,)), ("K14", "star", (4,)), ("C4", "cycle", (4,)),
    ("C5", "cycle", (5,)), ("comb5", "comb", (5,)), ("P5", "path", (5,)),
)
LEX_NAMES = tuple(f"{name}oP10" for name, _, _ in LEX_FACTORS)
FLAGSHIP = "P5oP10"  # the last instance of a pass
# The search for P5∘P10 starts at the product lower bound
# max(gamma_r(P5), gamma_t(P5), 2 rho(P5)) = 4 and proves 4 and 5 infeasible
# before it finds weight 6.
FLAGSHIP_WEIGHTS = (4, 5, 6)


class LexSearch:
    name = "lex_search"

    def build(self, seed: int):
        """The seed is not used: the instance set is fixed on purpose."""
        h = wr.generate(wr.FamilySpec("path", (10,)))
        return [
            (name, wr.lexicographic(wr.generate(wr.FamilySpec(family, params)), h))
            for name, (_, family, params) in zip(LEX_NAMES, LEX_FACTORS)
        ]

    def run_pass(self, products) -> Pass:
        expected = _expected(self.name)
        out = Pass()
        start = time.perf_counter()
        for name, p in products:
            out.attempted += 1
            t = time.perf_counter()
            try:
                payload = json.dumps(wr.solve("gamma_r", p).to_json_dict(p.graph.n))
            except Exception:
                _crash(out, name)
                continue
            out.latencies.append(time.perf_counter() - t)
            if payload != expected[name]:
                out.fail(name, f"payload {payload} differs from the pinned one")
        out.wall_s = time.perf_counter() - start
        return out

    def traced(self, rec, products, untraced: Pass) -> tuple[dict, list[Pass]]:
        """Per-instance spans, the per-weight split of the flagship and its
        ``shards=2`` rerun.  The last two run with the recorder removed."""
        metrics = {}
        solves = [s for s in rec.spans if s.name == "solve"]
        checks = Pass()
        if len(solves) != len(LEX_NAMES):
            checks.fail("trace", f"{len(solves)} solve spans for {len(LEX_NAMES)} instances")
            return metrics, [checks]
        for name, span in zip(LEX_NAMES, solves):
            metrics[f"solvers.busy_s.{name}"] = span.dur
            metrics[f"solvers.nodes.{name}"] = span.attrs.get("nodes", 0)

        # The flagship is the last solve of the traced pass, so its span ends
        # just before the runs below start and the split compares timings
        # made back to back.  Time with max_weight = t raises after proving
        # every weight up to t infeasible; differences of these times split
        # the full solve by t.
        flagship = dict(products)[FLAGSHIP]
        assert LEX_NAMES[-1] == FLAGSHIP
        full = None if "error" in solves[-1].attrs else solves[-1].dur
        prev = 0.0
        for t in FLAGSHIP_WEIGHTS[:-1]:
            checks.attempted += 1
            started = time.perf_counter()
            try:
                wr.solve("gamma_r", flagship, wr.SolverConfig(max_weight=t))
            except wr.BudgetExceededError:
                pass
            except Exception:
                _crash(checks, f"{FLAGSHIP} max_weight={t}")
                continue
            else:
                checks.fail(f"{FLAGSHIP} max_weight={t}", "found a function below the optimum")
            cumulative = time.perf_counter() - started
            metrics[f"solvers.weight_s.{FLAGSHIP}.t{t}"] = cumulative - prev
            prev = cumulative
        if full is not None:
            metrics[f"solvers.weight_s.{FLAGSHIP}.t{FLAGSHIP_WEIGHTS[-1]}"] = full - prev
            metrics["solvers.infeasible_share"] = prev / full

        # Whether sharding pays is judged on the flagship alone; rerunning
        # the other eight would add a tenth to the longest traced run.
        checks.attempted += 1
        started = time.perf_counter()
        try:
            result = wr.solve("gamma_r", flagship, wr.SolverConfig(shards=2))
        except Exception:
            _crash(checks, f"{FLAGSHIP} shards=2")
        else:
            sharded_s = time.perf_counter() - started
            payload = json.dumps(result.to_json_dict(flagship.graph.n))
            if payload != _expected(self.name)[FLAGSHIP]:
                checks.fail(f"{FLAGSHIP} shards=2", f"payload {payload} differs from the pinned one")
            if full is not None:
                metrics["solvers.shards2_speedup"] = full / sharded_s
        return metrics, [checks]


# ---------------------------------------------------------------------------
# registry: verify_all under the size cap, then one claim over its budget
# ---------------------------------------------------------------------------

REGISTRY_MAX_N = 32
OVER_CAP = ("star_leaf_4gamma", {"g": "fig6_spider", "h": "empty:4"})
OVER_CAP_BUDGET = 100_000
OVER_CAP_OK = ("budget-exceeded", "holds")


class Registry:
    name = "registry"

    def build(self, seed: int):
        """The seed is not used: the registry's default instances are fixed."""
        return wr.SolverConfig(node_budget=OVER_CAP_BUDGET)

    def run_pass(self, over_cap_config) -> Pass:
        expected = _expected(self.name)
        out = Pass()
        start = time.perf_counter()
        out.attempted += len(expected)
        try:
            reports = wr.verify_all(max_n=REGISTRY_MAX_N)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out.fail("verify_all", "raised", len(expected))
            reports = []
        if reports and len(reports) != len(expected):
            out.fail("verify_all", f"{len(reports)} reports, pinned {len(expected)}", len(expected))
            reports = []
        for report, pinned in zip(reports, expected):
            # each report times its own claim run; that is the op latency
            out.latencies.append(report.elapsed_ms / 1000.0)
            got = (report.claim_id, report.instance, report.verdict, json.dumps(report.details, sort_keys=True))
            want = (pinned["claim"], pinned["instance"], pinned["verdict"], json.dumps(pinned["details"], sort_keys=True))
            if got != want:
                out.fail(f"{report.claim_id} [{report.instance}]", f"got {got}, pinned {want}")

        claim, instance = OVER_CAP
        out.attempted += 1
        t = time.perf_counter()
        try:
            report = wr.verify_claim(claim, instance, over_cap_config)
        except Exception:
            _crash(out, claim)
        else:
            out.latencies.append(time.perf_counter() - t)
            out.extra["over_cap_s"] = out.latencies[-1]
            if report.verdict not in OVER_CAP_OK:
                out.fail(claim, f"verdict {report.verdict} with {report.details}")
            elif report.verdict == "holds":
                out.extra["over_cap_lower"] = report.details["gamma_r_product"]
            else:
                out.extra["over_cap_lower"] = report.details["lower"]
        out.wall_s = time.perf_counter() - start
        return out

    def traced(self, rec, over_cap_config, untraced: Pass) -> tuple[dict, list[Pass]]:
        metrics = {}
        claims = [s for s in rec.spans if s.name == "verify_claim"]
        for span in claims:
            # the over-cap claim is timed on its own, not under verify_all
            if span.parent is not None and rec.spans[span.parent].name == "verify_all":
                key = f"theorems.busy_s.{span.attrs.get('claim')}"
                metrics[key] = metrics.get(key, 0.0) + span.dur
        verdicts = [s.attrs.get("verdict") for s in claims]
        metrics["theorems.reports"] = len(claims)
        metrics["theorems.holds"] = verdicts.count("holds")
        metrics["theorems.violated"] = verdicts.count("violated")
        metrics["theorems.budget_exceeded"] = verdicts.count("budget-exceeded")
        solves = [s for s in rec.spans if s.name == "solve" and rec.has_ancestor(s, "theorems")]
        distinct = len({s.attrs["key"] for s in solves if "key" in s.attrs})
        metrics["theorems.solve_calls"] = len(solves)
        metrics["theorems.distinct_solves"] = distinct
        # share of the registry's solve calls that repeat an earlier one
        metrics["theorems.solve_reuse_ratio"] = (len(solves) - distinct) / len(solves) if solves else 0.0
        for key in ("over_cap_s", "over_cap_lower"):
            if key in untraced.extra:
                metrics[f"theorems.{key}"] = untraced.extra[key]
        return metrics, []


# ---------------------------------------------------------------------------
# random_sweep: every invariant on seeded random graphs, through cli.run
# ---------------------------------------------------------------------------

SWEEP_GRAPHS = 140
SWEEP_N = tuple(range(12, 19))
SWEEP_P = (0.15, 0.20, 0.25, 0.30, 0.35)
SWEEP_POOL_SEED = 0
SET_PREDICATES = {
    "gamma": "is_dominating",
    "gamma_t": "is_total_dominating",
    "gamma_2t": "is_double_total_dominating",
    "gamma_s": "is_secure_dominating",
    "rho": "is_2packing",
}
CHAIN = ("gamma", "gamma_r", "gamma_R")


def _certificate_ok(g, invariant: str, payload: dict) -> bool:
    """Recheck a ``solve --json`` payload with the raw predicates."""
    if (payload.get("schema"), payload.get("invariant"), payload.get("n")) != ("1", invariant, g.n):
        return False
    cert, value = payload["certificate"], payload["value"]
    if invariant in wr.FUNCTION_INVARIANTS:
        f = wr.LegionFunction.from_sets(g.n, cert["V1"], cert["V2"])
        predicate = wr.is_wrdf if invariant == "gamma_r" else wr.is_rdf
        return predicate(g, f) and f.weight == value
    members = cert["set"]
    return getattr(wr, SET_PREDICATES[invariant])(g, members) and len(members) == value


def _sweep_failures(g, results: dict) -> set[str]:
    """Invariants whose op failed its checks on graph ``g``."""
    bad = set()
    values = {}
    for invariant, (code, text) in results.items():
        if invariant == "gamma_2t" and g.min_degree() < 2:
            if code != 2 or text:
                bad.add(invariant)
            continue
        if code != 0:
            bad.add(invariant)
            continue
        try:
            payload = json.loads(text)
            ok = _certificate_ok(g, invariant, payload)
        except (ValueError, KeyError, TypeError):
            ok = False
        if ok:
            values[invariant] = payload["value"]
        else:
            bad.add(invariant)
    if all(k in values for k in CHAIN):
        gamma, gamma_r, gamma_R = (values[k] for k in CHAIN)
        if not gamma <= gamma_r <= gamma_R <= 2 * gamma:
            bad.update(CHAIN)
    return bad


class RandomSweep:
    name = "random_sweep"

    def build(self, seed: int):
        """A fixed pool of random graphs, each with its vertices relabelled
        by a permutation drawn from the seed.  Every (n, p) pair occurs the
        same number of times."""
        pool = random.Random(SWEEP_POOL_SEED)
        rng = random.Random(seed)
        graphs = []
        for i in range(SWEEP_GRAPHS):
            n = SWEEP_N[i % len(SWEEP_N)]
            base = wr.random_connected(n, SWEEP_P[i % len(SWEEP_P)], pool.randrange(2**31))
            perm = list(range(n))
            rng.shuffle(perm)
            g = wr.Graph.from_edges(n, (tuple(sorted((perm[u], perm[v]))) for u, v in base.edges()))
            graphs.append((g, wr.format_edge_list(g)))
        return graphs

    def run_pass(self, graphs) -> Pass:
        out = Pass()
        outputs = []
        start = time.perf_counter()
        for index, (g, text) in enumerate(graphs):
            results = {}
            outputs.append(results)
            for invariant in wr.INVARIANTS:
                stdout, stderr = io.StringIO(), io.StringIO()
                out.attempted += 1
                t = time.perf_counter()
                try:
                    code = weakroman.cli.run(["solve", invariant, "--json"], stdout=stdout,
                                             stderr=stderr, stdin=io.StringIO(text))
                except Exception:
                    _crash(out, f"graph {index} {invariant}")
                    continue
                out.latencies.append(time.perf_counter() - t)
                results[invariant] = (code, stdout.getvalue())
        out.wall_s = time.perf_counter() - start
        for index, ((g, _), results) in enumerate(zip(graphs, outputs)):
            bad = _sweep_failures(g, results)
            if bad:
                out.fail(f"graph {index}", f"checks failed for {sorted(bad)}", len(bad))
        return out

    def traced(self, rec, graphs, untraced: Pass) -> tuple[dict, list[Pass]]:
        return {}, []


WORKLOADS = {w.name: w for w in (LexSearch(), Registry(), RandomSweep())}
