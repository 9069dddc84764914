"""Benchmark harness for weakroman.

One run measures one workload and prints, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the environment.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones from a traced run::

    python3 bench/run.py --workload lex_search --seed 1 --seconds 10 --trace 0

``--all`` runs every workload untraced and traced and prints a table.  The
harness drives the package from outside: it imports ``src/weakroman`` from
the checkout it sits in and changes nothing there.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACES = BENCH / "traces"
SETUP_REPEATS = 15

# Runs in a fresh interpreter: import the package, then build the
# workload's inputs; prints the seconds both took.
SETUP_PROBE = """
import sys, time
src, bench, name, seed = sys.argv[1:5]
sys.path[:0] = [src, bench]
t0 = time.perf_counter()
import weakroman, weakroman.cli
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[name].build(int(seed))
print((t1 - t0) + (time.perf_counter() - t2))
"""


def _fatal(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fatal(f"cannot read BENCHMARK.json: {exc}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh interpreters of import plus input building."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            _fatal(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(name: str, seed: int, seconds: int, workload, inputs) -> tuple[dict, list]:
    # as many whole passes as fit in the time, and at least one
    start = time.perf_counter()
    passes = [workload.run_pass(inputs)]
    while time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(workload.run_pass(inputs))
    latencies = sorted(lat for p in passes for lat in p.latencies)
    if not latencies:
        _fatal("no op returned")
    # the slowest 5 % of ops, at least one: on lex_search that is the
    # P5∘P10 solve alone
    tail = math.ceil(0.05 * len(latencies))
    metrics = {
        "setup_s": setup_seconds(name, seed),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "ops_per_s": statistics.median(p.attempted / p.wall_s for p in passes),
        "op_tail_ms": statistics.fmean(latencies[-tail:]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes


def per_layer(seed: int, workload, rec) -> tuple[dict, list]:
    rec.install()
    try:
        inputs = workload.build(seed)
    finally:
        rec.uninstall()
    untraced = workload.run_pass(inputs)
    rec.install()
    try:
        traced = workload.run_pass(inputs)
    finally:
        rec.uninstall()
    metrics = rec.layer_metrics()
    specific, extra_passes = workload.traced(rec, inputs, untraced)
    metrics.update(specific)
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    return metrics, [untraced, traced, *extra_passes]


def run_one(args, spec: dict) -> int:
    if not (SRC / "weakroman" / "__init__.py").is_file():
        _fatal(f"no weakroman package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import weakroman
    if Path(weakroman.__file__).resolve().parent != SRC / "weakroman":
        _fatal(f"imported weakroman from {weakroman.__file__}, not from {SRC}")
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    if args.trace:
        rec = spans.Recorder()
        measured, passes = per_layer(args.seed, workload, rec)
    else:
        inputs = workload.build(args.seed)
        measured, passes = end_to_end(args.workload, args.seed, args.seconds, workload, inputs)
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        print(f"bench: measured but not declared, dropped: {unknown}", file=sys.stderr)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = environment()
    stamp = {"env": env, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "error_rate": failed / attempted,
             # layers, instances or events this workload does not have read 0
             "zero": sorted(set(declared) - set(measured))}
    if args.trace:
        TRACES.mkdir(exist_ok=True)
        with open(TRACES / f"{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({**stamp, "metrics": measured, "spans": rec.to_json()}, fh)
            fh.write("\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured.get(name, 0), "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(stamp))
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    print(json.dumps({"env": environment()}))
    print(f"{'workload':<13} {'trace':<5} {'metric':<40} {'value':>16}  unit")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace {trace} failed:\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            stamp, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                if name not in stamp["zero"]:
                    print(f"{workload:<13} {trace:<5} {name:<40} {m['value']:>16.6g}  {m['unit']}")
            print(f"{workload:<13} {trace:<5} {'error_rate':<40} {stamp['error_rate']:>16.6g}  "
                  f"share ({result['failed']}/{result['attempted']} ops failed)")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
