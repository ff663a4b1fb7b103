"""Benchmark of isoset: time to a certified answer, on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]

NAME is isolation-search, identity-search, rank-cover or construct-certify;
``all`` runs the four one after another, each in its own process.  A run is
a closed loop in one process: one caller, no threads, each task starting
when the previous one has finished.  It repeats passes over the workload's
task list until ``--seconds`` is used up (at least two passes), checks every
answer and prints the metrics, with the result as one JSON object on the
last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics, and
writes its spans to bench/out/.  Seed 0 gives the canonical inputs.  The
exit code is 0 only when every check passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import NullTracer, Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = BENCH / "out"

SETUP_SPAWNS = 5
CLI_SPAWNS = 5
MIN_PASSES = 2
CHILD_TIMEOUT = 120
CLI_COMMAND = ("-m", "isoset.cli", "construct", "isolation", "--k", "11", "--t", "3",
               "--format", "grid")
CLI_GOLDEN = "isolation_k11_t3.txt"

# Span name -> per-layer metric holding its self time.  The three oracle
# entry points are split into stages with the probe calls instead.
LAYER_OF = {
    "core.build_A": "core.build_A_s",
    "core.family_to_matrix": "core.family_to_matrix_s",
    "core.realize": "core.family_to_matrix_s",
    "construct.isolation_construct": "construct.isolation_s",
    "construct.circulant_isolation": "construct.isolation_s",
    "construct.identity_family": "construct.identity_s",
    "construct.triangular_family": "construct.triangular_s",
    "verify.verify_isolation": "verify.family_s",
    "verify.verify_identity": "verify.family_s",
    "verify.verify_triangular": "verify.family_s",
    "verify.verify_matrix_isolation": "verify.matrix_s",
    "verify.verify_matrix_identity": "verify.matrix_s",
    "verify.verify_matrix_triangular": "verify.matrix_s",
    "serialize.family_to_json": "serialize.json_s",
    "serialize.family_from_json": "serialize.json_s",
    "serialize.matrix_to_text": "serialize.text_s",
    "serialize.matrix_from_text": "serialize.text_s",
    "oracle.cover_to_factors": "oracle.factors_s",
}
CLIQUE_SEARCHES = ("oracle.max_isolation_bruteforce", "oracle.max_identity_bruteforce")
RANK_SEARCH = "oracle.boolean_rank_exact"

LAYER_TIMES = (
    "core.build_A_s", "core.family_to_matrix_s",
    "construct.isolation_s", "construct.identity_s", "construct.triangular_s",
    "verify.family_s", "verify.matrix_s",
    "serialize.json_s", "serialize.text_s",
    "oracle.compat_graph_s", "oracle.clique_prep_s", "oracle.clique_search_s",
    "oracle.rank_prep_s", "oracle.rank_search_s", "oracle.factors_s",
)


def import_workloads():
    """Import isoset from this checkout's src/ and no other place."""
    if not (SRC / "isoset" / "__init__.py").is_file():
        raise SystemExit(f"error: isoset sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import isoset
    if Path(isoset.__file__).resolve().parent != (SRC / "isoset").resolve():
        raise SystemExit(f"error: isoset was imported from {isoset.__file__}, not {SRC}")
    import workloads
    return workloads


def spawn(argv: list[str], **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, timeout=CHILD_TIMEOUT,
                          **kwargs)
    return time.perf_counter() - start, proc


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import isoset and build the inputs."""
    times = []
    for _ in range(SETUP_SPAWNS):
        elapsed, proc = spawn([str(BENCH / "run.py"), "--setup-only", "--workload", workload,
                               "--seed", str(seed)])
        if proc.returncode:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr.decode()}")
        times.append(elapsed)
    return times


def measure_cli() -> tuple[list[float], list[str]]:
    """Cold start of the command line, whose grid must equal its golden file."""
    golden = (GOLDEN / CLI_GOLDEN).read_bytes() if (GOLDEN / CLI_GOLDEN).is_file() else None
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, problems = [], []
    for _ in range(CLI_SPAWNS):
        elapsed, proc = spawn(list(CLI_COMMAND), env=env, cwd=ROOT)
        times.append(elapsed)
        if proc.returncode or proc.stdout != golden:
            problems.append(f"cli grid differs from {CLI_GOLDEN} (exit {proc.returncode})")
    return times, problems


def run_pass(wl, tasks, tracer, pass_no: int, probe_counts: dict | None = None) -> dict:
    """One pass over the task list: task id -> (Outcome or None on error, seconds).

    Only the first pass keeps its witness documents; later passes keep their
    digests.  A full collection before the pass frees what earlier passes
    left in reference cycles (the rank search's recursive closure holds its
    rectangle tables), so peak memory does not grow with the number of passes.
    """
    gc.collect()
    results = {}
    for task in tasks:
        start = time.perf_counter()
        with tracer.span("task", task=task.id, pass_no=pass_no):
            try:
                out = wl.run_task(task, tracer.call)
            except Exception:
                traceback.print_exc()
                out = None
        results[task.id] = (out, time.perf_counter() - start)
        if out is not None and pass_no:
            out.witness = ()
        if probe_counts is not None:
            with tracer.span("probe", task=task.id, pass_no=pass_no):
                probe_counts[task.id] = wl.probe(task, tracer.call)
    return results


def solve_time(results: dict) -> float:
    return sum(seconds for _, seconds in results.values())


def evaluate(wl, tasks, passes: list[dict]) -> tuple[dict, int]:
    """Check every answer of the first pass and compare the later passes with it.

    Returns (task id -> problems, number of failed task runs).
    """
    problems, failed = {}, 0
    for task in tasks:
        first = passes[0][task.id][0]
        if first is None:
            found = ["raised an error"]
        else:
            found = wl.check_outcome(task, first)
            for n, results in enumerate(passes[1:], start=2):
                out = results[task.id][0]
                if out is None or out.signature() != first.signature():
                    found.append(f"pass {n} differs from pass 1")
        problems[task.id] = found
        failed += len(passes) if found else 0
    return problems, failed


def frontier(tasks, results: dict) -> tuple[int, int]:
    """(certified tasks, rank gap) of one pass."""
    certified = gap = 0
    for task in tasks:
        out = results[task.id][0]
        if out is None:
            continue
        certified += out.certified
        if task.kind == "rank" and not out.complete:
            gap += out.upper - out.lower
    return certified, gap


def print_tasks(tasks, passes: list[dict], problems: dict) -> None:
    print(f"{'task':34} {'answer':>9} {'known':>6} {'nodes':>9} {'complete':>8} "
          f"{'median_s':>9}  check")
    for task in tasks:
        out = passes[0][task.id][0]
        seconds = statistics.median(p[task.id][1] for p in passes)
        if out is None:
            answer, nodes, complete = "error", "-", "-"
        else:
            answer = str(out.value) if out.lower == out.upper else f"[{out.lower},{out.upper}]"
            nodes, complete = str(out.nodes), "yes" if out.complete else "no"
        verdict = "; ".join(problems[task.id]) or "ok"
        print(f"{task.id:34} {answer:>9} {task.known:>6} {nodes:>9} {complete:>8} "
              f"{seconds:9.4f}  {verdict}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def measure(wl, workload: str, seed: int, seconds: float, units: dict) -> int:
    """Untraced run: the end-to-end metrics."""
    start = time.perf_counter()
    setup = measure_setup(workload, seed)
    tracer = NullTracer()
    tasks = wl.build_tasks(workload, seed, tracer.call)
    passes: list[dict] = []
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start
            + statistics.median(solve_time(p) for p in passes) <= seconds):
        passes.append(run_pass(wl, tasks, tracer, len(passes)))
    problems, failed = evaluate(wl, tasks, passes)
    golden = wl.golden_problems(GOLDEN, tracer.call)
    certified, gap = frontier(tasks, passes[0])
    attempted = len(tasks) * len(passes)
    solve = [solve_time(p) for p in passes]

    print(f"# workload {workload}  seed {seed}  passes {len(passes)}  tasks {len(tasks)}")
    print_tasks(tasks, passes, problems)
    for problem in golden:
        print(f"golden: {problem}")
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s": statistics.median(solve),
        "certified_frac": certified / len(tasks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup_s        {metrics['setup_s']:.4f} s      median of {len(setup)} fresh "
          f"processes ({', '.join(f'{v:.4f}' for v in setup)})")
    print(f"solve_s        {metrics['solve_s']:.4f} s      median of {len(solve)} passes "
          f"({', '.join(f'{v:.4f}' for v in solve)})")
    print(f"certified_frac {metrics['certified_frac']:.4f} ratio  "
          f"({certified}/{len(tasks)} tasks proved)")
    print(f"rank_gap       {gap} count  (sum of upper - lower over incomplete rank tasks)")
    print(f"fail_frac      {failed / attempted:.4f} ratio  ({failed}/{attempted} task runs)")
    print(f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MiB")
    correct = failed == 0 and not golden
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def layer_metrics(spans: list[dict], n_passes: int) -> tuple[dict, dict, dict]:
    """Per-layer self times from the spans of a traced run.

    Returns (per-pass seconds by metric, set-up seconds by metric,
    task id -> per-pass seconds by metric).  A clique search call of
    duration D is split with its task's probes from the same pass: G is the
    standalone compat_graph call and P1 the one-node-budget call, so graph
    build is G, preparation P1 - G and search D - P1.  A rank call of
    duration D has preparation P1 and search D - P1.
    """
    own = self_times(spans)
    root: list[int] = []
    for i, s in enumerate(spans):
        root.append(i if s["parent"] is None else root[s["parent"]])
    probe: dict[tuple, float] = {}
    for i, s in enumerate(spans):
        r = spans[root[i]]
        if r["name"] == "probe" and s["parent"] == root[i]:
            probe[(r["pass_no"], r["task"], s["name"])] = s["end"] - s["start"]
    per_pass: dict[str, float] = defaultdict(float)
    setup: dict[str, float] = defaultdict(float)
    per_task: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        r = spans[root[i]]
        if r["name"] == "setup" and i != root[i]:
            setup[LAYER_OF[s["name"]]] += own[i]
        if r["name"] != "task":
            continue
        task = per_task[r["task"]]
        key = (r["pass_no"], r["task"])
        if i == root[i]:
            task["bench.glue_s"] += own[i]
        elif s["name"] in CLIQUE_SEARCHES:
            graph, budget1 = probe[(*key, "oracle.compat_graph")], probe[(*key, s["name"])]
            task["oracle.compat_graph_s"] += graph
            task["oracle.clique_prep_s"] += budget1 - graph
            task["oracle.clique_search_s"] += own[i] - budget1
        elif s["name"] == RANK_SEARCH:
            budget1 = probe[(*key, s["name"])]
            task["oracle.rank_prep_s"] += budget1
            task["oracle.rank_search_s"] += own[i] - budget1
        else:
            task[LAYER_OF[s["name"]]] += own[i]
    for task in per_task.values():
        for name in task:
            task[name] /= n_passes
            per_pass[name] += task[name]
    per_pass["oracle.fooling_s"] = sum(
        v for (_, _, name), v in probe.items() if name == "oracle.fooling_lower_bound") / n_passes
    return per_pass, setup, per_task


def trace_run(wl, workload: str, seed: int, seconds: float, units: dict) -> int:
    """Traced run: untraced and traced passes alternate; per-layer metrics."""
    start = time.perf_counter()
    tracer, null = Tracer(), NullTracer()
    with tracer.span("setup"):
        tasks = wl.build_tasks(workload, seed, tracer.call)
    passes: list[dict] = []
    untraced, traced, probe_counts = [], [], {}
    pair = 0.0
    while not traced or time.perf_counter() - start + pair <= seconds:
        pair_start = time.perf_counter()
        passes.append(run_pass(wl, tasks, null, len(passes)))
        untraced.append(solve_time(passes[-1]))
        passes.append(run_pass(wl, tasks, tracer, len(passes), probe_counts))
        traced.append(solve_time(passes[-1]))
        pair = time.perf_counter() - pair_start
    with tracer.span("golden"):
        golden = wl.golden_problems(GOLDEN, tracer.call)
    cli_times, cli_problems = measure_cli()
    problems, failed = evaluate(wl, tasks, passes)
    attempted = len(tasks) * len(passes)

    per_pass, setup, per_task = layer_metrics(tracer.spans, len(traced))
    counts: dict[str, int] = defaultdict(int)
    first = passes[0]
    for task in tasks:
        out = first[task.id][0]
        if out is None:
            continue
        for name, value in out.counts.items():
            counts[name] += value
        for name, value in probe_counts.get(task.id, {}).items():
            counts[name] += value
        if task.kind == "rank":
            counts["oracle.rank_nodes"] += out.nodes
        elif task.kind in ("isolation-search", "identity-search"):
            counts["oracle.clique_nodes"] += out.nodes
    _, gap = frontier(tasks, first)
    metrics = {name: per_pass.get(name, 0.0) + setup.get(name, 0.0) for name in LAYER_TIMES}
    metrics.update({name: counts.get(name, 0) for name in (
        "construct.pairs", "verify.entries", "serialize.bytes", "oracle.compat_vertices",
        "oracle.compat_edges", "oracle.clique_nodes", "oracle.rank_nodes",
        "oracle.fooling_bound_sum", "oracle.known_rank_sum")})
    for stage in ("clique", "rank"):
        nodes = metrics[f"oracle.{stage}_nodes"]
        metrics[f"oracle.{stage}_us_per_node"] = (
            metrics[f"oracle.{stage}_search_s"] / nodes * 1e6 if nodes else 0.0)
    metrics["oracle.rank_gap"] = gap
    metrics["oracle.fooling_s"] = per_pass["oracle.fooling_s"]
    known = metrics["oracle.known_rank_sum"]
    metrics["oracle.fooling_ratio"] = metrics["oracle.fooling_bound_sum"] / known if known else 0.0
    metrics["cli.cold_start_s"] = statistics.median(cli_times)
    metrics["trace.solve_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    print(f"# workload {workload}  seed {seed}  traced  pairs of passes {len(traced)}  "
          f"tasks {len(tasks)}")
    print_tasks(tasks, passes, problems)
    for problem in golden + cli_problems:
        print(f"check: {problem}")
    solve = statistics.mean(traced)
    glue = per_pass.get("bench.glue_s", 0.0)
    print(f"{'layer':26} {'setup_s':>9} {'per_pass_s':>11} {'share':>7}")
    for name in LAYER_TIMES:
        print(f"{name:26} {setup.get(name, 0.0):9.4f} {per_pass.get(name, 0.0):11.4f} "
              f"{per_pass.get(name, 0.0) / solve:7.1%}")
    print(f"{'bench glue':26} {'':9} {glue:11.4f} {glue / solve:7.1%}")
    accounted = sum(per_pass.get(name, 0.0) for name in LAYER_TIMES) + glue
    n_calls = sum(1 for s in tracer.spans if s["parent"] is not None) / len(traced)
    print(f"spans per traced pass, probes and set-up included: {n_calls:.0f}")
    print(f"layers + glue = {accounted:.4f} s; traced solve_s (mean) = {solve:.4f} s; "
          f"untraced solve_s (median) = {statistics.median(untraced):.4f} s; "
          f"tracing overhead = {metrics['trace.overhead_s']:.4f} s")
    print(f"oracle.fooling_s {metrics['oracle.fooling_s']:.4f} s is part of oracle.rank_prep_s; "
          f"oracle.fooling_ratio = {metrics['oracle.fooling_bound_sum']} fooling bound / "
          f"{metrics['oracle.known_rank_sum']} known rank")
    for task in tasks:
        layers = {k: v for k, v in per_task[task.id].items() if k != "bench.glue_s"}
        total = sum(per_task[task.id].values())
        if layers and total > 0:
            top = max(layers, key=layers.get)
            print(f"dominant layer  {task.id:34} {top:24} {layers[top] / total:6.1%} "
                  f"of {total:.4f} s")
    for name, unit in units.items():
        print(f"{name:26} {metrics[name]} {unit}")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": tracer.spans,
                   "per_pass_s": per_pass, "setup_s": setup,
                   "per_task_s": per_task}, fh, indent=1)
    correct = failed == 0 and not golden and not cli_problems
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in names:
        argv = [str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 170)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    # BENCHMARK.json declares the workloads and each metric's name and unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    wl = import_workloads()
    if args.setup_only:
        wl.build_tasks(args.workload, args.seed, NullTracer().call)
        return 0
    if args.workload == "all":
        return run_all(args, names)
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        return trace_run(wl, args.workload, args.seed, args.seconds, units)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return measure(wl, args.workload, args.seed, args.seconds, units)

if __name__ == "__main__":
    sys.exit(main())
