"""relthue benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 bench/run.py --workload families --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in its own fresh worker
process (``worker.py``), so ``peak_rss_mb`` is that workload's own peak.
Times are in reference-speed seconds (``speed.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` splits the time
between an untraced and a traced worker on the same seed and prints the
per-layer metrics, ``trace.overhead`` among them.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

``--anchor`` solves the re-anchor baseline rows (H=20 and H=50) once and
prints their times; ``--record-reference SECONDS`` rewrites
``reference_hashes.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, ROOT

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("families", "sporadic", "check", "grid")
SETUP_SAMPLES = 15
# The end-to-end run goes on past --seconds until it has this many ops, so that
# op_s.tail, which needs ten ops beyond it, lies above the median.
MIN_OPS = 21
TIME_LIMIT = 170  # seconds for one whole invocation
# The layer each workload exists to stress; the traced run checks it is the largest.
DOMINANT = {
    "families": ("reducer", "theorem"),
    "sporadic": ("abssolver",),
    "check": ("oracle",),
    "grid": ("rootbounds",),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(workload: str, seed: int, seconds: float, deadline: float, *flags: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON summary."""
    args = [WORKER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), *flags]
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=CHECKOUT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    beyond = min(10, len(ordered) - 1)
    return ordered[len(ordered) - 1 - beyond], 100 * (len(ordered) - beyond) / len(ordered)


def end_to_end(summary: dict) -> dict[str, tuple[float, str]]:
    times = [op["seconds"] for op in summary["ops"]]
    return {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail(times)[0], "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(summary["setup_s"]), "s"),
    }


def per_layer(traced: dict, untraced: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-op layer metrics from a traced worker, plus the names that could not be measured."""
    trace = traced["trace"]
    ops = max(1, len(traced["ops"]))
    total = sum(op["wall_s"] for op in traced["ops"]) or 1.0
    to_reference = sum(op["seconds"] for op in traced["ops"]) / total  # wall seconds -> reference speed
    self_s, calls, counters = trace["self_s"], trace["calls"], trace["counters"]
    edges = {(parent, child): n for parent, child, n in trace["edges"]}
    absent = list(trace["absent"])

    def need(name):
        if name not in trace["traced"] and name not in absent:
            absent.append(name)

    def own(*names):
        for name in names:
            need(name)
        return (to_reference * sum(self_s.get(name, 0.0) for name in names) / ops, "s/op")

    def count(name):
        need(name)
        return (calls.get(name, 0) / ops, "count/op")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    cli_loading = ("cli.load_problem", "cli.parse_problem_text")
    cli_rest = [n for n in trace["traced"] if n.startswith("cli.") and n not in cli_loading]
    evaluate = "forms.BinaryForm.evaluate"
    cells = edges.get(("abssolver.solve_abs", evaluate), 0)
    attempts = calls.get("reducer.verify", 0)
    metrics = {
        "forms.check_admissible.calls": count("forms.check_admissible"),
        "forms.check_admissible.self_s": own("forms.check_admissible"),
        "forms.integer_roots.calls": count("forms.integer_roots"),
        "forms.integer_roots.self_s": own("forms.integer_roots"),
        "quadfield.init.self_s": own("quadfield.init"),
        "quadfield.evaluate_form.calls": count("quadfield.evaluate_form"),
        "quadfield.evaluate_form.self_s": own("quadfield.evaluate_form"),
        "rootbounds.isolate_roots.self_s": own("rootbounds.isolate_roots"),
        "rootbounds.stable_constants.self_s": own("rootbounds.stable_constants"),
        "rootbounds.refine.calls": count("rootbounds.refine"),
        "rootbounds.gates_unstable": (counters.get("rootbounds.gates_unstable", 0) / ops, "count/op"),
        "rootbounds.thresholds.calls": count("rootbounds.thresholds"),
        "rootbounds.thresholds.misses": (counters.get("rootbounds.thresholds.misses", 0) / ops, "count/op"),
        "abssolver.solve_abs.self_s": own("abssolver.solve_abs"),
        "abssolver.cells": (cells / ops, "count/op"),
        "abssolver.found": (counters.get("abssolver.found", 0) / ops, "count/op"),
        "abssolver.yield": ratio(counters.get("abssolver.found", 0), cells),
        "reducer.zero_branch.self_s": own("reducer.zero_value_branch"),
        "reducer.nonzero_branch.self_s": own("reducer.nonzero_value_branch"),
        "reducer.verify.attempts": count("reducer.verify"),
        "reducer.verify.accepts": (counters.get("reducer.verify.accepts", 0) / ops, "count/op"),
        "reducer.verify.yield": ratio(counters.get("reducer.verify.accepts", 0), attempts),
        "reducer.solve_relative.self_s": own("reducer.solve_relative"),
        "reducer.family_share": ratio(counters.get("reducer.family_solutions", 0), counters.get("reducer.solutions", 0)),
        "theorem.full_report.calls": count("theorem.full_report"),
        "theorem.full_report.self_s": own("theorem.full_report"),
        "oracle.brute_force.self_s": own("oracle.brute_force"),
        "oracle.cells": (edges.get(("oracle.brute_force", "quadfield.evaluate_form"), 0) / ops, "count/op"),
        "cli.load_problem.self_s": own(*cli_loading),
        "cli.main.self_s": own("cli.main", *cli_rest),
    }
    need(evaluate)
    for layer in LAYERS:
        share = sum(v for name, v in self_s.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.share"] = (share / total, "ratio")
    metrics["bench.share"] = (self_s.get(ROOT, 0.0) / total, "ratio")
    n = len(traced["ops"])
    base = [op["seconds"] for op in untraced["ops"][:n]]
    traced_p50 = statistics.median(op["seconds"] for op in traced["ops"][: len(base)])
    metrics["trace.overhead"] = (traced_p50 / statistics.median(base) - 1, "ratio")
    return metrics, absent


def dominant_check(workload: str, metrics: dict, traced: dict) -> str:
    """Whether the layer(s) the workload exists for have the largest self-time share."""
    shares = {layer: metrics[f"{layer}.share"][0] for layer in LAYERS}
    predicted = DOMINANT[workload]
    claimed = sum(shares[layer] for layer in predicted)
    rivals = {layer: share for layer, share in shares.items() if layer not in predicted}
    top = max(rivals, key=rivals.get)
    verdict = "PASS" if claimed > rivals[top] else "FAIL"
    total = sum(op["wall_s"] for op in traced["ops"]) or 1.0
    incl = traced["trace"]["incl_s"]
    entry = max((n for n in incl if n.split(".")[0] in predicted), key=incl.get, default=None)
    inclusive = f"; {entry} inclusive {incl[entry] / total:.3f}" if entry else ""
    return (
        f"prediction {'+'.join(predicted)} dominant on {workload}: {verdict} "
        f"(self share {claimed:.3f} vs {top} {rivals[top]:.3f}{inclusive})"
    )


def report(workload, seed, seconds, trace, deadline) -> int:
    if trace:
        seconds /= 2
        untraced = worker(workload, seed, seconds, deadline)
        traced = worker(workload, seed, seconds, deadline, "--trace")
        summaries = (untraced, traced)
    else:
        untraced = worker(
            workload, seed, seconds, deadline, "--setup-samples", str(SETUP_SAMPLES), "--min-ops", str(MIN_OPS)
        )
        summaries = (untraced,)
    for summary in summaries:
        if not summary["ops"]:
            raise BenchError(f"no {workload} op completed: {summary['failures'][:3]}")
    metrics, absent = per_layer(traced, untraced) if trace else (end_to_end(untraced), [])
    attempted = sum(s["attempted"] for s in summaries)
    failures = [f for s in summaries for f in s["failures"]]
    failed = len(failures)
    times = [op["seconds"] for op in untraced["ops"]]
    print(f"workload {workload} seed {seed}: closed loop, 1 client, {len(times)} untraced ops in {seconds:g} s or more at reference speed")
    if not trace:
        print(f"op_s.tail is p{tail(times)[1]:.1f} of {len(times)} samples")
        wall = [op["wall_s"] for op in untraced["ops"]]
        print(
            f"times are at reference speed (speed.py); raw wall op time p50 {statistics.median(wall):.6g} s, "
            f"tail {tail(wall)[0]:.6g} s, {len(wall) / sum(wall):.6g} ops/s"
        )
    print(f"failed_ratio {failed / max(1, attempted):.6g} ratio ({failed} of {attempted})")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if trace:
        print(dominant_check(workload, metrics, traced))
        if absent:
            print(f"absent (not measured): {', '.join(absent)}")
    for name, (number, unit) in metrics.items():
        print(f"{name} {number:.6g} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": number, "unit": unit} for name, (number, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def anchor(deadline: float) -> int:
    summary = worker("anchor", 0, 0, deadline, "--all")
    for op in summary["ops"]:
        print(
            f"{op['key']}: {op['wall_s']:.3f} s wall ({op['seconds']:.3f} s at reference speed), "
            f"{op['solutions']} solutions, sha256 {op['hash'][:16]}"
        )
    for failure in summary["failures"]:
        print(f"FAILED {failure}")
    return 1 if summary["failures"] else 0


def record_reference(seconds: float, deadline: float) -> int:
    """Hash the default seed's problems, each checked against brute_force on the gate box."""
    path = os.path.join(HERE, "reference_hashes.json")
    with open(path, encoding="utf-8") as handle:
        previous = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{}\n")  # so that every problem is checked against brute_force
    hashes = {}
    try:
        for workload in WORKLOADS:
            summary = worker(workload, 0, seconds, deadline)
            if summary["failures"]:
                raise BenchError(f"{workload}: {summary['failures'][:3]}")
            hashes.update({op["key"]: op["hash"] for op in summary["ops"]})
    except BaseException:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(previous)
        raise
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(hashes, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(hashes)} reference hashes written")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--anchor", action="store_true", help="time the baseline table's H=20 and H=50 rows once")
    parser.add_argument("--record-reference", type=float, metavar="SECONDS")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "relthue", "__init__.py")):
        print("error: run from a relthue checkout (src/relthue not found)", file=sys.stderr)
        return 2
    try:
        if args.anchor:
            return anchor(time.monotonic() + 600)
        if args.record_reference is not None:
            return record_reference(args.record_reference, time.monotonic() + 30 * args.record_reference)
        if args.workload is None:
            parser.error("--workload is required")
        return report(args.workload, args.seed, args.seconds, args.trace, time.monotonic() + TIME_LIMIT)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
