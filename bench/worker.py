"""Run one workload in this (fresh) process and print a JSON summary as the last line.

    python3 bench/worker.py --workload families --seed 0 --seconds 10 [--trace] [--all]

A closed loop with one client: the next problem starts when the previous one
returns, with no threads.  Each op solves one problem through the public
library (``QuadraticField``, ``BinaryForm``, ``solve_relative``) or runs
``relthue.cli.main(["check", file, "--json"])`` with stdout captured.  Only the
op itself is timed; ``gc.collect()`` and the correctness gate run between ops.
Each op is bracketed by the machine-speed reference of ``speed.py``;
``seconds`` is its time at reference speed and ``wall_s`` its raw wall time.
The loop runs for ``--seconds`` at reference speed.

The gate hashes each problem's solution set, restricted to the documented
reach, and compares it with ``reference_hashes.json`` when the problem is
listed there; otherwise it requires equality with ``brute_force`` on the box
[-GATE_BOX, GATE_BOX]^4.  A ``check`` op must exit 0 and report a match.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(CHECKOUT, "src"), HERE]

import relthue  # noqa: E402
import relthue.cli  # noqa: E402
import workloads  # noqa: E402
from speed import reference_seconds, scale  # noqa: E402
from tracer import Tracer  # noqa: E402

GATE_BOX = 2  # every workload height is at least (2s-1)*GATE_BOX, so the box lies in reach
REFERENCE = os.path.join(HERE, "reference_hashes.json")
WORKDIR = os.path.join(CHECKOUT, ".bench_work")
SETUP_CODE = (
    "import sys, time; sys.path[:0] = ['src', 'bench']; start = time.perf_counter(); "
    "import relthue, relthue.cli; seconds = time.perf_counter() - start; "
    "import speed; print(speed.scale(seconds, speed.reference_seconds()))"
)


def import_seconds() -> float:
    """Time to import relthue and relthue.cli in a fresh interpreter, at reference speed.

    The reference is timed in the same interpreter right after the import, so
    it does not warm anything the import loads.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=CHECKOUT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


def make_op(problem, path):
    """The timed call for one problem; ``path`` is its problem file for ``check`` ops."""
    if problem.box is None:

        def op():
            field = relthue.QuadraticField(problem.m)
            return relthue.solve_relative(field, relthue.BinaryForm(problem.coeffs), problem.K, height=problem.height)

    else:

        def op():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = relthue.cli.main(["check", path, "--json"])
            return code, out.getvalue()

    return op


def in_reach(quad, s: int, height: int) -> bool:
    _, _, y1, y2 = quad
    return abs(y2) <= height and abs(s * y1 + (s - 1) * y2) <= height


def digest(rows) -> str:
    """First 128 bits of the SHA-256 of the rows, one comma-separated line each."""
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(map(str, row)).encode() + b"\n")
    return h.hexdigest()[:32]


def gate(problem, outcome, hashes: dict) -> tuple[str | None, str, int]:
    """(error or None, hash, solution count) for one op's outcome."""
    if problem.box is not None:
        code, text = outcome
        if code != 0 or "MISMATCH" in text:
            return f"check exited {code}: {text.strip()[:200]}", "", 0
        payload = json.loads(text)
        if not (payload["match"] and payload["cross_check_ok"]):
            return "check reported no match", "", 0
        rows, found, size = [[payload["common"]]], None, payload["common"]
    else:
        if not outcome.cross_check_ok:
            return "cross_check_ok is false", "", 0
        rows = sorted(q for q in outcome.quadruples() if in_reach(q, problem.s, problem.height))
        found, size = rows, len(rows)
    value = digest(rows)
    expected = hashes.get(problem.key)
    if expected is not None:
        return (None if value == expected else f"solution hash {value[:12]} != reference {expected[:12]}"), value, size
    if found is not None:
        oracle = relthue.brute_force(
            relthue.QuadraticField(problem.m), relthue.BinaryForm(problem.coeffs), problem.K, GATE_BOX
        ).quadruples()
        box = {q for q in found if max(map(abs, q)) <= GATE_BOX}
        if box != oracle:
            return f"box {GATE_BOX} differs from brute_force: {sorted(box ^ oracle)[:4]}", value, size
    return None, value, size


def run(
    name: str, seed: int, seconds: float, trace: bool, run_all: bool, setup_samples: int = 0, min_ops: int = 0
) -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        hashes = json.load(handle)
    tracer = Tracer() if trace else None
    workdir = os.path.join(WORKDIR, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ops, failures, attempted, setup = [], [], 0, []
    try:
        warm = workloads.warmup(name)
        make_op(warm, write_problem(warm, workdir))()  # lazy set-up outside the timed ops
        if setup_samples:
            import_seconds()  # warm-up: compiles bytecode on a fresh checkout
        # The run lasts ``seconds`` at reference speed, not in wall time, so
        # that the number of ops (and with it the rank of the tail percentile)
        # does not follow the machine's speed.  Wall time is capped at three
        # times ``seconds``.
        spent = 0.0
        hard_stop = time.perf_counter() + 3 * seconds
        for problem in workloads.STREAMS[name](seed):
            now = time.perf_counter()
            if not run_all and spent >= seconds and (len(ops) >= min_ops or now >= hard_stop):
                break
            # Import samples are spread over the run, between ops, so that they
            # see the same machine as the ops rather than one short burst of it.
            if len(setup) < setup_samples and spent >= len(setup) * seconds / setup_samples:
                setup.append(import_seconds())
            iteration = time.perf_counter()
            op = make_op(problem, write_problem(problem, workdir))
            gc.collect()
            attempted += 1
            before = reference_seconds()
            try:
                if tracer:
                    outcome, elapsed = tracer.run_op(op)
                else:
                    start = time.perf_counter()
                    outcome = op()
                    elapsed = time.perf_counter() - start
            except Exception as exc:  # a failed op is counted, and the loop goes on
                failures.append(f"{problem.key}: {type(exc).__name__}: {exc}")
                spent += scale(time.perf_counter() - iteration, before)
                continue
            speed_ref = (before + reference_seconds()) / 2
            try:
                error, value, size = gate(problem, outcome, hashes)
            except Exception as exc:  # an outcome the gate cannot read is a wrong answer
                error, value, size = f"gate: {type(exc).__name__}: {exc}", "", 0
            del outcome
            if error:
                failures.append(f"{problem.key}: {error}")
            ops.append(
                {
                    "key": problem.key,
                    "wall_s": elapsed,
                    "seconds": scale(elapsed, speed_ref),
                    "hash": value,
                    "solutions": size,
                }
            )
            spent += scale(time.perf_counter() - iteration, speed_ref)
        while len(setup) < setup_samples:
            setup.append(import_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)
    summary = {
        "attempted": attempted,
        "ops": ops,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    if tracer:
        summary["trace"] = {
            "self_s": dict(tracer.self_s),
            "incl_s": dict(tracer.incl_s),
            "calls": dict(tracer.calls),
            "edges": [[parent, child, n] for (parent, child), n in tracer.edges.items()],
            "counters": dict(tracer.counters),
            "traced": sorted(tracer.traced),
            "absent": tracer.absent,
        }
    return summary


def write_problem(problem, workdir: str) -> str | None:
    if problem.box is None:
        return None
    path = os.path.join(workdir, "problem.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(problem.problem_text())
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.STREAMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true", help="time each layer (a separate run from the untraced one)")
    parser.add_argument("--all", action="store_true", help="run the whole (finite) stream, ignoring --seconds")
    parser.add_argument("--setup-samples", type=int, default=0, help="fresh-interpreter import timings to take")
    parser.add_argument(
        "--min-ops", type=int, default=0, help="go on past --seconds (at most three times as long) until this many ops"
    )
    args = parser.parse_args(argv)
    summary = run(args.workload, args.seed, args.seconds, args.trace, args.all, args.setup_samples, args.min_ops)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
