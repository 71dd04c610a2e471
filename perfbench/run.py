"""orbitkit benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Run from the root of a source checkout; the program is imported from
./src.  The load is one closed loop in one thread: each op starts when the
previous one returns.  A pass runs the workload's fixed op list once;
passes repeat until the next one would end after --seconds (at least
MIN_PASSES).  Times are taken at reference host speed (see hostspeed.py).
The end-to-end run (--trace 0) reports

  setup_s        median over SETUP_RUNS fresh interpreters of the time to
                 import orbitkit.cli (sympy import plus the catalog build)
  wall_s         time to solution of the op list: the sum over ops of each
                 op's median across passes
  op_geomean_ms  geometric mean of those per-op medians, so every op counts
                 equally (op sizes span three decades)
  peak_rss_mb    peak resident memory of this process

The traced run (--trace 1) alternates untraced and traced passes, reports
the per-layer metrics of the traced ones per pass, and writes their spans
to .perfbench_work/trace-<workload>-seed<seed>.json.  Every output
is checked; an op that raises or exits with an unexpected code is failed,
one whose output disagrees with a known answer is wrong, and either makes
the run exit 1 after printing its result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import hostspeed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

SETUP_RUNS = 7
MIN_PASSES = 2
# the child probes the host before and after the import, like hostspeed.Clock
SETUP_CODE = ("import sys, time\n"
              "from hostspeed import EDGE_TERMS, probe\n"
              "before = probe(EDGE_TERMS)\n"
              "t = time.perf_counter()\n"
              "import orbitkit.cli\n"
              "t = time.perf_counter() - t\n"
              "print(t, before + probe(EDGE_TERMS), 2 * EDGE_TERMS)\n")


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure_setup(runs: int = SETUP_RUNS) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(Path(__file__).parent), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, probe_s, terms = proc.stdout.split()
        samples.append(float(seconds) * hostspeed.factor(float(probe_s), int(terms)))
    return statistics.median(samples)


class Tally:
    """Attempted, failed and wrong ops; the first few problems go to stderr."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0

    def record(self, op, result, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self._note(op, "raised:\n" + "".join(traceback.format_exception(error)))
        elif op.expect_exit is not None and result.exit != op.expect_exit:
            self.failed += 1
            self._note(op, f"exit {result.exit}, expected {op.expect_exit}: "
                           f"{result.err.strip()[:300]}")
        else:
            try:
                problems = op.check(result)
            except Exception as exc:  # a malformed output is a wrong answer
                problems = [f"check raised {exc!r}"]
            if problems:
                self.wrong += 1
                self._note(op, "; ".join(problems))

    def _note(self, op, text):
        if self.failed + self.wrong <= 5:
            print(f"perfbench: {op.label}: {text}", file=sys.stderr)


def run_pass(ops, tally, times, rec=None):
    """Run the op list once; times[label] gets each op's time at reference
    speed, and rec, if given, a root span per op."""
    ctx = {}
    clock = hostspeed.Clock(sample_inside=rec is None)
    for op in ops:
        # each op starts from a collected heap, so that no op pays for
        # collecting the garbage an earlier one left
        gc.collect()
        sid = rec.open(op.label, tracer.ROOT_LAYER) if rec is not None else None
        result, error, seconds, factor = clock.call(lambda: op.run(ctx))
        if rec is not None:
            rec.close(sid)
        times[op.label].append(seconds * factor)
        tally.record(op, result, error)


def keep_going(passes, started, last, seconds):
    """Another pass, if the minimum is not reached or it would end in time."""
    return passes < MIN_PASSES or (time.perf_counter() - started) + last <= seconds


def end_to_end(ops, seconds, tally):
    times = defaultdict(list)
    passes, last, started = 0, 0.0, time.perf_counter()
    while keep_going(passes, started, last, seconds):
        t0 = time.perf_counter()
        run_pass(ops, tally, times)
        last = time.perf_counter() - t0
        passes += 1
    medians = [statistics.median(times[op.label]) for op in ops]
    print(f"perfbench: {len(ops)} ops, {passes} passes", file=sys.stderr)
    return {
        "wall_s": (sum(medians), "s"),
        "op_geomean_ms": (geomean(medians) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(ops, seconds, tally, workload, seed):
    rec = tracer.Recorder()
    plain, with_trace = defaultdict(list), defaultdict(list)
    probe = tracer.CacheProbe()
    passes, last, started = 0, 0.0, time.perf_counter()
    while keep_going(passes, started, last, seconds):
        t0 = time.perf_counter()
        if passes % 2 == 0:
            run_pass(ops, tally, plain)
        else:
            uninstall = tracer.install(rec)
            try:
                with probe:
                    run_pass(ops, tally, with_trace, rec)
            finally:
                uninstall()
        last = time.perf_counter() - t0
        passes += 1
    n_traced = passes // 2
    overhead = (sum(min(with_trace[op.label]) for op in ops)
                / sum(min(plain[op.label]) for op in ops))
    WORKDIR.mkdir(exist_ok=True)
    out = WORKDIR / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({"passes": n_traced, "spans": rec.spans,
                               "calls": rec.calls, "counters": rec.counters}))
    print(f"perfbench: {len(ops)} ops, {n_traced} traced passes, spans in {out}",
          file=sys.stderr)
    return tracer.per_layer_metrics(rec, n_traced, probe, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record the --json digests of the catalog ops and exit")
    args = parser.parse_args(argv)
    if not (SRC / "orbitkit" / "cli.py").is_file():
        print(f"perfbench: no orbitkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.record_digests:
        table = workloads.record_digests()
        print(f"perfbench: recorded {len(table)} digests in {workloads.DIGESTS}")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    setup = None if args.trace else measure_setup()
    WORKDIR.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    tally = Tally()
    if args.trace:
        metrics = traced(ops, args.seconds, tally, args.workload, args.seed)
    else:
        metrics = end_to_end(ops, args.seconds, tally)
        metrics["setup_s"] = (setup, "s")
    ok = tally.failed == 0 and tally.wrong == 0
    print(f"perfbench: {tally.attempted} ops attempted, {tally.failed} failed, "
          f"{tally.wrong} wrong", file=sys.stderr)
    print(json.dumps({
        "correct": ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
