"""Run every command path that the reach gate counts, under cProfile.

    PYTHONPATH=src:perfbench PYTHONHASHSEED=0 python tests/reach_run.py WORKDIR

The run covers each perfbench/digests.json argv with and without --json,
one seed-1 pass of every benchmark workload with its output checks, and
every run of the behaviour corpus (corpus.py).  It prints one JSON object:
"entered", the [file name, first line, qualified name] of every orbitkit
code object that ran, and "problems", each digest, workload check or corpus
record that came out wrong.
Profiling starts before orbitkit is imported, so import-time calls count.
"""

import cProfile
import json
import sys
from pathlib import Path

profile = cProfile.Profile()
profile.enable()

import workloads  # noqa: E402  (imports orbitkit.cli)

# the corpus builds its b_n files with emit_algebra when it is imported:
# preparing the files is not a command path, so it is not profiled
profile.disable()
import corpus  # noqa: E402

profile.enable()


def main(workdir):
    problems = []
    recorded = workloads.load_digests()
    for label, entry in recorded.items():
        problems += workloads.digest_problems(recorded, label,
                                              workloads.run_cli(entry["argv"]))
        text = workloads.run_cli([a for a in entry["argv"] if a != "--json"])
        if text.exit != entry["exit"]:
            problems.append(f"{label} without --json: exit {text.exit}")
    for name, build in workloads.WORKLOADS.items():
        ctx = {}
        for op in build(1, workdir):
            result = op.run(ctx)
            if op.expect_exit is not None and result.exit != op.expect_exit:
                problems.append(f"{name} {op.label}: exit {result.exit}")
            else:
                problems += [f"{name} {op.label}: {p}" for p in op.check(result)]
    corpus.write_files(workdir)
    problems += corpus.problems(corpus.replay(corpus.RUNS, workdir), corpus.load_records())
    profile.disable()
    entered = sorted({(Path(code.co_filename).name, code.co_firstlineno, code.co_qualname)
                      for code in (entry.code for entry in profile.getstats())
                      if not isinstance(code, str)
                      and Path(code.co_filename).parent.name == "orbitkit"})
    print(json.dumps({"entered": entered, "problems": problems}))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
