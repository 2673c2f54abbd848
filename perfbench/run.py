#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds the daemon (`bin/transfusion_cli.exe`) and the benchmark driver
(`perfbench/ocaml/perfbench.exe`) from the checkout's sources with dune,
then hands every argument to the driver:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

The driver prints diagnostics and, as its last stdout line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  BENCHMARK.json
lists the workloads and metrics; perfbench/README.md documents them.

Run from the root of a checkout.  Exits non-zero without a result when
the sources are missing or the build fails.
"""

import os
import shutil
import subprocess
import sys

DRIVER = os.path.join("_build", "default", "perfbench", "ocaml", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "transfusion_cli.exe")
SOURCES = ["dune-project", os.path.join("bin", "transfusion_cli.ml"), os.path.join("lib", "serve")]


def main():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not a transfusion checkout (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    # Single-domain runs: on a 2-core host the second domain fights the
    # load generator for the other core and widens every spread.
    env = dict(os.environ, TRANSFUSION_JOBS="1")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", CLI, DRIVER],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    # The daemon and the driver each get a core of their own where two
    # are available: left to the scheduler they share one for seconds
    # at a time, and the latency of the pipelined workloads jumps
    # between two regimes.
    pin = []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and shutil.which("taskset"):
        os.sched_setaffinity(0, {cpus[0]})
        pin = ["--daemon-cpu", str(cpus[1])]
    run = subprocess.run([DRIVER, "--cli", CLI] + pin + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
