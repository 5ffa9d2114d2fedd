#!/usr/bin/env python3
"""Build the synthesis benchmark from source and run it.

Run from the root of a checkout:

    python3 synthbench/run.py --workload mr_base --seed 0 --seconds 10 --trace 0
    python3 synthbench/run.py --self-test

The first form builds synthbench/bench.exe with dune and runs one
measurement; the last line of its output is the JSON result.  The second
runs the benchmark's self-tests against BENCHMARK.json.  The exit code is
that of the benchmark: 0 only when every synthesis passed its checks.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "synthbench", "bench.exe")


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("synthbench: no dune-project and lib/ here; run from the root "
              "of an archex checkout", file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("synthbench: dune not found on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout: keep it off.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "--display=quiet", "./synthbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    if argv == ["--self-test"]:
        args = ["selftest", "BENCHMARK.json"]
    else:
        args = ["run"] + argv
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
