#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload er-dram --seed 1 --seconds 10 --trace 0

The Go program in perfbench/ is built from source with its build cache,
temporary files and binary under .bench_build/ in the current directory,
then run with the given arguments; its exit code is this script's. A traced
run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOFLAGS": "-buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "tmp", "spans"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode or 1

    args = sys.argv[1:]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args(args)
    if known.trace == "1":
        name = "%s-seed%s.json" % (known.workload, known.seed)
        args = args + ["--spans", os.path.join(build, "spans", name)]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
