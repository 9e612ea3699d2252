#!/usr/bin/env python3
"""Build the cliffedge benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload cascade|daemon|fleet --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The Go toolchain's caches, the binary
and every file the benchmark writes stay under .bench_build/ in the
checkout. The last line of standard output is the benchmark's JSON result;
build output goes to standard error. The exit code is the benchmark's, or
non-zero without a result when the checkout cannot be built.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if shutil.which("go") is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: %s holds no go.mod; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    out = os.path.join(build, "perfbench-out")
    return subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
