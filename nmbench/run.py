#!/usr/bin/env python3
"""Build and run the newmad repo benchmark.

Usage (from the root of a checkout):

    python3 nmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go program under nmbench/ is compiled from source into .bench_build/
(or $CARGO_TARGET_DIR when set), with the Go build cache, temp files and
toolchain config kept inside the checkout. All arguments are passed to the
benchmark binary, whose last stdout line is the JSON result. A failed build
or a failed run exits non-zero without printing a result.
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    bench = os.path.join(root, "nmbench")
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(root, build))
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOMODCACHE"] = os.path.join(env["GOPATH"], "pkg", "mod")
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=mod"
    env["GOENV"] = "off"
    binary = os.path.join(build, "nmbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if b.returncode != 0:
        sys.stderr.write(b.stdout.decode(errors="replace"))
        sys.stderr.write("nmbench: build failed\n")
        return 2
    try:
        r = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("nmbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
