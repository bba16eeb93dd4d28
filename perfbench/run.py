#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload des-shuffle --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary all live under
.bench_build/ in the current directory, so the benchmark reads and writes
only inside the checkout. Arguments are passed to the binary unchanged; the
exit status is the binary's, or the build's if the build fails (for
instance when the repository's module is not next to this directory).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOTMPDIR": "tmp",
        "GOPATH": "gopath",
        "GOMODCACHE": os.path.join("gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    # The module needs nothing beyond the repository itself.
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOTELEMETRY="off", GOFLAGS="-mod=mod")
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode or 2
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
