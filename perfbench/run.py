#!/usr/bin/env python3
"""Build and run the ECL benchmark.

    python3 perfbench/run.py --workload <stack|pager|fleet|compile> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds `perfbench/` (a
package of its own that depends on the repository's library) in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload in a child process and prints that process's output. Its last
line is one JSON object: `correct`, `attempted`, `failed` and the
metrics of the mode. With `--trace 0` the script adds `peak_rss_mb`,
the child's peak resident memory. It checks that the metric names and
units are exactly those `BENCHMARK.json` lists for the mode, and exits
non-zero without a result line if the build, the run or that check
fails. See `perfbench/README.md` for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stack", "pager", "fleet", "compile")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    # Keep stdout for the result line: build output goes to stderr.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reaps the child and reports its own resource usage, so the
    # peak memory is the workload's alone (not the build's).
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss / 1024.0  # KiB -> MiB


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build(env)

    code, out, rss_mb = run(os.path.join(target, "release", "ecl-perfbench"), args)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"workload exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(out)
        fail("workload printed no result line")
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MiB"}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
