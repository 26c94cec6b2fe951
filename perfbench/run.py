#!/usr/bin/env python3
"""Build and run the SPI benchmark, or compare two result logs.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload relay_8B --seed 1 --seconds 20 --trace 0

builds `perfbench` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs it, prints a host-fingerprint line and then the
benchmark's result as the last line of stdout, and appends both to
`<target dir>/perfbench-results.jsonl`. The exit code is the
benchmark's: 0 when every output check passed.

Compare two result logs (medians per workload and metric):

    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Results recorded under different host fingerprints are flagged and not
compared.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint():
    """nproc, CPU model, kernel, rustc version and source commit."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "kernel": platform.release(),
        "rustc": rustc.stdout.strip() or "unknown",
        "commit": commit,
    }


def host_key(fp):
    """The fingerprint fields that decide whether two results compare."""
    return (fp["nproc"], fp["cpu"], fp["kernel"], fp["rustc"])


def run(args):
    if not os.path.isdir(os.path.join(ROOT, "crates", "spi")):
        sys.stderr.write("perfbench: the SPI library sources (crates/) are not next to "
                         "this directory; run from a full checkout\n")
        return 2
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Every round starts fresh PE threads; with glibc's default arena
    # limit, which arena each one lands in decides peak RSS by ~1 MiB
    # from run to run. Two arenas (one per PE) keep rss_peak_mib steady
    # without changing throughput measurably.
    bench_env = dict(env)
    bench_env.setdefault("MALLOC_ARENA_MAX", "2")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    binary = os.path.join(target, "release", "perfbench")
    bench = subprocess.run([binary] + args, cwd=ROOT, env=bench_env, stdout=subprocess.PIPE,
                           text=True)
    lines = bench.stdout.strip().splitlines()
    if not lines:
        return bench.returncode or 2
    result = json.loads(lines[-1])
    fp = fingerprint()
    record = {"fingerprint": fp, "args": args, "result": result}
    with open(os.path.join(target, "perfbench-results.jsonl"), "a") as log:
        log.write(json.dumps(record) + "\n")
    print(json.dumps({"fingerprint": fp}))
    print(lines[-1])
    return bench.returncode


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def compare(old_path, new_path):
    old, new = load(old_path), load(new_path)
    hosts = {host_key(r["fingerprint"]) for r in old + new}
    if len(hosts) > 1:
        print("FINGERPRINT MISMATCH: results come from different hosts or toolchains; "
              "not compared")
        for h in sorted(hosts):
            print("  ", h)
        return 3

    def arg(args, flag, default):
        return args[args.index(flag) + 1] if flag in args else default

    def medians(records):
        values = {}
        for r in records:
            key = (arg(r["args"], "--workload", "?"), arg(r["args"], "--trace", "0"))
            for name, m in r["result"]["metrics"].items():
                values.setdefault(key + (name,), []).append(m["value"])
        return {k: (statistics.median(v), len(v)) for k, v in values.items()}

    a, b = medians(old), medians(new)
    print(f"{'workload':16} {'metric':44} {'old median':>14} {'new median':>14} {'new/old':>8}")
    for key in sorted(set(a) & set(b)):
        (ma, na), (mb, nb) = a[key], b[key]
        ratio = f"{mb / ma:8.3f}" if ma else "       -"
        print(f"{key[0]:16} {key[2]:44} {ma:14.4f} {mb:14.4f} {ratio}  (n={na}/{nb})")
    return 0


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.stderr.write(__doc__)
            return 2
        return compare(argv[1], argv[2])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
