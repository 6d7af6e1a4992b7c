#!/usr/bin/env python3
"""Runs one workload of the repository benchmark for one seed.

    python3 perfbench/run.py --workload serve-fanout --seed 1 --seconds 30 --trace 0

Builds `ftspan_serve` (from the repository's workspace) and the benchmark
harness (the `perfbench` package) in release mode, records the host, then
runs the harness. Its standard output ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`; `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. The exit code is 0 only
when every output check passed.

`--spread N` runs the workload N times, with seeds seed .. seed+N-1, and
prints for every metric the median, the quartiles, the quartile spread as a
share of the median, and the run count.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve-fanout", "serve-churn")
# A run must end within 180 s; the build before the first run has its own
# allowance.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Builds both binaries; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "net").is_dir():
        raise RuntimeError(f"{ROOT} holds no workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "ftspan-net", "--bin", "ftspan_serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for command in commands:
        remaining = max(1.0, deadline - time.monotonic())
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=remaining, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"`{' '.join(command)}` failed")
    release = target_dir() / "release"
    return release / "ftspan_serve", release / "perfbench"


def commit():
    """The git commit, or a digest of the sources when there is no git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
        if head.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=10,
                                   check=False).stdout.strip()
            return head.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "third_party", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in (".rs", ".toml", ".lock", ".py"):
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_record(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": commit(),
    }


def run_once(args, serve_bin, harness, echo=True):
    """Runs the harness once; returns (exit code, parsed result or None)."""
    out_dir = ROOT / ".perfbench_out"
    command = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--serve-bin", str(serve_bin), "--out", str(out_dir)]
    # Own process group: on a timeout the harness and its server child are
    # stopped together.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3, None
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    lines = stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if echo:
        if result is None:
            # Never let a partial run end with something that looks like a
            # result.
            sys.stderr.write(stdout)
        else:
            sys.stdout.write(stdout)
            sys.stdout.flush()
    if result is None and child.returncode == 0:
        return 4, None
    return child.returncode, result


def spread(args, serve_bin, harness):
    per_metric = {}
    units = {}
    first_seed = args.seed
    for i in range(args.spread):
        args.seed = first_seed + i
        code, result = run_once(args, serve_bin, harness, echo=False)
        if result is None or code != 0:
            log(f"seed {args.seed}: run failed with exit code {code}")
            return 1
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        log(f"seed {args.seed}: done")
    print(f"{'metric':<28} {'unit':<10} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/median':>11} {'runs':>5}")
    for name, values in per_metric.items():
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        share = (q3 - q1) / abs(median) if median else float("nan")
        print(f"{name:<28} {units[name]:<10} {median:>14.6g} {q1:>14.6g} {q3:>14.6g} {share:>11.4f} {len(values):>5}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run N seeds and print each metric's median and quartiles")
    args = parser.parse_args()
    # A SIGTERM to this script unwinds through run_once, which then stops
    # the harness and its server too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        serve_bin, harness = build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2
    if args.spread:
        return spread(args, serve_bin, harness)
    print("host " + json.dumps(host_record(args)), flush=True)
    code, result = run_once(args, serve_bin, harness)
    if result is not None and not result.get("correct"):
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
