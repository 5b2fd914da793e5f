#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the release `satverify`
binary and the `perfbench` harness (into $CARGO_TARGET_DIR, default
`.bench_build`), sets the workload up from the seed, measures in a fresh
process for the given seconds and checks every verdict. An untraced run
repeats the set-up before and after measuring; the median is `setup_s`. With `--trace 0` the result carries the
end-to-end metrics, with `--trace 1` the per-layer ones. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("drat-certify", "daemon-miss", "daemon-hit")
# an untraced run sets up this often, half before and half after the
# measured phase, so that the median (`setup_s`) spans the run
SETUP_REPEATS = 12
MEASURE_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(target):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "satverify").is_dir():
        fail(f"{ROOT} is not a satverify checkout; the benchmark builds it from source")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for command in (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "satverify", "--bin", "satverify"],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"`{' '.join(command)}` failed")
    return target / "release" / "perfbench", target / "release" / "satverify"


def source_digest():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.lock"] + sorted((ROOT / "crates").rglob("*.rs")) + sorted(BENCH.rglob("*.rs"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def check_ledger(ledger_path, workload, observed, errors):
    """Each input's core size and checked count must repeat across runs
    (the seeded renaming changes neither)."""
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    for name, value in observed.items():
        known = ledger.setdefault(f"{workload}/{name}", value)
        if known != value:
            errors.append(f"{name}: core and checked {value} differ from an earlier run's {known}")
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = target_dir()
    perfbench, satverify = build(target)
    state = target / "perfbench"
    work = state / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = [args.workload, "--seed", str(args.seed), "--dir", str(work)]

    def setup(repeats):
        result = subprocess.run(
            [str(perfbench), "setup", *common, "--repeats", str(repeats)], stdout=subprocess.PIPE, text=True
        )
        if result.returncode != 0:
            fail("set-up failed")
        return [float(line) for line in result.stdout.split()]

    setup_times = setup(SETUP_REPEATS // 2 if args.trace == 0 else 1)

    measure = [
        str(perfbench), "measure", *common, "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--satverify", str(satverify),
    ]
    try:
        result = subprocess.run(measure, stdout=subprocess.PIPE, text=True, timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the measured phase took longer than {MEASURE_TIMEOUT_S} s")
    if result.returncode != 0 or not result.stdout.strip():
        fail("the measured phase failed")
    report = json.loads(result.stdout.strip().splitlines()[-1])
    if args.trace == 0:
        # the same inputs again, byte for byte
        setup_times += setup(SETUP_REPEATS - SETUP_REPEATS // 2)

    errors = list(report["errors"])
    check_ledger(state / "ledger.json", args.workload, report["observed"], errors)
    metrics = report["metrics"]
    if args.trace == 0:
        # plus the median time to start the daemon and warm its cache
        setup_s = statistics.median(setup_times) + report["ready_s"]
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    record = dict(report["info"], commit=source_digest(), setup_runs_s=setup_times, errors=errors)
    with open(state / "runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    print(json.dumps(record), file=sys.stderr)
    for error in errors:
        print(f"perfbench: failed verdict: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": report["attempted"],
        "failed": len(errors),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
