#!/usr/bin/env python3
"""Build and run one benchmark workload; print its result as one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n|default|holdout>
        --seconds <s> --trace <0|1> [--default-seed N] [--holdout-seed N]

The benchmark binary is built from `perfbench/` (a package of its own that
path-depends on the workspace crates) into `$CARGO_TARGET_DIR`, default
`.bench_build`. This script checks the work fingerprint against any
earlier run of the same binary, workload and seed in this checkout:
deterministic counts that differ between two runs are reported as a
failed check, not absorbed as noise.

The last line of stdout is `{"correct", "attempted", "failed", "metrics"}`.
Exits non-zero without printing a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--default-seed", type=int, default=1)
    parser.add_argument("--holdout-seed", type=int, default=104729)
    args = parser.parse_args()
    named = {"default": args.default_seed, "holdout": args.holdout_seed}
    try:
        args.seed = named[args.seed] if args.seed in named else int(args.seed)
    except ValueError:
        parser.error(f"--seed must be an integer, 'default' or 'holdout', not {args.seed!r}")
    return args


def build(target_dir):
    manifest = ROOT / "perfbench" / "Cargo.toml"
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail(f"cargo build failed with exit code {result.returncode}")
    return target_dir / "release" / "perfbench"


def run_binary(binary, argv):
    """Runs the benchmark binary; returns its stdout lines."""
    try:
        result = subprocess.run(
            [str(binary), *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=BINARY_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary ran past {BINARY_TIMEOUT_S}s and was killed")
    if result.returncode != 0:
        fail(f"benchmark binary exited with {result.returncode}")
    return result.stdout.splitlines()


def main():
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)
    out_dir = target_dir / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = run_binary(
        binary,
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out-dir", str(out_dir),
        ],
    )
    if not lines:
        fail("benchmark binary printed nothing")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    fingerprint = result.pop("fingerprint")
    metrics = result["metrics"]

    expected = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")
    bad = [name for name, m in metrics.items() if not isinstance(m["value"], (int, float))]
    if bad:
        fail(f"non-numeric metric values: {bad}")

    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    stored = out_dir / "fingerprints" / f"{args.workload}-{args.seed}-{digest}.json"
    if stored.exists():
        earlier = json.loads(stored.read_text())
        result["attempted"] += 1
        if earlier != fingerprint:
            result["failed"] += 1
            result["correct"] = False
            for key in sorted(set(earlier) | set(fingerprint)):
                if earlier.get(key) != fingerprint.get(key):
                    print(
                        f"FINGERPRINT DRIFT {key}: earlier run {earlier.get(key)} vs now {fingerprint.get(key)}",
                        file=sys.stderr,
                    )
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(fingerprint, sort_keys=True, indent=1) + "\n")

    print(json.dumps(result))


if __name__ == "__main__":
    main()
