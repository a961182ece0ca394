#!/usr/bin/env python3
"""Repository benchmark: timed reproduction campaigns with per-layer attribution.

Usage, from the repository root:

    python3 campaign-bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 campaign-bench/run.py --workload <name> --bless

The driver clears every inherited REPRO_* variable, builds the
campaign-bench package (release only), points the trace store at a
private directory under .bench_work/, and runs each step in a fresh
process. With --trace 0 it repeats untraced campaigns for --seconds and
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced campaigns, runs the layer probes, and reports the per-layer
metrics. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the
provenance (git rev, nproc, scale, seed). --bless rewrites the reference
renders from the current code. README.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_CAMPAIGNS = 3
STEP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def metric_spec():
    """(name, unit) of every end-to-end and per-layer metric, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


END_TO_END, PER_LAYER = metric_spec()


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def unpinned_env():
    """The inherited environment without any REPRO_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def build():
    """Builds the benchmark package in release mode; returns the binary."""
    if not os.path.isdir(os.path.join(ROOT, "crates", "experiments")):
        fail(f"{ROOT} holds no repository sources to build the benchmark from")
    env = unpinned_env()
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark build timed out")
    if proc.returncode != 0:
        fail("benchmark build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "campaign-bench")


def step(binary, args, env):
    """Runs one benchmark step in a fresh process; returns its JSON output."""
    try:
        proc = subprocess.run([binary, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"step {' '.join(args)} exceeded {STEP_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"step {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.basename(HERE)]
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                h.update(top.encode() + f.read())
    return h.hexdigest()[:16]


class Bench:
    def __init__(self, workload, binary, work):
        self.workload = workload
        self.binary = binary
        self.work = work
        self.store = os.path.join(work, "store")
        self.env = unpinned_env()
        self.env["REPRO_TRACE_STORE"] = "rw"
        self.env["REPRO_TRACE_STORE_DIR"] = self.store
        self.count = 0
        self.setup_s = []
        self.warm = None
        self.scale = None

    def setup(self):
        """Builds the starting store (several timed repetitions)."""
        out = step(self.binary, ["setup", self.workload], self.env)
        self.setup_s += out["setup_s"]
        self.warm, self.scale = out["warm"], out["scale"]

    def campaign(self, traced=False, bless=False):
        """One campaign in a fresh process. A warm store is built once and
        replayed by every campaign; a cold workload sets up its empty store
        before each campaign, so its set-up reps span the whole run."""
        if not self.warm:
            self.setup()
        self.count += 1
        args = ["campaign", self.workload, "--work", os.path.join(self.work, f"c{self.count}")]
        args += ["--traced"] if traced else []
        args += ["--bless"] if bless else []
        out = step(self.binary, args, self.env)
        for problem in out["problems"]:
            print(f"FAIL {self.workload}: {problem}", file=sys.stderr)
        for cell in out["failed_cells"]:
            print(f"FAIL {self.workload}: cell {cell}", file=sys.stderr)
        for name in out["mismatched_tables"]:
            print(f"FAIL {self.workload}: {name} render differs from "
                  f"reference/{self.workload}/{name}.txt", file=sys.stderr)
        return out

    def campaigns(self, seconds, traced_too):
        """Repeats campaigns (alternating untraced/traced when asked) for `seconds`."""
        untraced, traced = [], []
        started = time.monotonic()
        while len(untraced) < MIN_CAMPAIGNS or time.monotonic() - started < seconds:
            untraced.append(self.campaign())
            if traced_too:
                traced.append(self.campaign(traced=True))
        return untraced, traced


def tally(outs):
    attempted = sum(o["cells"] + o["tables"] for o in outs)
    failed = sum(len(o["failed_cells"]) + len(o["mismatched_tables"]) for o in outs)
    correct = failed == 0 and not any(o["problems"] for o in outs)
    return correct, attempted, failed


def end_to_end(untraced, setup_s):
    _, attempted, failed = tally(untraced)
    med = statistics.median
    return {
        "wall_s": med(o["wall_s"] for o in untraced),
        "sim_minstr_per_s": med(o["instructions"] / o["wall_s"] / 1e6 for o in untraced),
        "setup_s": setup_s,
        "peak_heap_mb": med(o["peak_heap_mb"] for o in untraced),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(untraced, traced, probe):
    med = statistics.median
    values = {name: med(o["layers"][name] for o in traced)
              for name, _ in PER_LAYER if name in traced[0]["layers"]}
    values.update(probe)
    traced_wall = med(o["wall_s"] for o in traced)
    values["telemetry.overhead_pct"] = (traced_wall / med(o["wall_s"] for o in untraced) - 1) * 100
    shares = {name: round(100 * values[name] / traced_wall, 1)
              for name, unit in PER_LAYER if unit == "s" and name != "analysis.static_s"}
    print("traced wall split (% of " + f"{traced_wall:.3f} s): " + json.dumps(shares),
          file=sys.stderr)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--bless", action="store_true",
                        help="rewrite the reference renders from the current code")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    binary = build()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(args.workload, binary, work)
        if args.bless:
            bench.campaign(bless=True)
            print(f"blessed reference/{args.workload}/", file=sys.stderr)
            return
        untraced, traced = bench.campaigns(args.seconds, traced_too=args.trace == 1)
        if args.trace:
            probe = step(binary, ["probe", args.workload, "--seed", str(args.seed)], bench.env)
            values = per_layer(untraced, traced, probe)
            spec = PER_LAYER
        else:
            values = end_to_end(untraced, statistics.median(bench.setup_s))
            spec = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed = tally(untraced + traced)
    print(json.dumps({
        "workload": args.workload, "git_rev": git_rev(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "scale": bench.scale, "seed": args.seed,
        "campaigns": len(untraced) + len(traced), "failed_frac": failed / attempted,
    }))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
