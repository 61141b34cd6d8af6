#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload suite|sweep --seed N
                             --seconds S --trace 0|1 [--record FILE]

Run from the root of a checkout. Builds perfbench/ (cactus_perfbench
plus the simulator library from src/) into $CARGO_TARGET_DIR, default
.bench_build, then runs it.

An untraced run splits the S seconds over five cactus_perfbench
processes and reports each metric's median over them: a memory-bound
pass swings far more from one process to the next than between passes
of one process, so several processes per run steady the result; set-up
is timed in each of them too. A traced run is one process.

Every process's own correctness gates and its exact-repeat counts
(against perfbench/reference.json) are checked. The host facts print on
a `host:` line, and the last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end metrics, with --trace 1 its per_layer
metrics. --record appends the whole record (host facts, seed, result)
to FILE as one JSON line, for perfbench/compare.py.

Exit status: 0 when correct, 1 on a failed check, 2 when the checkout
cannot be built or run.
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

# Counts only a traced run produces: they need an extra untimed pass.
TRACE_ONLY = {"gpu.sampled_warps", "core.serve.bodies_digest"}
MEASURED_PROCESSES = 5
RUN_TIMEOUT_S = 170


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "perfbench")


def build():
    """Configure and build cactus_perfbench; the build log goes to stderr."""
    for need in ("src/CMakeLists.txt", "tests/goldens/digests.txt",
                 "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need} not found: run from a full checkout")
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, *gen,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(out, "cactus_perfbench")


def drive(binary, args, workdir, seconds):
    """Run cactus_perfbench once; return (exit code, parsed RESULT or None)."""
    cmd = [binary, "--workload", args.workload,
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--goldens", os.path.join(ROOT, "tests/goldens/digests.txt"),
           "--workdir", workdir, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"cactus_perfbench did not finish within {RUN_TIMEOUT_S} s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return proc.returncode, result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """The git commit, or null: a benchmark checkout need not be a
    repository. source_digest identifies the sources either way."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_counts(workload, counts, traced):
    """Exact-repeat check against the reference; returns failures."""
    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)[workload]
    failures = []
    for key in sorted(set(ref) | set(counts)):
        if key not in counts:
            if traced or key not in TRACE_ONLY:
                failures.append(f"count {key} missing from the run")
        elif key not in ref:
            failures.append(f"count {key} has no reference value")
        elif counts[key] != ref[key]:
            failures.append(f"count {key} = {counts[key]}, reference "
                            f"{ref[key]}")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["suite", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append the full record here")
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    binary = build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workdir = os.path.join(build_dir(), "work-" + args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    # The workloads have nothing random to draw (see README.md), so the
    # seed is only recorded.
    procs = 1 if args.trace else MEASURED_PROCESSES
    results, failures = [], []
    for _ in range(procs):
        code, res = drive(binary, args, workdir, args.seconds / procs)
        if res is None:
            die(f"cactus_perfbench printed no result (exit {code})")
        if code != 0 and not res["failures"]:
            failures.append(f"cactus_perfbench exited {code}")
        failures += res["failures"]
        failures += check_counts(args.workload, res["counts"], args.trace)
        results.append(res)
        if failures:
            break
    measured = {name: statistics.median(r["metrics"][name] for r in results)
                for name in results[0]["metrics"]}
    for name in ("setup_s", "peak_rss_mib"):
        measured[name] = statistics.median(r[name] for r in results)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in measured:
            failures.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": measured[m["name"]],
                              "unit": m["unit"]}

    for f in failures:
        log("FAILED:", f)
    result = {"correct": not failures,
              "attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "metrics": metrics}
    host = {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "commit": commit(), "source_digest": source_digest(),
            "scale": results[0]["scale"],
            "config_digest": results[0]["config_digest"],
            "seed": args.seed, "seconds": args.seconds,
            "passes": [r["passes"] for r in results],
            "setup_runs_s": [r["setup_s"] for r in results]}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload,
                                "trace": args.trace, "host": host,
                                "result": result}) + "\n")
    print("host: " + json.dumps(host))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
