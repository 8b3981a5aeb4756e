#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/main.cc).

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The benchmark is compiled from source on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Before the run
it prints a host block (nproc, CPU model, L3 size, kernel, commit, build
type) and flags any difference from the host the bounds in BENCHMARK.json
were fixed on (perfbench/reference_host.json). The last stdout line is the
benchmark's JSON result. --selftest runs the benchmark's own tests: the
histogram and Poisson-schedule checks, then a tiny-scale run of every
workload in both trace modes that must print every metric BENCHMARK.json
declares, with its unit, and pass the correctness checks.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
PART_TIMEOUT_S = 85


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    for t in targets:
        rc = subprocess.call(["cmake", "--build", bdir, "--target", t, "-j", jobs],
                             stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return None
    return bdir


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_block():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "l3": read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "kernel": platform.release(),
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": BUILD_TYPE,
    }


def check_host(host):
    """Names the fields that differ from the reference host."""
    try:
        with open(os.path.join(HERE, "reference_host.json")) as f:
            ref = json.load(f)
    except (OSError, ValueError):
        return ["reference_host.json unreadable"]
    return [k for k in ("nproc", "cpu_model", "l3") if ref.get(k) != host.get(k)]


def run_part(bdir, part, workload, seed, seconds, trace, scale, echo):
    """Runs one part of the benchmark in its own process; returns (exit code,
    stdout lines, parsed result or None)."""
    work = os.path.join(os.path.dirname(bdir), "perfbench-work")
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload, "--part", part,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=PART_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: %s part exceeded %d s" % (part, PART_TIMEOUT_S))
        return 1, [], None
    lines = out.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            pass
    if echo:
        for line in lines:
            print(line, flush=True)
    return proc.returncode, lines, result


def run_workload(bdir, workload, seed, seconds, trace, scale="full", echo=True):
    """Runs the closed-loop part, then the open-loop part, each in a fresh
    process so that neither inherits the other's heap, and merges their
    results. Returns (exit code, merged result or None, stdout lines)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    setups = []
    all_lines = []
    for part in ("closed", "open"):
        rc, lines, result = run_part(bdir, part, workload, seed, seconds, trace, scale, echo)
        all_lines += lines
        if result is None or rc not in (0, 1):
            return (rc if rc != 0 else 1), None, all_lines
        merged["correct"] = merged["correct"] and result["correct"] and rc == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(result["metrics"])
        setups += result.get("setup_s_samples", [])
    if trace == 0:
        # setup_s: the median over every set-up of both parts.
        merged["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        line = "info setup_s samples: %s\nmetric %-32s %16.6f s" % (
            " ".join("%.4f" % x for x in setups), "setup_s", statistics.median(setups))
    else:
        pct = 100.0 * merged["failed"] / max(1, merged["attempted"])
        merged["metrics"]["failed_ops_pct"] = {"value": pct, "unit": "%"}
        line = "metric %-32s %16.6f %%" % ("failed_ops_pct", pct)
    all_lines += line.splitlines()
    if echo:
        print(line, flush=True)
    return (0 if merged["correct"] else 1), merged, all_lines


def selftest():
    bdir = build(["perfbench", "perfbench_stats_test"])
    if bdir is None:
        return 1
    if subprocess.call([os.path.join(bdir, "perfbench_stats_test")]) != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, result, lines = run_workload(bdir, name, 7, 2, trace, scale="tiny", echo=False)
            problems = []
            if result is None:
                problems.append("no result")
                result = {}
            if rc != 0 or result.get("correct") is not True or result.get("failed") != 0:
                problems.append("exit %d, correct=%s" % (rc, result.get("correct")))
            metrics = result.get("metrics", {})
            printed = [l for l in lines if l.startswith("metric ")]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("metric %s missing or wrong unit" % m["name"])
                elif not any(l.split()[1] == m["name"] and l.split()[-1] == m["unit"]
                             for l in printed):
                    problems.append("metric %s not printed with its unit" % m["name"])
            if set(metrics) != {m["name"] for m in declared}:
                problems.append("undeclared metrics: %s" %
                                sorted(set(metrics) - {m["name"] for m in declared}))
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("selftest %-16s trace=%d %s" % (name, trace, status))
            failures += bool(problems)
    print("selftest: %s" % ("all passed" if failures == 0 else "%d failed" % failures))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    bdir = build(["perfbench"])
    if bdir is None:
        log("perfbench: build failed")
        return 1
    host = host_block()
    diffs = check_host(host)
    host["matches_reference_host"] = not diffs
    print("host " + json.dumps(host))
    if diffs:
        print("WARNING: host differs from perfbench/reference_host.json in %s; these numbers "
              "are not comparable with the bounds' reference runs" % ", ".join(diffs))
    rc, result, _ = run_workload(bdir, args.workload, args.seed, args.seconds, args.trace)
    if result is not None:
        print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
