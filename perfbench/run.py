#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train-cc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all           # every workload
    python3 perfbench/run.py --selftest               # quick mode, all gates

Run from the repository root. The binary is built from source into
.bench_build (or $CARGO_TARGET_DIR). Each workload runs in fresh
processes: several set-up-only processes for setup_s, then one that
measures. The last stdout line is the result object; the exit code is
non-zero when any correctness gate fails or the build fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

# Every workload is measured on a one-thread pool: on a shared host
# multi-thread step times swing by up to 2x between runs (a
# descheduled worker stalls every parallel region), which no bound
# can absorb. The traced run repeats the workload at its pool width
# (one thread per replica for train-cc, the wide grid's four replicas
# for train-wide, two for serving) for the runtime.* metrics and
# runtime.pool_speedup.
POOL_THREADS = {"train-cc": 2, "train-wide": 4, "serve-open": 2}
# Set-up-only processes per run; setup_s is the median over these and
# the measuring process's own set-up.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure and build the perfbench binary; its path or None."""
    out = build_dir()
    binary = out / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return binary if binary.exists() else None


def child_env(threads):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OPTIMUS_")}
    env["OPTIMUS_THREADS"] = str(threads)
    return env


def run_child(binary, workload, args, extra, threads=1, seconds=None):
    """Run one perfbench process; its parsed last line and exit code."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds or args.seconds),
           "--serve-rate", repr(args.serve_rate),
           "--slo-ttft-ms", repr(args.slo_ttft_ms),
           "--slo-latency-ms", repr(args.slo_latency_ms)] + extra
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(threads),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} timed out")
        return None, 1
    # Forward perfbench's own diagnostics; the library's telemetry
    # alerts (e.g. PowerSGD relative-error warnings) stay quiet.
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench:"):
            log(line)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} printed no result "
            f"(exit {proc.returncode})")
        return None, proc.returncode or 1


def commit():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run_workload(binary, spec, workload, args):
    """Measure one workload; (result line dict, ok)."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        res, code = run_child(binary, workload, args, ["--setup-only"])
        if res is None or code != 0:
            return None, False
        setups.append(res["metrics"]["setup_s"]["value"])

    res, code = run_child(binary, workload, args,
                          ["--trace", "1" if args.trace else "0"])
    if res is None:
        return None, False
    measured = res["metrics"]
    if args.trace:
        width = POOL_THREADS[workload]
        # Diagnostics only (per-layer metrics carry no bound), so
        # half-length passes keep the traced run inside its budget.
        pool, pool_code = run_child(binary, workload, args, ["--trace", "1"],
                                    threads=width, seconds=args.seconds / 2)
        if pool is None:
            return None, False
        code = code or pool_code
        res["attempted"] += pool["attempted"]
        res["failed"] += pool["failed"]
        res["gate_failures"] += [f"{g} [{width} threads]"
                                 for g in pool["gate_failures"]]
        for name, m in pool["metrics"].items():
            if name.startswith("runtime."):
                measured[name] = m
        base = measured["obs.untraced_step_ms"]
        wide = pool["metrics"]["obs.untraced_step_ms"]
        measured["runtime.pool_threads"] = {
            "value": float(width), "unit": "count", "samples": 1}
        measured["runtime.pool_speedup"] = {
            "value": base["value"] / wide["value"], "unit": "ratio",
            "samples": min(base["samples"], wide["samples"])}
    if "setup_s" in measured:
        setups.append(measured["setup_s"]["value"])
        measured["setup_s"] = {"value": statistics.median(setups),
                               "unit": "s", "samples": len(setups)}

    kind = "per_layer" if args.trace else "end_to_end"
    problems = list(res["gate_failures"])
    metrics = {}
    rows = []
    for entry in spec[kind]:
        name = entry["name"]
        m = measured.get(name)
        if m is None and kind == "per_layer":
            # A layer this workload does not run spends nothing.
            m = {"value": 0.0, "unit": entry["unit"], "samples": 0}
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            problems.append(f"metric {name} missing or not finite")
            continue
        if m["unit"] != entry["unit"]:
            problems.append(f"metric {name} unit {m['unit']} != "
                            f"{entry['unit']}")
        metrics[name] = {"value": m["value"], "unit": entry["unit"]}
        rows.append((name, m["value"], entry["unit"], m["samples"]))

    # Measured but unbounded (e.g. the p99 tails): shown, not gated.
    declared = {e["name"] for k in ("end_to_end", "per_layer")
                for e in spec[k]}
    extra = [(name, m["value"], m["unit"], m["samples"])
             for name, m in measured.items() if name not in declared]

    meta = dict(res["meta"])
    meta["commit"] = commit()
    meta["setup_samples"] = len(setups)
    print(f"== {workload} ({'traced' if args.trace else 'untraced'}) ==")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name, value, unit, samples in rows:
        note = "  (not exercised)" if samples == 0 else ""
        print(f"{name:44s} {value:16.6g} {unit:8s} n={samples}{note}")
    for name, value, unit, samples in extra:
        print(f"{name:44s} {value:16.6g} {unit:8s} n={samples}  (unbounded)")
    attempted = max(1, int(res["attempted"]))
    failed = int(res["failed"]) + (len(problems) -
                                   len(res["gate_failures"]))
    print(f"{'failed_ratio':44s} {failed / attempted:16.6g} {'ratio':8s} "
          f"n={attempted}")
    for p in problems:
        print(f"GATE FAILED: {p}")
    ok = code == 0 and not problems and failed == 0
    line = {"correct": ok, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, ok


def selftest(binary, spec, args):
    """Every workload in quick mode, untraced and traced."""
    ok = True
    args.quick = True
    args.seconds = min(args.seconds, 1.0)
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            args.trace = trace
            line, good = run_workload(binary, spec, w, args)
            ok = ok and good
            print(json.dumps(line))
    print("selftest " + ("passed" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    # Defaults repeat BENCHMARK.json's command.
    parser.add_argument("--serve-rate", type=float, default=100.0)
    parser.add_argument("--slo-ttft-ms", type=float, default=100.0)
    parser.add_argument("--slo-latency-ms", type=float, default=200.0)
    args = parser.parse_args()
    args.trace = bool(args.trace)

    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as err:
        log(f"perfbench: cannot read {SPEC_PATH}: {err}")
        return 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        log(f"perfbench: unknown workload {args.workload}")
        return 2

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return 0 if selftest(binary, spec, args) else 1

    ok = True
    for w in names if args.workload == "all" else [args.workload]:
        line, good = run_workload(binary, spec, w, args)
        if line is None:
            return 1
        ok = ok and good
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
