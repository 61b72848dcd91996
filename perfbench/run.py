#!/usr/bin/env python3
"""End-to-end benchmark of the QRN toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root. Builds the toolkit and the perfbench binary
from source in Release mode (into $CARGO_TARGET_DIR, default .bench_build),
then runs one workload in a fresh perfbench process. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run first repeats the workload untraced in its own
process, so that obs.trace_overhead_share compares the two, and writes the
spans as Chrome trace-event JSON under <build dir>/traces/.

--workload all runs every workload in turn and ends with one JSON line whose
metric names are prefixed by the workload.

Exit code 0 only when the build succeeded and every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["evidence_compute", "store_churn", "distributed_churn", "serve_ingest"]
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def log(text):
    print(text, file=sys.stderr, flush=True)


def build(out):
    """Configures (once), builds and self-tests perfbench; True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no toolkit sources next to perfbench/ (src/CMakeLists.txt)")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench", "perfbench_tests"])
    # The benchmark's own tests (percentile rule, span self-time) run
    # before every measurement.
    steps.append([str(out / "perfbench_tests")])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: step failed: {' '.join(step)}")
            return False
    return True


def source_digest():
    """SHA-256 over the toolkit and benchmark sources: identifies the code
    measured when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_describe():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def run_perfbench(out, workload, seed, seconds, trace, provenance):
    """Runs one perfbench process; returns (exit code, stdout lines, report)."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = out / "work" / f"{tag}-{os.getpid()}"
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report = reports / f"{tag}.json"
    command = [str(out / "perfbench"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work),
               "--report", str(report), "--git-describe", provenance["git_describe"],
               "--source-digest", provenance["source_digest"]]
    if trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if report.exists():
        report.unlink()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
        code, lines = done.returncode, done.stdout.splitlines()
    except subprocess.TimeoutExpired as expired:
        stdout = expired.stdout or ""
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
        code, lines = 1, stdout.splitlines() + [f"perfbench: {tag} timed out"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    data = json.loads(report.read_text()) if code in (0, 1) and report.is_file() else None
    return code, lines, data


def run_workload(out, workload, seed, seconds, trace, provenance):
    """Returns (exit code, human-readable lines, result object or None)."""
    if not trace:
        code, lines, data = run_perfbench(out, workload, seed, seconds, 0, provenance)
        return code, lines[:-1] if data else lines, data["result"] if data else None
    # Traced: an untraced run first, in its own process, as the overhead base.
    base_code, base_lines, base = run_perfbench(out, workload, seed, seconds, 0, provenance)
    code, lines, traced = run_perfbench(out, workload, seed, seconds, 1, provenance)
    if base is None or traced is None:
        return (base_code or code or 1), base_lines + lines, None
    result = traced["result"]
    untraced_rate = base["end_to_end"]["fleet_hours_per_s"]
    traced_rate = traced["end_to_end"]["fleet_hours_per_s"]
    result["metrics"]["obs.trace_overhead_share"] = {
        "value": untraced_rate / traced_rate - 1.0 if traced_rate > 0 else 0.0,
        "unit": "share"}
    result["correct"] = result["correct"] and base["result"]["correct"]
    result["attempted"] += base["result"]["attempted"]
    result["failed"] += base["result"]["failed"]
    shares = traced.get("per_layer", {})
    lines = lines[:-1] + [
        f"obs.trace_overhead_share {result['metrics']['obs.trace_overhead_share']['value']:.4f} "
        f"(untraced {untraced_rate:.6g} vs traced {traced_rate:.6g} fleet h/s)",
        "span self time by layer: " + ", ".join(
            f"{name.split('.')[0]} {value:.4f} s" for name, value in sorted(shares.items())
            if name.endswith(".span_self_s"))]
    return max(code, base_code), lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")

    out = build_dir()
    if not build(out):
        return 2
    provenance = {"git_describe": git_describe(), "source_digest": source_digest()}

    names = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    result = None
    for name in names:
        code, lines, result = run_workload(out, name, args.seed, args.seconds, args.trace,
                                           provenance)
        worst = max(worst, code)
        if len(names) > 1:
            print(f"== {name}")
        print("\n".join(lines), flush=True)
        if result is None:
            log(f"perfbench: {name} produced no result (exit {code})")
            return code or 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        if not result["correct"]:
            worst = max(worst, 1)
    print(json.dumps(result if len(names) == 1 else combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
