#!/usr/bin/env python3
"""Build and run the end-to-end scenario benchmark.

One workload, as the benchmark contract runs it (the last stdout line is
the JSON result):

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with a summary table of the
end-to-end metrics (unit and sample count) and the output checks:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

The benchmark is built from source with cargo into `CARGO_TARGET_DIR`
(default `.bench_build` at the repository root). Each run writes a
result file under `.bench_results/` recording the machine, the source
revision and the seed; traced runs also write their spans next to it.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["paper_tables", "big_graph", "serve_mix"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Source trees whose contents define what was measured.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_results", ".git", "__pycache__"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the benchmark binary; returns its path or None on failure."""
    if not (ROOT / "crates" / "sim" / "Cargo.toml").is_file():
        log("run.py: the repository sources are missing; nothing to build")
        return None
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: build failed: {e}")
        return None
    binary = target_dir() / "release" / "od-perfbench"
    if done.returncode != 0 or not binary.is_file():
        log(f"run.py: build failed with exit code {done.returncode}")
        return None
    return binary


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """The checked-out commit, when the tree is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the source files, for trees that are not git
    checkouts: equal digests mean the same code was measured."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*")
            if p.is_file() and not SKIP_DIRS.intersection(p.relative_to(ROOT).parts))
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result file)."""
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload}-seed{seed}-trace{trace}.json"
    if out.exists():
        out.unlink()
    # The program takes unsigned 64-bit seeds.
    cmd = [str(binary), "--workload", workload, "--seed", str(seed % (1 << 64)),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = done.stdout.splitlines()
    if not out.is_file():
        return done.returncode or 1, lines, None
    detail = json.loads(out.read_text())
    detail["machine"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }
    detail["revision"] = {"git_commit": git_commit(), "source_sha256": source_digest()}
    detail["seeds"] = {"workload_seed": seed}
    out.write_text(json.dumps(detail, indent=1) + "\n")
    return done.returncode, lines, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")

    binary = build()
    if binary is None:
        return 1
    if not args.all:
        code, lines, detail = run_once(binary, args.workload, args.seed,
                                       args.seconds, args.trace)
        if detail is None or not lines or not lines[-1].startswith("{"):
            for line in lines:
                log(line)
            return code or 1
        for line in lines:
            print(line)
        return code

    worst = 0
    table = []
    for trace in (0, 1):
        for workload in WORKLOADS:
            code, lines, detail = run_once(binary, workload, args.seed, args.seconds, trace)
            for line in lines[:-1]:
                log(line)
            worst = max(worst, code)
            if detail is None:
                table.append((workload, trace, "run failed", "", "", ""))
                continue
            for name, m in detail["metrics"].items():
                table.append((workload, trace, name, m["value"], m["unit"], m["samples"]))
            attempted = max(detail["attempted"], 1)
            table.append((workload, trace, "failed_frac", detail["failed"] / attempted,
                          "ratio", detail["attempted"]))
    print(f"{'workload':<13} {'run':<8} {'metric':<26} {'value':>18} {'unit':<6} samples")
    for workload, trace, name, value, unit, samples in table:
        value = f"{value:18.6f}" if isinstance(value, float) else f"{value:>18}"
        print(f"{workload:<13} {'traced' if trace else 'e2e':<8} {name:<26} {value} "
              f"{unit:<6} {samples}")
    print("checks:", "all passed" if worst == 0 else "FAILED")
    return worst


if __name__ == "__main__":
    sys.exit(main())
