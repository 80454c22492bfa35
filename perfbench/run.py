"""cechlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):
  paper-suite  passes of the 12-claim suite, claim order shuffled per pass
  exact-sweep  exact-tier h1 / is_coboundary / reduce on monomial-model bundles
  cli-cold     README-style commands through the CLI, nothing shared between them

Every phase runs in its own single-threaded interpreter (worker.py), driven
closed-loop: the next op starts only after the previous one returned.  Every
answer is checked outside the timed region.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups, each in a fresh interpreter), checked ops per second, p50 and p90 op
latency, peak RSS and the share of ops that passed their checks.  Throughput
and latencies are scaled to a reference machine speed that the run measures
alongside the ops (see "Machine speed" in perfbench/NOTES.md).
--trace 1 runs a fixed op list three times, once untraced and twice traced,
each in a fresh interpreter, and prints the per-layer metrics, the tracing
overhead, and the number of work counters that differed between the two traced
runs (any difference makes the run incorrect).  Spans go to .perfbench_out/.

The last stdout line is the result object; the line before it holds run
metadata.  Exit code 2 means the program's sources are missing.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 170.0  # a run ends within 180 s
SETUP_SAMPLES = 7
# op times are reported at the machine speed where worker.calibrate() takes
# this long; see "Machine speed" in NOTES.md
REFERENCE_CALIBRATION_S = 0.010
OUT_DIR = ROOT / ".perfbench_out"


class ChildFailed(Exception):
    pass


def percentile(values, q):
    """Nearest-rank percentile: no interpolation between unlike ops."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def speed(child) -> float:
    """How much faster than the reference the machine ran this child's ops:
    the reference calibration time over the median calibration sample."""
    return REFERENCE_CALIBRATION_S / statistics.median(child["calibration_s"])


def run_child(args, deadline):
    cmd = [sys.executable, str(HERE / "worker.py")] + [str(a) for a in args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise ChildFailed("time budget exhausted")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"timed out: {' '.join(cmd)}") from None
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(args, deadline, meta):
    base = ["--workload", args.workload, "--seed", args.seed]
    timed = run_child(base + ["--mode", "timed", "--seconds", args.seconds], deadline)
    setups = [timed["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(base + ["--mode", "setup"], deadline)["setup_s"])
    lat = timed["latencies"]
    attempted, failed = timed["attempted"], timed["failed"]
    # throughput: the median over rounds of checked ops per op-second, so a
    # burst of load from outside the process moves it less than a total would
    raw = {
        "ops_per_s": statistics.median(ok / secs for ok, secs in timed["rounds"]),
        "op_p50_ms": percentile(lat, 0.5) * 1e3,
        "op_p90_ms": percentile(lat, 0.9) * 1e3,
    }
    s = speed(timed)
    meta.update(
        python=timed["python"],
        run={"rounds": len(timed["rounds"]), "ops": attempted, "timed_s": timed["timed_s"]},
        setup_samples_s=setups,
        failed_frac=failed / attempted,
        machine_speed=s,
        calibration_samples=len(timed["calibration_s"]),
        unscaled=raw,
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (raw["ops_per_s"] / s, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * s, "ms"),
        "op_p90_ms": (raw["op_p90_ms"] * s, "ms"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    return attempted, failed, failed == 0, metrics


def per_layer(args, deadline, meta):
    rounds = workloads.TRACE_ROUNDS[args.workload]
    base = ["--workload", args.workload, "--seed", args.seed, "--mode", "fixed", "--rounds", rounds]
    OUT_DIR.mkdir(exist_ok=True)
    untraced = run_child(base, deadline)
    traced = []
    for tag in ("a", "b"):
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{tag}.jsonl"
        traced.append(run_child(base + ["--trace", spans], deadline))
    names = tracing.metric_names(workloads.CLAIM_IDS, workloads.CLI_COMMANDS)
    a, b = (t["layers"] for t in traced)
    mismatched = [n for n, _, det in names if det and a[n] != b[n]]
    for n in mismatched:
        print(f"counter {n} differs between traced runs: {a[n]} != {b[n]}", file=sys.stderr)
    metrics = {}
    for n, unit, det in names:
        metrics[n] = (a[n] if det else (a[n] + b[n]) / 2, unit)
    traced_s = statistics.mean(t["timed_s"] for t in traced)
    metrics["trace.overhead_ratio"] = (untraced["timed_s"] / traced_s, "ratio")
    metrics["trace.counter_mismatches"] = (len(mismatched), "count")
    attempted = traced[0]["attempted"]
    failed = max(r["failed"] for r in [untraced] + traced)
    meta.update(
        python=untraced["python"],
        run={"rounds": len(untraced["rounds"]), "ops": attempted, "untraced_s": untraced["timed_s"],
             "traced_s": [t["timed_s"] for t in traced]},
        spans_dir=str(OUT_DIR.relative_to(ROOT)),
        missing_layers=traced[0]["missing_layers"],
    )
    return attempted, failed, failed == 0 and not mismatched, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "cechlab" / "__init__.py").is_file():
        print(f"error: cechlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cech_max_cells": os.environ.get("CECH_MAX_CELLS", "unset (program default)"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    try:
        if args.trace:
            attempted, failed, correct, metrics = per_layer(args, deadline, meta)
        else:
            attempted, failed, correct, metrics = end_to_end(args, deadline, meta)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
