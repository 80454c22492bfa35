"""One benchmark process: set up a workload, run it, check every answer.

``run.py`` starts this script once per phase, each in its own interpreter, so
that no run inherits another's caches.  The last line on stdout is a JSON
object with the phase's measurements.

Modes:
  setup  set up and stop (a set-up time sample)
  timed  run whole rounds until the timed op time reaches --seconds
  fixed  run the first --rounds rounds; with --trace, record layer spans
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before cechlab loads

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# a run stops starting rounds after this much wall time, whatever --seconds is
WALL_LIMIT_S = 120.0
# wall time between two calibration samples while ops run
CALIBRATE_EVERY_S = 0.5


def calibrate() -> float:
    """Seconds taken by a fixed exact-arithmetic job that shares no code with
    cechlab: sparse rational row reduction over dict rows, the kind of work
    cechlab spends its time on.  Samples taken through a run measure how fast
    the machine ran it; see NOTES.md."""
    t = time.perf_counter()
    rows = {}
    for i in range(20):
        vec = {(i * 5 + j * 3) % 23: Fraction(j - 3, 1 + (i * j) % 5) for j in range(8)}
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            piv = min(vec)
            row = rows.get(piv)
            if row is None:
                rows[piv] = vec
                break
            f = vec[piv] / row[piv]
            for k, v in row.items():
                vec[k] = vec.get(k, 0) - f * v
            vec = {k: v for k, v in vec.items() if v}
    return time.perf_counter() - t


class Calibrator:
    """Samples ``calibrate()`` every CALIBRATE_EVERY_S of wall time while ops
    run, from a timer signal, so that long ops are covered as well as short
    ones.  ``spent`` totals the time the samples took; callers subtract it
    from the op timings."""

    def __init__(self):
        self.samples = [calibrate()]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(wl, rounds, seconds, tracer=None, calibrator=None):
    """Run rounds closed-loop, one op after the previous one returns.

    Returns (latencies by op, ok flags, [(ok ops, op seconds)] by round).
    Each op is timed on its own; the checks after each round and the
    calibrator's samples are not timed.
    """
    latencies, flags, per_round = [], [], []
    timed = 0.0
    start = time.perf_counter()
    index = 0
    while True:
        if rounds is not None and index >= rounds:
            break
        if rounds is None and (timed >= seconds or time.perf_counter() - start > WALL_LIMIT_S):
            break
        ops = wl.round(index)
        answers = []
        round_s = 0.0
        if calibrator is not None:
            calibrator.start()
        for op in ops:
            op_id = len(latencies)
            spent = calibrator.spent if calibrator is not None else 0.0
            t = time.perf_counter()
            try:
                if tracer is None:
                    ans = wl.run(op)
                else:
                    ans = tracer.run_op(op_id, f"op.{wl.op_name(op)}", wl.run, op)
            except Exception as exc:  # a raising op is a failed op
                ans = exc
            dt = time.perf_counter() - t
            if calibrator is not None:
                dt -= calibrator.spent - spent
            latencies.append(dt)
            answers.append(ans)
            round_s += dt
        if calibrator is not None:
            calibrator.stop()
        timed += round_s
        if tracer is not None:
            tracer.active = False
        ok = wl.check_round(ops, answers)
        if tracer is not None:
            tracer.active = True
        flags += ok
        per_round.append((ok.count(True), round_s))
        index += 1
    return latencies, flags, per_round


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "timed", "fixed"])
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = time.perf_counter() - _T0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        out["missing_layers"] = tracing.instrument(
            tracer, workloads.CLAIM_IDS, workloads.CLI_COMMANDS
        )
        tracer.active = True
    # only timed runs calibrate: in a traced run the samples would land inside spans
    calibrator = Calibrator() if args.mode == "timed" else None
    rounds = None if args.mode == "timed" else args.rounds
    latencies, flags, per_round = run_rounds(wl, rounds, args.seconds, tracer, calibrator)
    rss = peak_rss_mb()
    out.update(
        latencies=latencies,
        attempted=len(flags),
        failed=flags.count(False),
        timed_s=sum(secs for _, secs in per_round),
        rounds=per_round,
        calibration_s=calibrator.samples if calibrator is not None else [],
        peak_rss_mb=rss,
        python=sys.version.split()[0],
    )
    if tracer is not None:
        tracer.active = False
        tracer.write(args.trace)
        out["layers"] = tracing.layer_values(tracer, workloads.CLAIM_IDS, workloads.CLI_COMMANDS)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
