#!/usr/bin/env python3
"""geoproj benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload equivalence --seed 12345 \
        --seconds 36 --trace 0

Runs the workload's ops back to back for --seconds seconds in one process
and one thread, checks every op against its expected answer, and prints
each end-to-end metric (--trace 0) or each per-layer metric (--trace 1).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs the three
workloads one after another, each in its own process.  See
perfbench/README.md.
"""

import time

_T0 = time.perf_counter()   # process start, as near as a script can see it

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("equivalence", "orbits", "symbolic")
SETUP_PROBES = 4            # extra set-up timings, each in a fresh process
P90_MIN_OPS = 100           # ten samples must lie beyond the 90th percentile
RERUN_MIN_OPS = 16          # ops repeated by the determinism check
CALIBRATION_EVERY_S = 0.25  # machine-speed samples between ops
CALIBRATION_CALLS = 3       # kernel calls per sample
CALIBRATION_REF_S = 0.0022  # kernel time that defines the reference speed

# End-to-end metrics on the result line with --trace 0: those that are never
# 0 and whose spread across seeds fits a bound (README.md, "Metrics").
# The others are printed in the table and the report line.
RESULT_METRICS = ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used internally)")
    args = ap.parse_args(argv)
    if not args.seconds > 0.0:
        ap.error("--seconds must be positive")
    return args


def import_geoproj():
    """Import geoproj from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "geoproj", "__init__.py")):
        sys.stderr.write("perfbench: no geoproj sources under %s\n" % SRC)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import geoproj
    if os.path.dirname(os.path.dirname(os.path.abspath(geoproj.__file__))) \
            != SRC:
        sys.stderr.write("perfbench: imported geoproj from %s, not %s\n"
                         % (geoproj.__file__, SRC))
        raise SystemExit(2)


def calibration_kernel():
    """A fixed slice of interpreter and small-array work, like a DP5 stage.

    It never touches geoproj, so its duration measures only the speed of the
    machine at that moment.
    """
    import numpy as np
    k = np.zeros((7, 4))
    a = np.array([0.2, 0.3, 0.5])
    y = np.ones(4)
    s = 0.0
    for i in range(200):
        x = math.sin(i * 0.01) + s * 1e-12
        k[i % 7] = (x, x * x, x + 1.0, x - 1.0)
        y = y + 0.01 * (a @ k[:3])
        s += math.sqrt(float(np.mean(y * y))) + x
    return s


def calibrate():
    """One machine-speed sample: mean time per call of the kernel."""
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_CALLS):
        calibration_kernel()
    return (time.perf_counter() - t0) / CALIBRATION_CALLS


def run_ops(kinds, seed, count=None, deadline=None, recorder=None,
            calibration=None):
    """Closed loop over op ids 0, 1, ... until count ops or the deadline.

    Returns (records, elapsed seconds), one record per op:
    (op id, kind name, Outcome, latency seconds, raised).  When calibration
    is a list, a calibration sample is taken between ops at most every
    CALIBRATION_EVERY_S seconds, and once after the loop if none was.
    """
    import workloads
    records = []
    i = 0
    t_start = time.perf_counter()
    t_cal = t_start
    while True:
        if count is not None and i >= count:
            break
        if count is None and time.perf_counter() >= deadline:
            break
        kind = kinds[(i + seed) % len(kinds)]
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        raised = False
        try:
            out = kind.run(workloads.op_seed(seed, i))
        except Exception as err:   # a raising op is a failed op, not a crash
            out = workloads.Outcome(False, None, "raised %s: %s"
                                    % (type(err).__name__, err))
            raised = True
        t1 = time.perf_counter()
        records.append((i, kind.name, out, t1 - t0, raised))
        i += 1
        if calibration is not None and t1 - t_cal >= CALIBRATION_EVERY_S:
            calibration.append(calibrate())
            t_cal = time.perf_counter()
    elapsed = time.perf_counter() - t_start
    if calibration is not None and not calibration:
        calibration.append(calibrate())   # a loop shorter than one interval
    return records, elapsed


def judge(records):
    """attempted, failed ops, known-defect ops, err_to_tol samples.

    failed holds the ops that raised and the wrong answers of every kind
    but the documented defect; correct is "no op failed".  known holds the
    ops that gave the documented wrong answer (workloads.Outcome.
    known_defect).  They are still wrong answers: fail_frac counts them,
    and the output lists them, but they do not fail the run.
    """
    failed, known, errs = [], [], []
    for i, name, out, _, raised in records:
        if out.ok:
            if out.err_to_tol is not None:
                errs.append(out.err_to_tol)
            continue
        line = "%d %s: %s" % (i, name, out.answer)
        if out.known_defect and not raised:
            known.append(line)
        else:
            failed.append(line)
    return len(records), failed, known, errs


def balanced(records):
    """Throughput and latency quantiles with every op kind weighted equally.

    Op kinds differ in cost by an order of magnitude, so a plain count over
    a fixed window depends on where the window happens to end in the cycle.
    Weighting each op by 1 / (ops of its kind in the run) measures the
    workload's own mix whatever the window.  Returns (ops per second,
    quantile function q -> latency).
    """
    by_kind = {}
    for _, name, _, lat, _ in records:
        by_kind.setdefault(name, []).append(lat)
    ops_per_s = len(by_kind) / sum(statistics.fmean(v)
                                   for v in by_kind.values())
    weighted = sorted((lat, 1.0 / len(v)) for v in by_kind.values()
                      for lat in v)
    # Each op stands at the middle of its share of the total weight, and
    # the quantile interpolates between neighbours.  Without interpolation
    # the median of an even number of kinds jumps between two kinds.
    lats, mids, acc = [], [], 0.0
    for lat, w in weighted:
        lats.append(lat)
        mids.append((acc + 0.5 * w) / len(by_kind))
        acc += w

    def quantile(q):
        j = bisect.bisect_left(mids, q)
        if j == 0:
            return lats[0]
        if j == len(mids):
            return lats[-1]
        f = (q - mids[j - 1]) / (mids[j] - mids[j - 1])
        return lats[j - 1] + f * (lats[j] - lats[j - 1])

    return ops_per_s, quantile


def setup_probe_times(args):
    """Set-up time of SETUP_PROBES fresh processes, run one after another."""
    out = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr[-500:])
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def environment(args):
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def emit(args, correct, attempted, failed, known, metrics, extra):
    """Print the table, the report line and the result line (last)."""
    print("geoproj benchmark  workload=%s seed=%d trace=%d"
          % (args.workload, args.seed, args.trace))
    for name, (value, unit, samples) in metrics.items():
        shown = "n/a" if value is None else "%.6g" % value
        print("  %-34s %14s %-6s n=%s" % (name, shown, unit, samples))
    print("  attempted %d, failed %d, known defect %d, correct %s"
          % (attempted, len(failed), len(known), correct))
    for line in failed:
        print("  failed op %s" % line)
    for line in known:
        print("  known defect op %s" % line)
    report = {"env": environment(args),
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "failed_ops": failed, "known_defect_ops": known}
    report.update(extra)
    print("report " + json.dumps(report, sort_keys=True))
    shown = RESULT_METRICS if args.trace == 0 else tuple(metrics)
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in shown}}))


def main_untraced(args, kinds, setup_s):
    calibration = []
    records, _ = run_ops(kinds, args.seed,
                         deadline=time.perf_counter() + args.seconds,
                         calibration=calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + setup_probe_times(args)
    attempted, failed, known, errs = judge(records)
    ops_per_s, quantile = balanced(records)
    # The machine's speed drifts by up to 1.5x over minutes; scaling by the
    # kernel's mean time in this run reports rates and latencies at the
    # reference speed.
    slowdown = statistics.fmean(calibration) / CALIBRATION_REF_S
    p90 = quantile(0.9) / slowdown if attempted >= P90_MIN_OPS else None
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (ops_per_s * slowdown, "ops/s", attempted),
        "op_p50_s": (quantile(0.5) / slowdown, "s", attempted),
        "op_p90_s": (p90, "s", attempted),
        "ops_per_s_wall": (ops_per_s, "ops/s", attempted),
        "op_p50_s_wall": (quantile(0.5), "s", attempted),
        "machine_slowdown": (slowdown, "ratio", len(calibration)),
        "fail_frac": ((len(failed) + len(known)) / attempted, "ratio",
                      attempted),
        "err_to_tol_max": (max(errs) if errs else 0.0, "ratio", len(errs)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    by_kind = {}
    for _, name, _, lat, _ in records:
        by_kind.setdefault(name, []).append(lat)
    emit(args, not failed, attempted, failed, known, metrics,
         {"setup_samples": setups,
          "kind_mean_s": {k: [len(v), statistics.fmean(v)]
                          for k, v in by_kind.items()}})


def main_traced(args, kinds, recorder):
    import spans
    # untraced half: the base of trace.overhead_frac
    untraced, t_plain = run_ops(
        kinds, args.seed, deadline=time.perf_counter() + args.seconds / 2)
    n = len(untraced)
    recorder.install()
    try:
        traced, t_traced = run_ops(kinds, args.seed, count=n,
                                   recorder=recorder)
    finally:
        recorder.uninstall()

    # determinism: repeat the first ops under a second recorder
    m = min(n, max(len(kinds), RERUN_MIN_OPS))
    again = spans.Recorder()
    again.install()
    try:
        repeat, _ = run_ops(kinds, args.seed, count=m, recorder=again)
    finally:
        again.uninstall()

    problems = []
    first = recorder.op_fingerprint(range(m))
    second = again.op_fingerprint(range(m))
    for i in range(m):
        if first[i] != second[i]:
            problems.append("op %d counts differ: %r vs %r"
                            % (i, first[i], second[i]))
        if traced[i][2].answer != repeat[i][2].answer:
            problems.append("op %d answer differs between traced runs" % i)
    for i in range(n):
        if traced[i][2].answer != untraced[i][2].answer:
            problems.append("op %d answer differs traced vs untraced" % i)
    for i, rec in recorder.op_fingerprint(range(n)).items():
        bound = (2 * sum(rec["traces"].values())
                 + 6 * sum(rec["steps"].values()))
        if rec["rhs"] > bound:
            problems.append("op %d: %d RHS evaluations exceed 2*traces + "
                            "6*steps = %d" % (i, rec["rhs"], bound))

    attempted, failed, known, _ = judge(traced)
    metrics = spans.layer_metrics(recorder)
    metrics["trace.overhead_frac"] = (1.0 - t_plain / t_traced, "ratio", n)
    emit(args, not failed and not problems, attempted, failed, known,
         metrics, {"determinism_problems": problems,
          "rerun_ops": m})


def main_all(args):
    """Each workload in its own process; the result line sums them up."""
    results = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results.append((workload, json.loads(proc.stdout.splitlines()[-1])))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {"%s.%s" % (w, k): v for w, r in results
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return main_all(args)
    import_geoproj()
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
        recorder.op = "setup"
        recorder.install()
    try:
        import workloads
        kinds = workloads.SETUP[args.workload]()
    finally:
        if recorder is not None:
            recorder.uninstall()
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
    elif args.trace:
        main_traced(args, kinds, recorder)
    else:
        main_untraced(args, kinds, setup_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
