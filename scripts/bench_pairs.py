"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload symbolic --seed 12345 --pairs 10 [--trace 0] \
        [--out BENCH_N.json]

Each pair runs `python3 perfbench/run.py` for 36 s once in the parent
checkout and once in the change checkout, one after the other, each from its own copy of
src/ and perfbench/; the parent runs first in odd pairs and second in even
ones.  The result line (the last line of standard output) and the report
line of every run are kept.

The runs go into the JSON file --out (default BENCH.json) as one entry of
its "runs" list, which replaces an entry of the same workload, seed and
trace; the other entries stay.  A new file also gets the "command" and
"machine" fields; its "what" text is written by hand.  With --trace 0 the entry's summary gives,
per end-to-end metric, each side's median and quartiles (inclusive method),
the change's median over the parent's and the number of pairs in which the
change read better (ties count for neither, and the better direction is
the one BENCHMARK.json names), and the failed and attempted op totals.
With --trace 1 it gives each side's median op count and, for each of
TRACED_PER_OP, the median of its value per op.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

SECONDS = 36
TRACED_PER_OP = ("projective.liouville_search.s", "expr.compile.calls",
                 "expr.compile.s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def run_once(checkout, args):
    """{"result": last stdout line as JSON, "report": the report line}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(SECONDS),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * SECONDS + 600)
    if proc.returncode != 0:
        raise SystemExit("benchmark failed in %s:\n%s"
                         % (checkout, proc.stderr[-2000:]))
    lines = proc.stdout.splitlines()
    report = [line for line in lines if line.startswith("report ")]
    return {"result": json.loads(lines[-1]),
            "report": report[-1] if report else None}


def quartiles(values):
    if len(values) == 1:
        return [round(values[0], 6)] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q3, 6)]


def summary_untraced(pairs, better):
    out = {}
    for name in pairs[0]["parent"]["result"]["metrics"]:
        a = [p["parent"]["result"]["metrics"][name]["value"] for p in pairs]
        b = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        wins = sum(sign * (y - x) > 0.0 for x, y in zip(a, b))
        pm, cm = statistics.median(a), statistics.median(b)
        out[name] = {
            "parent_median": round(pm, 6), "change_median": round(cm, 6),
            "change_over_parent": round(cm / pm, 4) if pm else None,
            "change_better_in": "%d/%d" % (wins, len(pairs)),
            "parent_quartiles": quartiles(a),
            "change_quartiles": quartiles(b)}
    for key, field in (("failed_ops", "failed"),
                       ("attempted_ops", "attempted")):
        out[key] = {side: sum(p[side]["result"][field] for p in pairs)
                    for side in ("parent", "change")}
    return out


def summary_traced(pairs):
    out = {}
    for side in ("parent", "change"):
        results = [p[side]["result"] for p in pairs]
        side_out = {"ops": statistics.median(r["attempted"]
                                             for r in results)}
        for name in TRACED_PER_OP:
            side_out[name + "_per_op"] = round(statistics.median(
                r["metrics"][name]["value"] / r["attempted"]
                for r in results), 6)
        out[side] = side_out
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"]
                  for m in json.load(fh)["end_to_end"]}
    pairs = []
    for n in range(1, args.pairs + 1):
        order = ("parent", "change") if n % 2 else ("change", "parent")
        pair = {"pair": n, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args)
        pairs.append(pair)
        sys.stderr.write("pair %d/%d done\n" % (n, args.pairs))

    if args.trace:
        summary = summary_traced(pairs)
    else:
        summary = summary_untraced(pairs, better)
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    else:
        doc = {"command": "python3 perfbench/run.py --workload <workload> "
                          "--seed <seed> --seconds %d --trace <trace>"
                          % SECONDS,
               "machine": "%d-core %s, Python %s, numpy %s" % (
                   os.cpu_count(), platform.system(),
                   platform.python_version(), numpy.__version__),
               "runs": []}
    entry = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "summary": summary, "pairs": pairs}
    doc["runs"] = [r for r in doc["runs"]
                   if (r["workload"], r["seed"], r["trace"])
                   != (args.workload, args.seed, args.trace)] + [entry]
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
