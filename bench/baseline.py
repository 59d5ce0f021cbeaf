"""Run the benchmark over several seeds and record the figures.

    python3 bench/baseline.py --seeds 0-10 --sets 2

Run from the repository root.  For each set, every seed and every workload
gets one untraced run (bench/run.py for BENCHMARK.json's run_seconds, each
in its own process, one at a time); then each workload gets one traced run
on the first seed.  The result goes to bench/baseline.json: per workload
and end-to-end metric, the median, quartiles, p90 and spread (interquartile
range over median) of each set, also of the unscaled times, the shift of
each set's median from the first set's, the quality figures and artifact
digests per seed (which bench/run.py then checks every run against), and
the traced per-layer table.  The exit code is 1 when a run failed, a spread
or a shift exceeds the metric's bound, or two runs of one seed disagree on
quality or artifacts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

# Which end-to-end metric each group of per-layer metrics should move, and
# where it should not: the prediction a change to that layer is held to.
LAYER_PREDICTIONS = {
    "optimizer.*": "run_s on bimodal-twotower (about 95% of it) and longtail-isogclr (about 1/3); "
                   "no change on oracle-crosscheck",
    "encoder.*": "run_s on both training workloads (encode_backward re-runs the forward pass)",
    "loss.hardness_rows.*": "run_s on both training workloads",
    "loss.eval.*": "run_s and peak_rss_mb on longtail-isogclr; no change on bimodal-twotower",
    "loss.dual_anchor.calls": "run_s on oracle-crosscheck only",
    "numerics.stream.*": "run_s on both training workloads",
    "oracle.*": "run_s on oracle-crosscheck only",
    "harness.knn.ms, harness.artifacts.ms": "the tail of run_s on the training workloads",
    "harness.verify.s": "run_s on oracle-crosscheck",
    "harness.eval_share": "share of trace.run_s spent in loss.eval; base is trace.run_s",
    "datasynth.gen.ms": "setup_s (set-up builds the inputs) and run_s slightly (each run regenerates them)",
    "trace.*": "tracing overhead: trace.run_s minus trace.untraced_run_s, same process",
}


UNSCALED = ("run_s", "setup_s")  # metrics that run.py scales by the reference kernel's time


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run_one(workload, seed, seconds, trace):
    """Run bench/run.py once; its result line and its record."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("bench run failed (%s):\n%s" % (" ".join(cmd), proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(run.ROOT, run.OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as fh:
        record = json.load(fh)
    print("  %-18s seed %-3d trace %d: %s" % (
        workload, seed, trace,
        ", ".join("%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items() if trace == 0)
        or "%d operations" % record["operations"]), flush=True)
    return result, record


def _stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "values": values,
        "median": q2,
        "q1": q1,
        "q3": q3,
        "p90": statistics.quantiles(values, n=10)[-1],
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / q2,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True)
    ap.add_argument("--sets", type=int, required=True)
    args = ap.parse_args(argv)
    spec = run._load_spec()
    seconds = spec["run_seconds"]
    workloads = list(run.WORKLOADS)

    runs = {w: [] for w in workloads}  # (set, seed, result, record)
    for s in range(args.sets):
        print("set %d" % (s + 1), flush=True)
        for seed in args.seeds:
            for w in workloads:
                runs[w].append((s, seed) + _run_one(w, seed, seconds, 0))
    print("traced", flush=True)
    traced = {w: _run_one(w, args.seeds[0], seconds, 1) for w in workloads}

    problems = []
    summary = {}
    for w in workloads:
        entry = {"end_to_end": {}, "quality_by_seed": {}, "digests_by_seed": {}}
        for m in spec["end_to_end"]:
            per_set = [_stats([r[2]["metrics"][m["name"]]["value"] for r in runs[w] if r[0] == s])
                       for s in range(args.sets)]
            base = per_set[0]["median"]
            for st in per_set:
                st["shift_from_first_set"] = (st["median"] - base) / base
                worse = st["shift_from_first_set"] if m["better"] == "lower" else -st["shift_from_first_set"]
                if worse > m["bound"]:
                    problems.append("%s %s: set median worse by %.3f > bound %g" % (w, m["name"], worse, m["bound"]))
                if st["spread"] > m["bound"]:
                    problems.append("%s %s: spread %.3f > bound %g" % (w, m["name"], st["spread"], m["bound"]))
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], "sets": per_set}
            if m["name"] in UNSCALED:
                # the same runs before scaling by the reference kernel, to show what scaling does
                entry["end_to_end"][m["name"]]["unscaled_sets"] = [
                    _stats([r[3]["unscaled"][m["name"]] for r in runs[w] if r[0] == s])
                    for s in range(args.sets)]
        entry["reference_kernel_s"] = [_stats([statistics.median(r[3]["reference_s"]) for r in runs[w] if r[0] == s])
                                       for s in range(args.sets)]
        attempted = sum(r[2]["attempted"] for r in runs[w])
        failed = sum(r[2]["failed"] for r in runs[w])
        entry["error_rate"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
        entry["known_defect_hits"] = sum(r[3]["known_defect_hits"] for r in runs[w])
        if failed:
            problems.append("%s: %d of %d operations failed" % (w, failed, attempted))
        for s, seed, _, record in runs[w]:
            for key, value in (("quality_by_seed", record["quality"]), ("digests_by_seed", record["digests"])):
                first = entry[key].setdefault(str(seed), value)
                if first != value:
                    problems.append("%s seed %d: %s differ between runs" % (w, seed, key))
        _, record = traced[w]
        entry["per_layer"] = {"seed": args.seeds[0], "operations": record["operations"],
                              "metrics": record["metrics"]}
        if record["digests"] != entry["digests_by_seed"][str(args.seeds[0])]:
            problems.append("%s: traced run's artifacts differ from the untraced run's" % w)
        summary[w] = dict(
            {k: run.WORKLOADS[w][k] for k in ("why", "exercises", "bypasses", "config")}, **entry)

    first_record = runs[workloads[0]][0][3]
    out = {
        "environment": first_record["environment"],
        "method": first_record["method"],
        "run_seconds": seconds,
        "seeds": args.seeds,
        "sets": args.sets,
        "workloads": summary,
        "layer_predictions": LAYER_PREDICTIONS,
        "known_defects": run.KNOWN_DEFECTS,
        "problems": problems,
    }
    with open(run.BASELINE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")

    print()
    for w in workloads:
        for name, e in summary[w]["end_to_end"].items():
            print("%-18s %-12s " % (w, name) + "  ".join(
                "median %.5g spread %.3f (bound %g) shift %+.3f" % (
                    st["median"], st["spread"], e["bound"], st["shift_from_first_set"])
                for st in e["sets"]))
            if "unscaled_sets" in e:
                print("%-18s %-12s " % (w, "  unscaled") + "  ".join(
                    "median %.5g spread %.3f" % (st["median"], st["spread"]) for st in e["unscaled_sets"]))
    for line in problems:
        print("PROBLEM " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
