#!/usr/bin/env python3
"""Build and run the fmm-io benchmark (see perfbench/README.md).

One workload, as BENCHMARK.json's command runs it (the last stdout line
is the JSON result):

    python3 perfbench/run.py --workload spill --seed 1 --seconds 20 --trace 0

Every workload once, end-to-end metrics printed by name and unit:

    python3 perfbench/run.py --all

Steadiness report: each workload N times with seeds 1..N, each metric's
median, quartiles and spread (q3 - q1) / median, flagged when the spread
exceeds the metric's bound; optionally saved, or compared against a
saved report:

    python3 perfbench/run.py --steady 10 [--workloads stream,spill]
        [--trace 1] [--save FILE] [--baseline FILE]

Rewrite BENCHMARK.json from the benchmark's manifest:

    python3 perfbench/run.py --write-manifest

Run from the root of a source checkout; the executable is built there
with dune, and nothing is read or written outside it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["stream", "spill", "recompute", "kernel"]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("perfbench: %s is not a source checkout "
                 "(dune-project and lib/ are missing)" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT,
                        "./perfbench/perfbench.exe"],
                       cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run_one(workload, seed, seconds, trace, capture):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("perfbench: %s exited with %d" % (" ".join(cmd), r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def manifest():
    return json.loads(subprocess.run([EXE, "--manifest"], cwd=ROOT, check=True,
                                     stdout=subprocess.PIPE, text=True).stdout)


def steady(args):
    man = manifest()
    bounds = {m["name"]: m["bound"] for m in man["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seconds = args.seconds if args.seconds is not None else man["run_seconds"]
    report, flagged = {}, []
    for w in workloads:
        runs = []
        for seed in range(1, args.steady + 1):
            res = run_one(w, seed, seconds, args.trace, capture=True)
            if not res["correct"]:
                flagged.append("%s seed %d: incorrect (%d of %d checks failed)"
                               % (w, seed, res["failed"], res["attempted"]))
            runs.append(res)
            print("%s seed %d done" % (w, seed), file=sys.stderr)
        report[w] = {}
        print("\n%-10s %-38s %14s %14s %14s %8s %6s"
              % (w, "metric", "median", "q1", "q3", "spread", "bound"))
        for name, m in runs[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and spread > bound:
                mark = "  SPREAD > BOUND"
                flagged.append("%s %s: spread %.4f > bound %g" % (w, name, spread, bound))
            report[w][name] = {"unit": m["unit"], "values": vals, "median": med,
                               "q1": q1, "q3": q3, "spread": spread}
            print("%-10s %-38s %14.6g %14.6g %14.6g %8.4f %6s%s"
                  % (w, name, med, q1, q3, spread,
                     "" if bound is None else "%g" % bound, mark))
    if args.baseline:
        better = {m["name"]: m["better"] for m in man["end_to_end"] + man["per_layer"]}
        with open(args.baseline) as f:
            base = json.load(f)
        print("\nagainst %s (change of median; + is worse)" % args.baseline)
        for w, metrics in report.items():
            for name, r in metrics.items():
                if name not in base.get(w, {}):
                    continue
                b = base[w][name]["median"]
                worse = (r["median"] - b) / abs(b) if b else 0.0
                if better.get(name) == "higher":
                    worse = -worse
                bound = bounds.get(name)
                mark = ""
                if bound is not None and worse > bound:
                    mark = "  WORSE THAN BOUND"
                    flagged.append("%s %s: %+.4f against baseline > bound %g"
                                   % (w, name, worse, bound))
                print("%-10s %-38s %+9.4f%s" % (w, name, worse, mark))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(report, f, indent=1)
    for line in flagged:
        print("FLAG " + line)
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steady", type=int, metavar="N")
    p.add_argument("--workloads")
    p.add_argument("--save")
    p.add_argument("--baseline")
    p.add_argument("--write-manifest", action="store_true")
    args = p.parse_args()
    build()
    if args.write_manifest:
        text = subprocess.run([EXE, "--manifest"], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True).stdout
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            f.write(text)
        return 0
    if args.steady:
        return steady(args)
    seconds = args.seconds if args.seconds is not None else manifest()["run_seconds"]
    if args.all:
        ok = True
        for w in WORKLOADS:
            res = run_one(w, args.seed, seconds, args.trace, capture=True)
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                print("%-10s %-38s %16.6g %s" % (w, name, m["value"], m["unit"]))
            print("%-10s checks: %d attempted, %d failed"
                  % (w, res["attempted"], res["failed"]))
        return 0 if ok else 1
    if not args.workload:
        p.error("--workload, --all, --steady or --write-manifest is required")
    return run_one(args.workload, args.seed, seconds, args.trace, capture=False)


if __name__ == "__main__":
    sys.exit(main())
