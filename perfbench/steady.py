#!/usr/bin/env python3
"""Steadiness tool for perfbench: repeat a workload, compare two sets.

Run one workload k times, each with its own seed and otherwise as the
benchmark is run (BENCHMARK.json's run_seconds, --trace 0), and print every
metric's median, quartiles and spread (the distance between the quartiles
as a share of the median):

    python3 perfbench/steady.py run --workload batch_csv --runs 10 \
        --out .bench_build/steady/batch_csv-a.json

Compare two such sets against the bounds in BENCHMARK.json; exits 1 if a
spread (setup_s excepted) or the change of a median exceeds its bound:

    python3 perfbench/steady.py compare A.json B.json

Quartiles are statistics.quantiles(values, n=4), the default exclusive
method.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def summarize(values):
    """Median, quartiles and spread of a list of numbers (at least two)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def worsening(before, after, better):
    """Share by which `after` is worse than `before` (negative = better)."""
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def metric_values(results):
    """{metric: [value per run]} over a list of result objects."""
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def last_json_line(text):
    for line in reversed(text.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the output")


def run_set(args):
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        if done.returncode != 0:
            sys.exit("steady: run with seed %d failed" % seed)
        result = last_json_line(done.stdout)
        if not result["correct"] or result["failed"]:
            sys.exit("steady: run with seed %d failed its checks" % seed)
        results.append(result)
        print("seed %d done" % seed, file=sys.stderr)
    out = {"workload": args.workload, "seconds": seconds,
           "first_seed": args.first_seed, "results": results}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    print_table(out, bench)


def bounds_of(bench):
    return {m["name"]: m for m in bench["end_to_end"]}


def print_table(data, bench):
    bounds = bounds_of(bench)
    print("%s: %d runs of %s s" % (data["workload"], len(data["results"]),
                                   data["seconds"]))
    print("%-26s %14s %14s %14s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, values in metric_values(data["results"]).items():
        s = summarize(values)
        bound = bounds.get(name, {}).get("bound")
        print("%-26s %14.6g %14.6g %14.6g %7.2f%% %7s" %
              (name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
               "%.0f%%" % (100 * bound) if bound is not None else "-"))


def compare(first, second, bench):
    """Lines of findings; empty when both sets meet every bound."""
    problems = []
    values_a = metric_values(first["results"])
    values_b = metric_values(second["results"])
    for name, spec in bounds_of(bench).items():
        if name not in values_a or name not in values_b:
            problems.append("%s: missing" % name)
            continue
        a, b = summarize(values_a[name]), summarize(values_b[name])
        for label, s in (("first", a), ("second", b)):
            if name != "setup_s" and s["spread"] > spec["bound"]:
                problems.append("%s: %s spread %.1f%% > bound %.0f%%" % (
                    name, label, 100 * s["spread"], 100 * spec["bound"]))
        worse = worsening(a["median"], b["median"], spec["better"])
        if worse > spec["bound"]:
            problems.append("%s: median worse by %.1f%% > bound %.0f%%" % (
                name, 100 * worse, 100 * spec["bound"]))
    return problems


def compare_sets(args):
    bench = load_benchmark()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    for data in sets:
        print_table(data, bench)
    problems = compare(sets[0], sets[1], bench)
    for line in problems:
        print("FAIL " + line)
    if not problems:
        print("OK: both sets within every bound")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="repeat one workload")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--out")
    cmp = sub.add_parser("compare", help="compare two sets of runs")
    cmp.add_argument("first")
    cmp.add_argument("second")
    args = parser.parse_args()
    if args.command == "run":
        run_set(args)
        return 0
    return compare_sets(args)


if __name__ == "__main__":
    sys.exit(main())
