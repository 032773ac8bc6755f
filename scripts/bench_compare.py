#!/usr/bin/env python3
"""Compares end-to-end benchmark runs of a parent commit and a change.

Usage:

    python3 scripts/bench_compare.py --parent p1.txt p2.txt ... \\
        --change c1.txt c2.txt ... [--benchmark BENCHMARK.json]
    python3 scripts/bench_compare.py --self-test

Each input file holds the output of one or more `e2e_bench/run.py` runs:
every line that is a JSON object with a "metrics" field is one run's
result, and the workload it belongs to is named by the nearest preceding
`e2e_bench <workload> seed=...` header line (or by --workload when a file
has no header). The i-th parent run of a workload is paired with its i-th
change run, so run the two sides alternately and list the files in run
order.

For every workload and every end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles, the share of pairs the change won (ties
count for neither side) and a verdict:

  improved    the change won at least 9 of 10 pairs and its median beats
              the parent's by more than the parent's quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median);
  unresolved  not regressed, but the runs spread wider than the bound
              (quartile distance over median, on either side) and not
              every change run beat every parent run;
  no worse    otherwise.

It also prints each side's share of failed operations. Exit status: 0, or
1 when a metric regressed or the change failed a larger share of
operations; 2 on a usage or input error.
"""

import argparse
import io
import json
import os
import re
import statistics
import sys
import tempfile

HEADER = re.compile(r"^e2e_bench\s+(\S+)\s+seed=")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths, default_workload):
    """{workload: [result dict, ...]} in file and line order."""
    runs = {}
    for path in paths:
        workload = default_workload
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                m = HEADER.match(line)
                if m:
                    workload = m.group(1)
                    continue
                if not line.startswith("{"):
                    continue
                try:
                    result = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(result, dict) or "metrics" not in result:
                    continue
                if workload is None:
                    raise ValueError("%s: result without an 'e2e_bench "
                                     "<workload>' header; pass --workload"
                                     % path)
                runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values):
    """(q1, median, q3) with inclusive quantiles; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better, bound):
    """Classifies one metric; returns (verdict, share of pairs won)."""
    sign = -1.0 if better == "lower" else 1.0  # sign * value: higher wins
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c > sign * p)
    won = wins / len(pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    if won >= 0.9 and sign * (c_med - p_med) > p_q3 - p_q1:
        return "improved", won
    p_scale = abs(p_med) if p_med != 0 else 1.0
    c_scale = abs(c_med) if c_med != 0 else 1.0
    if sign * (p_med - c_med) / p_scale > bound:
        return "regressed", won
    spread = max((p_q3 - p_q1) / p_scale, (c_q3 - c_q1) / c_scale)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", won
    return "no worse", won


def failed_share(results):
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    return failed / attempted if attempted else 0.0


def compare(benchmark, parent_runs, change_runs, out=sys.stdout):
    """Prints the comparison; returns True when nothing regressed."""
    ok = True
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        n = min(len(parent), len(change))
        print("== %s: %d parent runs, %d change runs, %d pairs"
              % (workload, len(parent), len(change), n), file=out)
        if n == 0:
            print("   no pairs to compare", file=out)
            continue
        parent, change = parent[:n], change[:n]
        p_fail, c_fail = failed_share(parent), failed_share(change)
        print("   failed operations: parent %.4f%%, change %.4f%%"
              % (100 * p_fail, 100 * c_fail), file=out)
        if c_fail > p_fail:
            ok = False
        print("   %-20s %-6s %26s %26s %5s  %s"
              % ("metric", "unit", "parent q1/median/q3",
                 "change q1/median/q3", "won", "verdict"), file=out)
        for m in benchmark["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change
                  if name in r["metrics"]]
            if len(pv) != n or len(cv) != n:
                print("   %-20s missing in some runs" % name, file=out)
                continue
            v, won = verdict(pv, cv, m["better"], m["bound"])
            if v == "regressed":
                ok = False
            print("   %-20s %-6s %26s %26s %4.0f%%  %s"
                  % (name, m["unit"], "%.4g/%.4g/%.4g" % quartiles(pv),
                     "%.4g/%.4g/%.4g" % quartiles(cv), 100 * won, v),
                  file=out)
    return ok


def self_test():
    """Checks parsing and every verdict on synthetic runs."""
    lower, higher = "lower", "higher"
    assert verdict([5.5, 5.6, 5.4, 5.9, 5.7, 5.5, 5.8, 5.6, 5.3, 5.5],
                   [2.1, 2.2, 2.0, 2.3, 2.2, 2.1, 2.4, 2.2, 2.1, 2.0],
                   lower, 0.25) == ("improved", 1.0)
    assert verdict([56.0, 57.0, 56.5, 57.2], [56.4, 56.8, 56.9, 57.1],
                   higher, 0.1)[0] == "no worse"
    assert verdict([200.0, 205.0, 198.0, 202.0],
                   [300.0, 310.0, 290.0, 305.0], lower, 0.25)[0] \
        == "regressed"
    assert verdict([100.0, 180.0, 60.0, 140.0], [110.0, 170.0, 70.0, 120.0],
                   higher, 0.25)[0] == "unresolved"
    # A wide spread is resolved when every change run beats every parent
    # run; 8 of 10 pairs won is not enough to claim a gain.
    assert verdict([100.0, 180.0, 60.0, 140.0], [190.0, 260.0, 185.0, 230.0],
                   higher, 0.25)[0] == "improved"
    assert verdict([5.0] * 10, [4.0] * 8 + [6.0] * 2, lower, 0.25)[0] \
        == "no worse"
    # Ties count for neither side.
    assert verdict([1.0, 1.0], [1.0, 1.0], lower, 0.25) == ("no worse", 0)

    benchmark = {"end_to_end": [
        {"name": "fit_s", "unit": "s", "better": lower, "bound": 0.25},
        {"name": "auc", "unit": "%", "better": higher, "bound": 0.1},
        {"name": "rss", "unit": "MB", "better": lower, "bound": 0.25},
    ]}

    def run_text(seed, values):
        metrics = {k: {"value": v, "unit": "x"} for k, v in values.items()}
        result = {"correct": True, "attempted": 100, "failed": 0,
                  "metrics": metrics}
        return ("e2e_bench train_taobao seed=%d seconds=20 trace=0\n"
                "  fit_s 1 s\n%s\n" % (seed, json.dumps(result)))

    with tempfile.TemporaryDirectory() as tmp:
        def write(name, text):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            return path

        parents, changes = [], []
        for seed in range(10):
            base = {"fit_s": 5.5 + 0.05 * seed, "auc": 56.0 + 0.1 * seed,
                    "rss": 200.0 + seed}
            new = dict(base, fit_s=2.2 + 0.02 * seed, rss=330.0 + seed)
            parents.append(write("p%d.txt" % seed, run_text(seed, base)))
            changes.append(write("c%d.txt" % seed, run_text(seed, new)))
        p_runs = load_runs(parents, None)
        c_runs = load_runs(changes, None)
        assert list(p_runs) == ["train_taobao"]
        assert len(p_runs["train_taobao"]) == 10
        out = io.StringIO()
        assert not compare(benchmark, p_runs, c_runs, out=out)
        text = out.getvalue()
        for want in ("10 pairs", "improved", "regressed", "no worse"):
            assert want in text, (want, text)
        # A result with no header line needs --workload.
        bare = write("bare.txt", json.dumps({"metrics": {}}) + "\n")
        try:
            load_runs([bare], None)
            raise AssertionError("a header-less result was accepted")
        except ValueError:
            pass
        assert list(load_runs([bare], "serve_live")) == ["serve_live"]
    print("bench_compare self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--workload", default=None,
                        help="workload of results without a header line")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.benchmark, encoding="utf-8") as f:
            benchmark = json.load(f)
        parent = load_runs(args.parent, args.workload)
        change = load_runs(args.change, args.workload)
    except (OSError, ValueError) as err:
        print("bench_compare: %s" % err, file=sys.stderr)
        return 2
    return 0 if compare(benchmark, parent, change) else 1


if __name__ == "__main__":
    sys.exit(main())
