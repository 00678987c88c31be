#!/usr/bin/env python3
"""Host-speed A/B: a committed revision against this checkout, in pairs.

  scripts/host_ab.py REV --workload W [--pairs N] [--seconds S] [--seed0 K]
  scripts/host_ab.py --selftest

Run from anywhere inside a checkout. REV's committed files are exported
(`git archive`, no network) into a temporary directory, removed at exit; the
checkout itself is the change side, working-tree edits included. Each side's
own, unmodified hostbench/run.py runs the workload with `--trace 0` on seeds
K..K+N-1, one pair per seed, and the side that goes first alternates from
pair to pair. Every run must exit 0 and report "correct": true; a run that
does not stops the comparison (exit 1). A side's first run builds it.

For every end-to-end metric BENCHMARK.json declares, it prints REV's median
[q1, q3], this checkout's median, the change in percent, and the pairs this
checkout won. The verdict follows the benchmark's measuring rule: "gain"
needs the change to win at least 9 pairs in 10 and its median to sit further
from REV's than REV's interquartile range is wide; anything else is "-". The
IQR column says where this checkout's median falls against REV's [q1, q3]:
inside, better or worse.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3), interpolating between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True when `a` is strictly better than `b` for a metric where
    `direction` ("higher" or "lower") is better."""
    return a > b if direction == "higher" else a < b


def verdict(parent, change, direction):
    """Compares paired runs (parent[i] and change[i] share a seed). Returns a
    dict with the medians, quartiles, percent change, wins and verdict."""
    assert len(parent) == len(change) and parent
    q1, p_med, q3 = quartiles(parent)
    c_med = statistics.median(change)
    n = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    gap = abs(c_med - p_med)
    iqr = q3 - q1
    gain = wins * 10 >= 9 * n and gap > iqr and better(c_med, p_med, direction)
    if q1 <= c_med <= q3:
        where = "inside"
    elif better(c_med, q3 if direction == "higher" else q1, direction):
        where = "better"
    else:
        where = "worse"
    pct = (c_med - p_med) / p_med * 100 if p_med else float("nan")
    return {"parent_median": p_med, "q1": q1, "q3": q3, "change_median": c_med,
            "pct": pct, "wins": wins, "pairs": n, "verdict": "gain" if gain else "-",
            "iqr": where}


def end_to_end_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]


def export(rev, dest):
    """Writes REV's committed tree into `dest`."""
    git = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout)
    git.stdout.close()
    if git.wait() != 0 or tar.returncode != 0:
        raise RuntimeError("cannot export %s" % rev)
    return dest


def run_side(root, workload, seed, seconds):
    """One hostbench run in checkout `root`; returns its metrics dict."""
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if proc.returncode != 0 or result is None or result.get("correct") is not True:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("%s: seed %d exited %d without a correct result"
                           % (root, seed, proc.returncode))
    return {name: m["value"] for name, m in result["metrics"].items()}


def fmt(v):
    if abs(v) >= 1e6:
        return "%.4gM" % (v / 1e6)
    return "%.4gk" % (v / 1e3) if abs(v) >= 1e4 else "%.4g" % v


def print_table(workload, rev, rows):
    print("%s: %s [q1, q3] vs this checkout, %d pairs"
          % (workload, rev, rows[0][1]["pairs"] if rows else 0))
    print("| metric | %s median [q1, q3] | change median | change | wins | IQR | verdict |" % rev)
    print("|---|---|---|---:|---:|---|---|")
    for name, r in rows:
        print("| `%s` | %s [%s, %s] | %s | %+.1f%% | %d/%d | %s | %s |"
              % (name, fmt(r["parent_median"]), fmt(r["q1"]), fmt(r["q3"]),
                 fmt(r["change_median"]), r["pct"], r["wins"], r["pairs"], r["iqr"],
                 r["verdict"]))


def compare(args):
    metrics = end_to_end_metrics(ROOT)
    tmp = tempfile.mkdtemp(prefix="host_ab-")
    try:
        parent_root = export(args.rev, tmp)
        sides = {"parent": parent_root, "change": ROOT}
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(sides[side], args.workload, seed, args.seconds))
            sys.stderr.write("pair %d/%d (seed %d): %s\n" % (
                i + 1, args.pairs, seed,
                ", ".join("%s %s -> %s" % (name, fmt(runs["parent"][-1][name]),
                                           fmt(runs["change"][-1][name]))
                          for name, _ in metrics)))
        rows = []
        for name, direction in metrics:
            rows.append((name, verdict([r[name] for r in runs["parent"]],
                                       [r[name] for r in runs["change"]], direction)))
        print_table(args.workload, args.rev, rows)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def selftest():
    failures = []

    def check(label, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (label, got, want))

    check("quartiles", quartiles([1, 2, 3, 4, 5]), (2, 3, 4))
    check("quartiles of one", quartiles([7.0]), (7.0, 7.0, 7.0))
    base = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # IQR 4.5
    # Higher is better: 10/10 wins, median +10 against an IQR of 4.5.
    r = verdict(base, [v + 10 for v in base], "higher")
    check("clear gain", (r["verdict"], r["wins"], r["iqr"]), ("gain", 10, "better"))
    # 9/10 wins is enough...
    nine = [v + 10 for v in base[:9]] + [base[9] - 1]
    check("nine of ten", verdict(base, nine, "higher")["verdict"], "gain")
    # ...8/10 is not, however wide the gap.
    eight = [v + 10 for v in base[:8]] + [base[8] - 1, base[9] - 1]
    check("eight of ten", verdict(base, eight, "higher")["verdict"], "-")
    # 10/10 wins with a median gap inside the parent's IQR is noise.
    r = verdict(base, [v + 2 for v in base], "higher")
    check("narrow gap", (r["verdict"], r["wins"], r["iqr"]), ("-", 10, "inside"))
    # Lower is better: the same numbers read the other way round.
    r = verdict(base, [v - 10 for v in base], "lower")
    check("lower is better", (r["verdict"], r["iqr"]), ("gain", "better"))
    r = verdict(base, [v + 10 for v in base], "lower")
    check("worse", (r["verdict"], r["iqr"]), ("-", "worse"))
    # Ties are not wins.
    r = verdict(base, list(base), "higher")
    check("ties", (r["verdict"], r["wins"], r["pct"]), ("-", 0, 0.0))
    for f in failures:
        print("host_ab selftest: FAIL " + f)
    if failures:
        return 1
    print("host_ab selftest: all cases passed")
    return 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the committed revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs wants at least 1 and --seconds a positive number")
    # A terminated comparison still removes its exported tree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return compare(args)
    except RuntimeError as e:
        print("host_ab: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
