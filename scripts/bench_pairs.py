"""Paired benchmark runs of a parent checkout against this one, as one record.

    python3 scripts/bench_pairs.py PARENT_CHECKOUT

For each workload of ``BENCHMARK.json`` and each seed N in 1..10 it runs
``perfbench/run.py --workload W --seed N --seconds 30`` (the run length of
``BENCHMARK.json``) once in the parent checkout and once in this one, one after
the other, alternating which side goes first, and reads the JSON object on
the last line of each run's output. It writes ``BENCH_<rev>.json`` at the
root of this checkout, where ``<rev>`` is ``git describe --always --dirty``
of this checkout (``<parent>-dirty`` for uncommitted work on the parent).

The record holds, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and interquartile range, the change's median over the
parent's, how many pairs the change won, and the raw pairs; per run its
``correct``, ``attempted`` and ``failed``; and both revisions, ``nproc``,
the Python and numpy versions and the line counts of ``src/derivgen/*.py``
on both sides. It is not part of the test suite, and it changes nothing
under ``perfbench/``. Ten pairs of 30 s runs take about 12 minutes per
workload.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # seeds 1..PAIRS


def git(checkout, *args):
    """Output of a git command in ``checkout``, or None outside a repository."""
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(checkout):
    """``wc -l src/derivgen/*.py``: lines per file and their total."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(checkout, "src", "derivgen", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def run(checkout, workload, seed, seconds):
    """One benchmark run: its result object, or None if it failed."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} seed {seed} in {checkout} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def spread(values):
    """Median and interquartile range."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(runs, metric, better):
    """Both sides' spread of one metric over the pairs where both runs ended."""
    pairs = [(r["parent"]["metrics"][metric]["value"], r["change"]["metrics"][metric]["value"])
             for r in runs if r["parent"] and r["change"]]
    if len(pairs) < 2:
        return {"pairs": pairs}
    parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in pairs)
    return {"better": better, "parent": parent, "change": change,
            "ratio": change["median"] / parent["median"], "change_wins": wins, "pairs": pairs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent revision")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    seconds = manifest["run_seconds"]
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    rev = git(ROOT, "describe", "--always", "--dirty") or "unknown"
    record = {
        "command": f"perfbench/run.py --workload W --seed N --seconds {seconds}",
        "revisions": {name: git(path, "describe", "--always", "--dirty")
                      for name, path in sides.items()},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": {name: src_lines(path) for name, path in sides.items()},
        "workloads": {},
    }
    for workload in (w["name"] for w in manifest["workloads"]):
        runs = []
        for seed in range(1, PAIRS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            runs.append({"seed": seed, "first": order[0]})
            for name in order:
                runs[-1][name] = run(sides[name], workload, seed, seconds)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {runs[-1][name]['metrics']['items_per_s']['value']:.1f}/s"
                if runs[-1][name] else f"{name} failed" for name in order), file=sys.stderr)
        record["workloads"][workload] = {
            "metrics": {m["name"]: summary(runs, m["name"], m["better"])
                        for m in manifest["end_to_end"]},
            "runs": [{"seed": r["seed"], "first": r["first"],
                      **{name: None if r[name] is None else
                         {k: r[name][k] for k in ("correct", "attempted", "failed")}
                         for name in sides}} for r in runs],
        }
    path = os.path.join(ROOT, f"BENCH_{rev}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"record written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
