#!/usr/bin/env python3
"""Paired benchmark gate: this checkout against a base commit.

    python3 bench/ab.py BASE [WORKLOAD...]
    python3 bench/ab.py --selftest

Run from anywhere inside an rtcad checkout.  BASE is any git revision;
it is extracted with `git archive` under _build/ab/<sha>.  For each
workload named (default: every workload in BENCHMARK.json) the script
runs PAIRS pairs at RTCAD_JOBS=1.  Pair i runs

    python3 perfbench/run.py --workload W --seed i --seconds 10 --trace 0

in the base and in this checkout (the working tree, uncommitted edits
included), alternating which side goes first, and reads the
end-to-end metrics named in BENCHMARK.json from each run's last stdout
line.

Host speed drifts by more than the threshold over minutes on a small
VM, so one run against numbers recorded elsewhere cannot tell a slower
program from a slower host.  Pairs run back to back can: a metric
regresses only when all three of these hold:

  - the change is worse in at least MIN_LOST of the PAIRS pairs;
  - its median is worse than the base's median by more than THRESHOLD;
  - that gap is larger than the base's interquartile range.

A run that exits non-zero, reports "correct":false or failed > 0, on
either side, fails the gate too; that workload's remaining pairs are
skipped.  The script prints one row per workload and metric: both
medians, both IQRs, the pairs lost and the verdict.  Exit status: 0 if
every metric passes and every run succeeds, 1 otherwise, 2 on a usage
error.  `--selftest` checks the verdict rule and the result parsing on
synthetic samples and runs nothing.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
MIN_LOST = 9
THRESHOLD = 0.15
SECONDS = 10


def fail(msg, code=1):
    print("ab: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    """Workload names and (metric, better) pairs from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    return workloads, metrics


def iqr(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def judge(better, base, change):
    """Judge one metric over paired samples (base[i] and change[i] ran as
    pair i).  Returns (pairs lost, regressed)."""
    if better == "lower":
        lost = sum(c > b for b, c in zip(base, change))
        gap = statistics.median(change) - statistics.median(base)
    else:
        lost = sum(c < b for b, c in zip(base, change))
        gap = statistics.median(base) - statistics.median(change)
    regressed = (
        lost >= MIN_LOST
        and gap > THRESHOLD * abs(statistics.median(base))
        and gap > iqr(base)
    )
    return lost, regressed


def parse_result(code, stdout, metrics):
    """Metric values of one perfbench run, or the reason it failed."""
    if code != 0:
        return None, "exit %d" % code
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if result["correct"] is not True:
            return None, '"correct":false'
        if result["failed"] > 0:
            return None, "%d of %d operations failed" % (
                result["failed"],
                result["attempted"],
            )
        return {name: result["metrics"][name]["value"] for name, _ in metrics}, None
    except (IndexError, ValueError, KeyError, TypeError) as e:
        return None, "unreadable result line (%s: %s)" % (type(e).__name__, e)


def run_once(root, workload, seed, metrics):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SECONDS),
            "--trace", "0",
        ],
        cwd=root,
        env=dict(os.environ, RTCAD_JOBS="1"),
        stdout=subprocess.PIPE,
    )
    return parse_result(proc.returncode, proc.stdout.decode(errors="replace"), metrics)


def extract(rev):
    """Extract rev under _build/ab/<sha> (once) and return (sha, path)."""
    git = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", rev + "^{commit}"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if git.returncode != 0:
        fail("%s does not name a commit in this repository" % rev, code=2)
    sha = git.stdout.strip()
    dest = os.path.join(ROOT, "_build", "ab", sha)
    if not os.path.isdir(dest):
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        tmp = tempfile.mkdtemp(dir=os.path.dirname(dest))
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            fail("cannot extract %s" % sha)
        os.rename(tmp, dest)
    if not os.path.exists(os.path.join(dest, "perfbench", "run.py")):
        fail("%s has no perfbench/run.py to compare against" % sha)
    return sha, dest


def run_workload(workload, sides, metrics):
    """PAIRS alternating pairs of one workload.  Returns the samples
    {side: {metric: [value per pair]}}, or the failure that stopped it."""
    samples = {side: {name: [] for name, _ in metrics} for side, _ in sides}
    for seed in range(1, PAIRS + 1):
        for side, root in sides if seed % 2 else sides[::-1]:
            values, err = run_once(root, workload, seed, metrics)
            if err is not None:
                return None, "%s %s seed %d: %s" % (side, workload, seed, err)
            for name, _ in metrics:
                samples[side][name].append(values[name])
            print(
                "ab: %s seed %d %-6s %s"
                % (workload, seed, side, " ".join("%s=%.4g" % kv for kv in values.items())),
                file=sys.stderr,
                flush=True,
            )
    return samples, None


def gate(rev, wanted):
    workloads, metrics = load_benchmark()
    unknown = [w for w in wanted if w not in workloads]
    if unknown:
        print("ab: unknown workload %s; BENCHMARK.json lists %s"
              % (" ".join(unknown), " ".join(workloads)), file=sys.stderr)
        return 2
    start = time.monotonic()
    sha, base_root = extract(rev)
    sides = (("base", base_root), ("change", ROOT))
    print("ab: base %s, change = working tree of %s; %d pairs of %d-s runs per workload, RTCAD_JOBS=1"
          % (sha[:12], ROOT, PAIRS, SECONDS), flush=True)
    rows, failures = [], []
    for workload in wanted or workloads:
        samples, err = run_workload(workload, sides, metrics)
        if err is not None:
            failures.append(err)
            print("ab: FAILED RUN " + err, file=sys.stderr, flush=True)
            continue
        for name, better in metrics:
            base, change = samples["base"][name], samples["change"][name]
            lost, regressed = judge(better, base, change)
            rows.append((workload, name, statistics.median(base), iqr(base),
                         statistics.median(change), iqr(change), lost, regressed))
    print("%-11s %-12s %12s %10s %12s %10s %5s  %s"
          % ("workload", "metric", "base median", "base IQR",
             "chg median", "chg IQR", "lost", "verdict"))
    for workload, name, mb, ib, mc, ic, lost, regressed in rows:
        print("%-11s %-12s %12.4g %10.4g %12.4g %10.4g %2d/%-2d  %s"
              % (workload, name, mb, ib, mc, ic, lost, PAIRS,
                 "REGRESSED" if regressed else "ok"))
    for err in failures:
        print("FAILED RUN: " + err)
    regressions = sum(row[-1] for row in rows)
    print("ab: %d regression(s), %d failed run(s), %.0f s"
          % (regressions, len(failures), time.monotonic() - start))
    return 1 if regressions or failures else 0


def selftest():
    base = [1.00, 1.04, 0.97, 1.02, 0.99, 1.05, 1.01, 0.98, 1.03, 1.00]
    wide = [0.60, 1.40, 0.80, 1.20, 1.00, 0.70, 1.30, 0.90, 1.10, 1.00]
    scaled = lambda xs, f: [x * f for x in xs]
    verdicts = [
        ("identical sides", "lower", base, base, False),
        ("20% worse in 10 of 10 pairs", "lower", base, scaled(base, 1.2), True),
        ("20% worse in 8 of 10 pairs", "lower", base,
         scaled(base[:8], 1.2) + scaled(base[8:], 0.99), False),
        ("10% worse in 10 of 10 pairs", "lower", base, scaled(base, 1.1), False),
        ("20% worse in 10 of 10 pairs, within the base's IQR", "lower",
         wide, scaled(wide, 1.2), False),
        ("20% better in 10 of 10 pairs", "lower", base, scaled(base, 0.8), False),
        ("higher is better: 20% lower in 10 of 10 pairs", "higher",
         base, scaled(base, 0.8), True),
        ("higher is better: 20% higher in 10 of 10 pairs", "higher",
         base, scaled(base, 1.2), False),
    ]
    errors = 0
    for label, better, b, c, expected in verdicts:
        _, regressed = judge(better, b, c)
        if regressed != expected:
            errors += 1
            print("ab selftest: %s: regressed=%s, expected %s" % (label, regressed, expected))
    metrics = [("wall_s", "lower")]
    ok_line = '{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}'
    results = [
        ("good run", 0, "info\n" + ok_line + "\n", {"wall_s": 1.5}),
        ("non-zero exit", 1, ok_line, None),
        ("wrong outputs", 0, ok_line.replace("true", "false"), None),
        ("failed operations", 0, ok_line.replace('"failed":0', '"failed":2'), None),
        ("missing metric", 0, ok_line.replace("wall_s", "other"), None),
        ("no output", 0, "", None),
    ]
    for label, code, stdout, expected in results:
        values, err = parse_result(code, stdout, metrics)
        if values != expected or (values is None) == (err is None):
            errors += 1
            print("ab selftest: %s: got %s / %s, expected %s" % (label, values, err, expected))
    total = len(verdicts) + len(results)
    print("ab selftest: %d of %d checks passed" % (total - errors, total))
    return 1 if errors else 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return gate(argv[0], argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
