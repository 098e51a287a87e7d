#!/usr/bin/env python3
"""Interleaved A/B comparison of two revisions' end-to-end benchmark.

    python3 scripts/ab.py A B [--workload W ...] [--seed S ...] [--pairs N]

A and B are git revisions (anything `git rev-parse` accepts), or `WORKTREE`
for the checkout's working tree as it is on disk (tracked and untracked,
non-ignored files). Each arm is exported and its psc_bench binary built
into its own directory under --workdir, outside the source tree, with the
same configuration psc_bench/run.py uses. Builds are reused across calls
while the exported sources are unchanged.

Per workload (default: every one in BENCHMARK.json) and per seed (default
1 and 7919) the script runs one warm-up iteration of each arm, then N pairs.
A pair runs each arm once untraced (the end-to-end metrics) and once traced
(the per-layer `runtime.phase.*` metrics and the online checkers' own
cost), every iteration in a fresh process. The arms alternate which goes first from pair to pair, so drift in
the host's load biases neither.

For each end-to-end metric, each set-up layer (SETUP_LAYERS, the four
parts of `setup_s`, from the untraced iterations), each `runtime.phase.*`
and each online checker's per-event cost (CHECKER_LAYERS, from the traced
iterations) it prints the median and quartiles of both arms, the
ratio of the medians (B / A), in how many pairs B was better than A in
the metric's own direction, a 95% bootstrap confidence interval of B / A
(pairs resampled with replacement, seeded, so the output is reproducible)
and a verdict: `better` or `worse` when the interval lies wholly on one
side of 1, else `inconclusive`. Beside it a `rule` column applies the
acceptance rule for a performance claim: `gain` (or `loss`) only when B is
better (or worse) than A in at least 9 of every 10 pairs and the medians
differ, in that direction, by more than A's interquartile distance; else
`unresolved`. One 10-pair bootstrap verdict has flipped between
back-to-back runs on a shared host; the rule asks for more than that, and
is meant for 20 or more pairs. It exits 1 when any iteration fails a
check, or when the determinism fingerprint (psc_bench/run.py's
FINGERPRINT counts) differs between or within the arms.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"
SEEDS = (1, 7919)
# Counts that must be equal across every iteration of one workload and seed.
FINGERPRINT = (
    "runtime.events",
    "runtime.time_advances",
    "rw.spec.states",
    "channel.sent",
    "transform.received",
    "mmt.ticks",
)
# The layers of `setup_s`, read from the untraced iterations.
SETUP_LAYERS = (
    "clock.trajectory_s",
    "runtime.assemble_s",
    "analysis.lint_s",
    "analysis.certify_s",
)
# The online checkers' per-event cost, read from the traced iterations.
CHECKER_LAYERS = (
    "analysis.invariant.observe_ns",
    "analysis.cert.observe_ns",
    "obs.slack.observe_ns",
)
ITERATION_TIMEOUT_S = 150
BOOTSTRAP_RESAMPLES = 2000


def fail(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args, **kw):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kw).stdout


def export(rev, dest):
    """Writes the sources of `rev` into dest/src; returns a content key.

    An unchanged key keeps dest/src and dest/build as they are; a changed
    one replaces the sources and drops the build directory.
    """
    if rev == WORKTREE:
        names = git("ls-files", "-z", "--cached", "--others",
                    "--exclude-standard").split(b"\0")
        files = {}
        digest = hashlib.sha256()
        for name in sorted(n.decode() for n in names if n):
            path = ROOT / name
            if path.is_file():  # skips files deleted but still indexed
                files[name] = path.read_bytes()
                digest.update(name.encode() + b"\0" + files[name])
        key = digest.hexdigest()
    else:
        key = git("rev-parse", f"{rev}^{{commit}}", text=True).strip()
    stamp = dest / "source.key"
    src = dest / "src"
    if stamp.exists() and stamp.read_text() == key and src.exists():
        return key
    shutil.rmtree(src, ignore_errors=True)
    shutil.rmtree(dest / "build", ignore_errors=True)
    src.mkdir(parents=True)
    if rev == WORKTREE:
        for name, data in files.items():
            out = src / name
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_bytes(data)
    else:
        archive = git("archive", key)
        subprocess.run(["tar", "-x", "-C", str(src)], input=archive,
                       check=True)
    stamp.write_text(key)
    return key


def build(rev, dest):
    key = export(rev, dest)
    build_dir = dest / "build"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    marker = "build.ninja" if generator else "Makefile"
    if not (build_dir / marker).exists():
        subprocess.run(["cmake", "-S", str(dest / "src" / "psc_bench"), "-B",
                        str(build_dir), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "psc_bench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "psc_bench", key


def iterate(binary, workload, seed, traced):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out after {ITERATION_TIMEOUT_S}s")
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def cell(median, q):
    return f"{median:.4g} [{q[0]:.4g}, {q[1]:.4g}]"


def bootstrap_ratio_ci(a, b, level=0.95):
    """Percentile bootstrap CI of median(b) / median(a) over paired runs."""
    rng = random.Random(0)
    n = len(a)
    ratios = []
    for _ in range(BOOTSTRAP_RESAMPLES):
        idx = [rng.randrange(n) for _ in range(n)]
        ma = statistics.median(a[i] for i in idx)
        if ma:
            ratios.append(statistics.median(b[i] for i in idx) / ma)
    if not ratios:
        return float("nan"), float("nan")
    ratios.sort()
    tail = (1 - level) / 2
    lo = ratios[int(tail * (len(ratios) - 1))]
    hi = ratios[int((1 - tail) * (len(ratios) - 1))]
    return lo, hi


def verdict(ci, better):
    lo, hi = ci
    if not (hi < 1 or lo > 1):  # the interval contains 1 (or is nan)
        return "inconclusive"
    return "better" if (hi < 1) == (better == "lower") else "worse"


def rule(a, b, better):
    """The acceptance rule for a claimed change of B over A (paired runs)."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    q1, q3 = quartiles(a)
    gap = sign * (statistics.median(a) - statistics.median(b))
    if 10 * wins >= 9 * len(a) and gap > q3 - q1:
        return "gain"
    if 10 * losses >= 9 * len(a) and -gap > q3 - q1:
        return "loss"
    return "unresolved"


def compare(binaries, workload, seed, pairs, metrics):
    """Runs the pairs; returns (failed checks, fingerprint mismatches)."""
    runs = {arm: {"plain": [], "traced": []} for arm in binaries}
    # One untimed warm-up per arm (page cache, CPU frequency).
    for arm, binary in binaries.items():
        runs[arm]["warmup"] = iterate(binary, workload, seed, False)
    arms = list(binaries)
    for k in range(pairs):
        order = arms if k % 2 == 0 else arms[::-1]
        for arm in order:
            runs[arm]["plain"].append(iterate(binaries[arm], workload, seed,
                                              False))
            runs[arm]["traced"].append(iterate(binaries[arm], workload, seed,
                                               True))
        print(f"  pair {k + 1}/{pairs} done (first: {order[0]})",
              file=sys.stderr)

    failed = 0
    mismatched = 0
    reference = runs[arms[0]]["warmup"]["values"]
    for arm in arms:
        every = [runs[arm]["warmup"], *runs[arm]["plain"],
                 *runs[arm]["traced"]]
        for r in every:
            failed += sum(1 for ok in r["checks"].values() if not ok)
            for key in FINGERPRINT:
                if r["values"][key] != reference[key]:
                    mismatched += 1
                    print(f"fingerprint mismatch ({arm}): {key} "
                          f"{r['values'][key]} != {reference[key]}",
                          file=sys.stderr)

    print(f"\n## {workload} seed {seed}: {pairs} pairs, "
          f"A={arms[0]} B={arms[1]}")
    print("fingerprint: " + " ".join(f"{k}={reference[k]:g}"
                                     for k in FINGERPRINT)
          + ("  MISMATCH" if mismatched else "  identical"))
    print(f"{'metric':30s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'B/A':>6s} {'B wins':>7s} "
          f"{'95% CI of B/A':>16s}  {'verdict':12s}  rule")
    for name, better, mode in metrics:
        a = [r["values"][name] for r in runs[arms[0]][mode]]
        b = [r["values"][name] for r in runs[arms[1]][mode]]
        ma, mb = statistics.median(a), statistics.median(b)
        wins = sum(1 for x, y in zip(a, b)
                   if (y < x if better == "lower" else y > x))
        ratio = mb / ma if ma else float("nan")
        ci = bootstrap_ratio_ci(a, b)
        print(f"{name:30s} {cell(ma, quartiles(a)):>30s} "
              f"{cell(mb, quartiles(b)):>30s} {ratio:6.3f} "
              f"{wins:>4d}/{pairs} "
              f"{f'[{ci[0]:.3f}, {ci[1]:.3f}]':>16s}  "
              f"{verdict(ci, better):12s}  {rule(a, b, better)}")
    return failed, mismatched


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline revision, or WORKTREE")
    ap.add_argument("b", help="candidate revision, or WORKTREE")
    ap.add_argument("--workload", action="append", choices=workloads,
                    help="repeatable; default: every workload")
    ap.add_argument("--seed", action="append", type=int,
                    help="repeatable; default: 1 and 7919")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workdir", type=Path,
                    default=Path(tempfile.gettempdir()) / "psc-ab",
                    help="where the arms are exported and built "
                         "(default: %(default)s)")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        fail(f"--workdir {workdir} lies inside the source tree")

    binaries = {}
    for label, rev in (("A", args.a), ("B", args.b)):
        dest = workdir / label
        dest.mkdir(parents=True, exist_ok=True)
        binary, key = build(rev, dest)
        print(f"arm {label}: {rev} ({key[:12]}) -> {binary}", file=sys.stderr)
        binaries[f"{label}:{rev}"] = binary

    metrics = [(m["name"], m["better"], "plain") for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"], "plain") for m in spec["per_layer"]
                if m["name"] in SETUP_LAYERS]
    metrics += [(m["name"], m["better"], "traced") for m in spec["per_layer"]
                if m["name"].startswith("runtime.phase.")
                or m["name"] == "runtime.self_ns"
                or m["name"] in CHECKER_LAYERS]
    failed = mismatched = 0
    for workload in args.workload or workloads:
        for seed in args.seed or SEEDS:
            f, m = compare(binaries, workload, seed, args.pairs, metrics)
            failed += f
            mismatched += m
    if failed:
        fail(f"{failed} checks failed")
    if mismatched:
        fail(f"{mismatched} fingerprint values differ")


if __name__ == "__main__":
    main()
