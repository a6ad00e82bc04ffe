#!/usr/bin/env python3
"""Paired runs of the repository's benchmark: a parent revision against
the working tree.

Dependency-free. Exports PARENT_REV with `git archive` into the work
directory (nothing is registered in `.git`, so a killed run leaves no
stale worktree behind), builds `bench/` of both trees once into separate
target directories, then runs WORKLOAD `--pairs` times on each side,
alternating which side goes first. For every end-to-end metric of
`BENCHMARK.json` it prints each run, both medians and quartiles, the
pairs the change won and a verdict: a gain needs at least ten pairs, nine
tenths of them won, medians further apart than the parent's own
interquartile range, and a change that fails no larger share of its
operations than the parent and none of its runs' checks; a regression is
a median worse than the parent's by more than the metric's bound; `sim_*`
values must be bit-identical.

Usage: bench_pairs.py PARENT_REV WORKLOAD [--pairs 10] [--seed 1] [--workdir DIR]
       bench_pairs.py --self-test
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Fewer pairs than this support no claim, however they fall.
MIN_PAIRS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_rev", help="revision the working tree is compared against")
    p.add_argument("workload", help="a workload name from BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--workdir", type=Path, help="keep exports, builds and results here (default: a temp dir, removed)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def health(runs):
    """(share of operations that failed, runs that failed their checks)."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return (failed / attempted if attempted else 0.0, sum(not r["correct"] for r in runs))


def summarize(metric, parent, change, fails_more=False):
    """Compare the paired readings of one end-to-end metric.

    `metric` is its BENCHMARK.json entry (name, better, bound); `parent`
    and `change` hold one value per pair, in run order. `fails_more`
    says the change failed a larger share of its operations than the
    parent, or a run's checks: faster is then no gain.
    """
    higher = metric["better"] == "higher"
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    pm, cm = quantile(parent, 0.5), quantile(change, 0.5)
    iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    won = sum(better(c, p) for p, c in zip(parent, change))
    lost = sum(better(p, c) for p, c in zip(parent, change))
    out = {
        "parent_median": pm,
        "parent_q1": quantile(parent, 0.25),
        "parent_q3": quantile(parent, 0.75),
        "change_median": cm,
        "change_q1": quantile(change, 0.25),
        "change_q3": quantile(change, 0.75),
        "ratio": cm / pm if pm else float("nan"),
        "won": won,
        "lost": lost,
        "pairs": len(parent),
    }
    if metric["name"].startswith("sim_"):
        # Simulated values are exact per seed: compare the bits, not a bound.
        same = all(p == c for p, c in zip(parent, change)) and len(set(parent)) == 1
        out["verdict"] = "bit-identical" if same else "DIFFERS"
        return out
    worse_by = ((pm - cm) if higher else (cm - pm)) / abs(pm) if pm else 0.0
    every_run_better = all(better(c, p) for c in change for p in parent)
    if won * 10 >= len(parent) * 9 and better(cm, pm) and abs(cm - pm) > iqr:
        if fails_more:
            out["verdict"] = "better, but no gain: the change fails more operations or checks"
        elif len(parent) < MIN_PAIRS:
            out["verdict"] = f"better, but a claim needs {MIN_PAIRS} pairs"
        else:
            out["verdict"] = "gain"
    elif worse_by > metric["bound"]:
        out["verdict"] = "REGRESSION"
    elif pm and iqr / abs(pm) > metric["bound"] and not every_run_better:
        out["verdict"] = "unresolved (spread wider than bound)"
    else:
        out["verdict"] = "within bound"
    return out


def render(workload, seed, metrics, runs):
    """The report: every run, then one summary row per metric."""
    lines = [f"workload {workload}, seed {seed}, {len(runs['parent'])} pairs"]
    (parent_share, _), (change_share, change_incorrect) = health(runs["parent"]), health(runs["change"])
    fails_more = change_share > parent_share or change_incorrect > 0
    for m in metrics:
        name = m["name"]
        lines.append(f"\n{name} [{m['unit']}, {m['better']} is better, bound {m['bound']:.0%}]")
        for i, (p, c) in enumerate(zip(runs["parent"], runs["change"])):
            first = SIDES[i % 2]
            lines.append(f"  pair {i + 1:2} ({first} first)  parent {p['metrics'][name]!r:>22}  change {c['metrics'][name]!r:>22}")
        s = summarize(m, [r["metrics"][name] for r in runs["parent"]], [r["metrics"][name] for r in runs["change"]],
                      fails_more)
        lines.append(f"  parent median {s['parent_median']:.6g} (q1 {s['parent_q1']:.6g}, q3 {s['parent_q3']:.6g})")
        lines.append(f"  change median {s['change_median']:.6g} (q1 {s['change_q1']:.6g}, q3 {s['change_q3']:.6g})")
        lines.append(f"  change/parent {s['ratio']:.3f}, change won {s['won']}/{s['pairs']} (lost {s['lost']}): {s['verdict']}")
    for side in SIDES:
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        incorrect = sum(not r["correct"] for r in runs[side])
        lines.append(f"\n{side}: {failed} of {attempted} operations failed, {incorrect} run(s) failed their checks")
    return "\n".join(lines)


def sh(cmd, **kw):
    return subprocess.run(cmd, check=True, **kw)


def export_parent(rev, dest):
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev], stdout=subprocess.PIPE)
    sh(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def build(tree, target, dest):
    sh(["cargo", "build", "--release", "--quiet", "--offline",
        "--manifest-path", str(tree / "bench" / "Cargo.toml"), "--target-dir", str(target)])
    shutil.copy2(target / "release" / "bench", dest)


def run_once(binary, tree, out_dir, workload, seed, seconds):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out_dir)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stdout}")
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def main(argv):
    args = parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload!r}")
    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs."))
    work = work.resolve()
    try:
        trees = {"parent": work / "parent", "change": REPO}
        export_parent(args.parent_rev, trees["parent"])
        bins = {}
        for side in SIDES:
            bins[side] = work / f"bench-{side}"
            print(f"building {side} ({trees[side]})", file=sys.stderr)
            build(trees[side], work / f"target-{side}", bins[side])
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr)
                runs[side].append(run_once(bins[side], trees[side], work / f"out-{side}",
                                           args.workload, args.seed, spec["run_seconds"]))
        print(render(args.workload, args.seed, spec["end_to_end"], runs))
    finally:
        if args.workdir is None:
            shutil.rmtree(work, ignore_errors=True)
    return 0


def self_test():
    """Argument parsing and the verdict rules, on canned readings."""
    a = parse_args(["HEAD~1", "domain-fabric"])
    assert (a.parent_rev, a.workload, a.pairs, a.seed, a.workdir) == ("HEAD~1", "domain-fabric", 10, 1, None)
    a = parse_args(["abc", "svc-hash", "--pairs", "3", "--seed", "7", "--workdir", "/tmp/x"])
    assert (a.pairs, a.seed, a.workdir) == (3, 7, Path("/tmp/x"))
    for bad in (["only-rev"], ["rev", "w", "--pairs", "0"], ["rev", "w", "--seed", "x"]):
        try:
            with open("/dev/null", "w") as null:
                stderr, sys.stderr = sys.stderr, null
                try:
                    parse_args(bad)
                finally:
                    sys.stderr = stderr
        except SystemExit:
            continue
        raise AssertionError(f"{bad} must be refused")

    assert quantile([4.0], 0.25) == 4.0
    assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.75

    up = {"name": "host_msgs_per_s", "unit": "msgs/s", "better": "higher", "bound": 0.25}
    down = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    sim = {"name": "sim_msgs_per_s", "unit": "msgs/s", "better": "higher", "bound": 0.2}
    parent = [48.0, 47.0, 51.0, 49.0, 48.5, 50.0, 47.5, 48.2, 49.5, 50.5]

    s = summarize(up, parent, [p * 2.2 for p in parent])
    assert s["verdict"] == "gain" and s["won"] == 10 and abs(s["ratio"] - 2.2) < 1e-9, s
    # Nine of ten pairs is enough, eight is not.
    s = summarize(up, parent, [100.0] * 9 + [40.0])
    assert s["verdict"] == "gain" and (s["won"], s["lost"]) == (9, 1), s
    s = summarize(up, parent, [100.0] * 8 + [40.0, 40.0])
    assert s["verdict"] == "within bound" and s["won"] == 8, s
    # Every pair won by less than the parent's own spread is no gain.
    s = summarize(up, parent, [p + 0.1 for p in parent])
    assert s["verdict"] == "within bound" and s["won"] == 10, s
    # Ties count for neither side.
    s = summarize(up, parent, list(parent))
    assert (s["won"], s["lost"], s["verdict"]) == (0, 0, "within bound"), s
    s = summarize(up, parent, [p * 0.7 for p in parent])
    assert s["verdict"] == "REGRESSION", s
    # Lower-is-better metrics flip every comparison.
    s = summarize(down, parent, [p * 0.5 for p in parent])
    assert s["verdict"] == "gain" and s["won"] == 10, s
    s = summarize(down, parent, [p * 1.3 for p in parent])
    assert s["verdict"] == "REGRESSION" and s["lost"] == 10, s
    # A parent whose own runs spread wider than the bound resolves nothing...
    noisy = [10.0, 30.0, 12.0, 28.0, 11.0, 29.0, 10.5, 30.5, 12.5, 27.5]
    s = summarize(up, noisy, [n * 1.02 for n in noisy])
    assert s["verdict"].startswith("unresolved"), s
    # ...unless every run of the change beats every run of the parent:
    # then it is no regression, and still no gain inside that spread.
    s = summarize(down, noisy, [9.0] * 10)
    assert s["verdict"] == "within bound" and s["won"] == 10, s
    s = summarize(up, parent[:5], [p * 2.2 for p in parent[:5]])
    assert s["verdict"] == "better, but a claim needs 10 pairs", s
    # Faster while failing more is no gain; it is no regression either.
    s = summarize(up, parent, [p * 2.2 for p in parent], fails_more=True)
    assert s["verdict"].startswith("better, but no gain") and s["won"] == 10, s
    s = summarize(up, parent, [p * 0.7 for p in parent], fails_more=True)
    assert s["verdict"] == "REGRESSION", s
    # Simulated values compare by bits, across sides and across runs.
    s = summarize(sim, [26105514.644290507] * 3, [26105514.644290507] * 3)
    assert s["verdict"] == "bit-identical", s
    s = summarize(sim, [26105514.644290507] * 3, [26105514.644290507, 26105514.644290507, 26105514.64429051])
    assert s["verdict"] == "DIFFERS", s
    s = summarize(sim, [1.0, 2.0], [1.0, 2.0])
    assert s["verdict"] == "DIFFERS", "a simulated value must repeat on one side too"

    def run(host, failed=0, ok=True):
        return {"correct": ok, "attempted": 100, "failed": failed,
                "metrics": {"host_msgs_per_s": host, "sim_msgs_per_s": 5.0}}
    assert health([run(1.0, failed=3), run(1.0, ok=False)]) == (0.015, 1)
    text = render("domain-fabric", 7, [up, sim], {"parent": [run(50.0), run(52.0)], "change": [run(99.0), run(98.0)]})
    for needle in ("workload domain-fabric, seed 7, 2 pairs", "pair  1 (parent first)", "pair  2 (change first)",
                   "change won 2/2 (lost 0): better, but a claim needs 10 pairs", "bit-identical",
                   "parent: 0 of 200 operations failed, 0 run(s)", "change: 0 of 200 operations failed, 0 run(s)"):
        assert needle in text, f"{needle!r} missing from:\n{text}"
    # The report's verdict sees the failures, not only its last lines:
    # a larger failed share, or one run failing its checks, bars the gain;
    # failing no more than the parent does not.
    ten = {"parent": [run(p, failed=1) for p in parent], "change": [run(p * 2.2, failed=1) for p in parent]}
    assert "(lost 0): gain" in render("domain-fabric", 1, [up], ten)
    for spoiled in (run(110.0, failed=2), run(110.0, failed=1, ok=False)):
        text = render("domain-fabric", 1, [up], {**ten, "change": ten["change"][:9] + [spoiled]})
        assert "(lost 0): better, but no gain" in text and "(lost 0): gain" not in text, text
    print("bench_pairs self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(self_test() if sys.argv[1:] == ["--self-test"] else main(sys.argv[1:]))
