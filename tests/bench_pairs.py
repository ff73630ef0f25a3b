"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python tests/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        --seconds S --out BENCH_<pr>.json

Pair i runs `perfbench/run.py --workload W --seed 21+i --seconds S --trace 0`
once in each checkout, one after the other; even pairs run the parent first,
odd pairs the change. Each run's `# env` line and JSON result line go into
--out, which keeps the runs of other workloads already in it and replaces
those of W; its summary gives, per end-to-end metric of W, both medians, the
change's relative difference, the pairs the change won, and the distance
between the parent's quartiles. The same summary is printed. Nothing under
either checkout is written. A run whose result is not `correct` keeps its
failed checks in --out; after writing it, the script names each such run
with its pair, side and failed checks and exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 21
SIDES = ("parent", "change")


def label(checkout: Path) -> str:
    """The checkout's commit, marked when its tree has uncommitted changes."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], text=True,
                              capture_output=True).stdout.strip()
    rev = git("rev-parse", "HEAD")
    if not rev:
        return str(checkout)
    return rev + (" with uncommitted changes" if git("status", "--porcelain") else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """(env line, failed checks, result line) of one untraced benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    env = next(line for line in lines if line.startswith("# env "))
    detail = next(line for line in lines if line.startswith("# detail "))
    return env, json.loads(detail[len("# detail "):])["failures"], lines[-1]


def incorrect_runs(runs) -> list:
    """One line per run whose result is not correct: pair, side, seed and
    the checks that failed."""
    return [f"pair {r['pair']} {r['side']} (seed {r['seed']}): "
            + "; ".join(r["failures"] or ["no failed check named"])
            for r in runs if not json.loads(r["result"])["correct"]]


def summarize(runs, end_to_end) -> dict:
    """Per-metric comparison of the runs of one workload, paired by `pair`."""
    results = {(r["pair"], r["side"]): json.loads(r["result"]) for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    out = {"pairs": len(pairs),
           "failed": {side: sum(results[p, side]["failed"] for p in pairs) for side in SIDES}}
    for spec in end_to_end:
        name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
        if name not in results[pairs[0], "parent"]["metrics"]:
            continue
        value = {side: [results[p, side]["metrics"][name]["value"] for p in pairs]
                 for side in SIDES}
        parent_median = statistics.median(value["parent"])
        change_median = statistics.median(value["change"])
        q1, _, q3 = (statistics.quantiles(value["parent"], n=4, method="inclusive")
                     if len(pairs) > 1 else (parent_median,) * 3)
        diffs = [sign * (c - p) for p, c in zip(value["parent"], value["change"])]
        out[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "change_vs_parent": (change_median - parent_median) / parent_median
            if parent_median else 0.0,
            "parent_quartile_distance": q3 - q1,
            "change_wins": sum(d > 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs),
            "bound": spec["bound"],
        }
    return out


def report(workload: str, summary: dict) -> None:
    print(f"{workload}: {summary['pairs']} pairs, failed checks "
          f"parent {summary['failed']['parent']}, change {summary['failed']['change']}")
    for name, m in summary.items():
        if isinstance(m, dict) and "parent_median" in m:
            print(f"  {name}: parent {m['parent_median']:.6g}, change {m['change_median']:.6g}"
                  f" ({m['change_vs_parent']:+.1%}); change won {m['change_wins']}"
                  f"/{summary['pairs']} ({m['ties']} ties); parent quartile distance"
                  f" {m['parent_quartile_distance']:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())

    runs = []
    for pair in range(args.pairs):
        seed = FIRST_SEED + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            env, failures, result = run_once(dirs[side], args.workload, seed, args.seconds)
            runs.append({"workload": args.workload, "seed": seed, "trace": 0,
                         "side": side, "pair": pair, "first": order[0],
                         "env": env, "result": result, "failures": failures})
            print(f"pair {pair} {side}: {result}", file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    env = json.loads(runs[0]["env"][len("# env "):])
    doc.update({
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                   " --trace 0",
        "parent": label(dirs["parent"]),
        "change": label(dirs["change"]),
        "machine": f"{env['nproc']} CPUs, Python {env['python']}, numpy {env['numpy']}, "
                   f"{env['blas']}",
        "order": "pairs alternate which side runs first; runs are sequential",
        "runs": [r for r in doc.get("runs", []) if r["workload"] != args.workload] + runs,
    })
    summary = summarize(runs, spec["end_to_end"])
    doc["summary"] = {**doc.get("summary", {}), args.workload: summary}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    report(args.workload, summary)
    incorrect = incorrect_runs(runs)
    if incorrect:
        print(f"{len(incorrect)} incorrect runs:", *incorrect, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
