"""Alternating parent/change pairs of benchmarks/run.py, written as BENCH_<pr>.json.

Run from the root of a checkout, with the change committed:

    python3 scripts/bench_pairs.py --pr 17 --parent HEAD~1

The committed files of the parent revision and of HEAD are each exported
(``git archive``) into a new temporary directory, and every run works in
one of them, so neither side sees uncommitted files or the other side's
benchmarks/out/. For each workload the script makes one untraced seed-1 run
per side, whose digests must agree, then one pair per seed 2-11, the
parent first on odd seeds and the change first on even ones, then one
``--trace 1`` run per side at seed 1. Runs go one at a time. The summary
gives, per workload and end-to-end metric, each side's median,
``change_vs_parent`` (the ratio of medians minus 1), the pairs the change
won (ties count for neither side), and ``parent_iqr``, the distance between
the quartiles of the parent's runs. ``digests_match`` and ``all_correct``
record the two gates; the script exits 1 after writing the file if either
fails. Each run also records what the kernel counted for it (``rusage``:
minor page faults and system and user CPU seconds, the
``getrusage(RUSAGE_CHILDREN)`` deltas around the run), and ``rusage_summary``
gives each side's medians of those per workload, over the same runs as the
summary.
"""
from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(2, 12)  # one parent/change pair per seed
TRACE_METRICS = ("conditioning.sample.self_s", "conditioning.select_focal.s",
                 "inference.self_s", "inference.test.s", "exposure.compute_batch.s",
                 "assignment.draw_batch.s", "stats.ratio_stat_rows.s",
                 "conditioning.accepted", "conditioning.candidates",
                 "conditioning.candidates_per_accept", "trace.op_s")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export(rev: str, dest: Path) -> Path:
    """The committed files of rev, unpacked into the new directory dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def run(side: str, root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmarks/run.py run; its last stdout line is the result, the
    line before it the run's info, which holds the determinism digest."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    info_line, result_line = out.stdout.strip().splitlines()[-2:]
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    print(f"{side:6} {workload} seed={seed} trace={trace} correct={result['correct']} "
          f"op_s_p50={result['metrics'].get('op_s_p50', {}).get('value')}", file=sys.stderr)
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": info.get("digest"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "rusage": {"minflt": after.ru_minflt - before.ru_minflt,
                       "stime_s": after.ru_stime - before.ru_stime,
                       "utime_s": after.ru_utime - before.ru_utime},
            "env": info.get("env")}


def paired_runs(runs: list, workload: str) -> dict:
    """The workload's untraced runs at seeds other than 1, by seed and side."""
    paired = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == 0 and r["seed"] != 1:
            paired.setdefault(r["seed"], {})[r["side"]] = r
    return paired


def summarise(runs: list, workload: str, better: dict) -> dict:
    """Per end-to-end metric: medians, parent IQR and pairs won, over the
    untraced runs at seeds other than 1."""
    paired = {s: {side: r["metrics"] for side, r in sides.items()}
              for s, sides in paired_runs(runs, workload).items()}
    seeds = sorted(s for s, sides in paired.items() if len(sides) == 2)
    out = {}
    for name, direction in better.items():
        parent = [paired[s]["parent"][name] for s in seeds]
        change = [paired[s]["change"][name] for s in seeds]
        wins = sum((c > p) if direction == "higher" else (c < p) for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        pm, cm = statistics.median(parent), statistics.median(change)
        out[name] = {"parent_median": pm, "change_median": cm,
                     "change_vs_parent": cm / pm - 1 if pm else None,
                     "pairs": len(seeds), "change_better_pairs": wins,
                     "parent_iqr": q3 - q1, "parent_runs": parent, "change_runs": change}
    return out


def summarise_rusage(runs: list, workload: str) -> dict:
    """Each side's medians of the kernel's counts, and of the minor faults
    per attempted op, over the runs summarise reads."""
    out = {}
    for side in ("parent", "change"):
        rs = [sides[side] for sides in paired_runs(runs, workload).values() if side in sides]
        out[side] = {k: statistics.median(r["rusage"][k] for r in rs)
                     for k in ("minflt", "stime_s", "utime_s")}
        out[side]["minflt_per_op"] = statistics.median(r["rusage"]["minflt"] / r["attempted"]
                                                       for r in rs)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, help="the parent revision, such as HEAD~1")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    revs = {"parent": args.parent, "change": "HEAD"}
    commits = {s: git("rev-parse", "--short", rev).strip() for s, rev in revs.items()}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    runs, digests_match = [], True
    try:
        sides = {s: export(rev, tmp / s) for s, rev in revs.items()}
        for w in workloads:
            first = [run(s, sides[s], w, 1, seconds, 0) for s in ("parent", "change")]
            runs += first
            if first[0]["digest"] != first[1]["digest"]:
                digests_match = False
                print(f"{w}: seed-1 digests differ: {first[0]['digest']} != "
                      f"{first[1]['digest']}", file=sys.stderr)
            for seed in SEEDS:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                runs += [run(s, sides[s], w, seed, seconds, 0) for s in order]
            runs += [run(s, sides[s], w, 1, seconds, 1) for s in ("parent", "change")]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    all_correct = all(r["correct"] for r in runs)

    env = next((r.pop("env") for r in runs if r.get("env")), None)
    for r in runs:
        r.pop("env", None)
    traced = {w: {r["side"]: {k: r["metrics"][k] for k in TRACE_METRICS if k in r["metrics"]}
                  for r in runs if r["workload"] == w and r["trace"] == 1} for w in workloads}
    doc = {
        "description": (
            f"benchmarks/run.py results, parent ({args.parent}, {commits['parent']}) vs "
            f"change (HEAD, {commits['change']}), each exported with git archive, "
            f"{seconds} s per run, one run at a time. Seed 1 untraced per side checks the "
            f"determinism digests; then one pair per seed {SEEDS[0]}-{SEEDS[-1]}, "
            "the parent first on odd seeds and the change first on even ones; then one "
            "--trace 1 run per side (seed 1). parent_iqr is the distance between the "
            "quartiles of the parent's runs; change_vs_parent is the ratio of medians minus 1; "
            "ties count for neither side in change_better_pairs. rusage_summary holds each "
            "side's medians of the runs' getrusage(RUSAGE_CHILDREN) deltas."),
        "command": "python3 benchmarks/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds} --trace <0|1>",
        "environment": env,
        "digests_match": digests_match,
        "all_correct": all_correct,
        "summary": {w: summarise(runs, w, better) for w in workloads},
        "rusage_summary": {w: summarise_rusage(runs, w) for w in workloads},
        "trace_seed1": {"description": "per-op layer metrics of the one --trace 1 run "
                                       "per side (seed 1)", **traced},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if not (digests_match and all_correct):
        sys.exit(f"gate failed: digests_match={digests_match} all_correct={all_correct}")


if __name__ == "__main__":
    main()
