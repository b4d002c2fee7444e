"""Toy-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload, untraced and traced, on tiny inputs and checks that
each run exits 0 and ends in the result line with every metric named in
BENCHMARK.json, with its unit.  It also checks that a traced run's exact
counts repeat for the same seed, and that the benchmark refuses to run
without the treesec sources.  Not part of the test suite; it takes about
20 s.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("rewrites.steps", "rewrites.security_gain", "exhaustive.shapes", "trees.json.failures")


def run(workload, trace, seed=1, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, spec["per_layer"])):
            proc = run(wl, trace)
            tag = f"{wl} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in EXACT if k in result["metrics"]})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{wl}: exact counts differ between two traced runs: {counts}")

    # Without the sources next to it the benchmark must fail without a result.
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("normalize", 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("bare checkout: the benchmark did not refuse to run")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
