"""treesec benchmark: one command per workload, every output checked.

    python3 perfbench/run.py --workload {normalize,big-trees,census} --seed N --seconds S --trace {0,1} [--toy]

Every workload is a closed loop with one client, one operation at a time,
over a fixed list of operations sized by ``--seconds``.  Times are read at
the reference speed of pace.py; the wall-clock figures are printed beside
them.  With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` a
traced run prints the per-layer metrics, each layer's self time and the
tracing overhead, and writes its spans under ``perfbench/out/``.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--toy`` shrinks every input for the smoke run.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import time
from collections import Counter

import census
from pace import Pacer, pin
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5  # set-up runs in fresh processes; setup_s is their median
CENSUS_MIN_CYCLES = 4  # 16 processes: the tail needs ten samples above it, and
# with 12 it would be the second-fastest of all, a noisy order statistic
CENSUS_CYCLE_S = 9.0  # nominal reference seconds of one cycle of the commands
CENSUS_PROBES = 4  # probes before each CLI process, which runs for seconds
STARTUP_RUNS = 5

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
CLI_COMMANDS = [cmd.name for cmd in census.commands(toy=False)]
RULES = (
    "switch_disjoint",
    "switch_nested_high_sibling",
    "switch_nested_low_sibling",
    "spine_reinsert",
    "hoist_min_saturated",
)
LAYERS = ("trees", "rewrites", "exhaustive", "cli", "bench")
PER_LAYER = (
    [
        (f"trees.{call}.s", "s")
        for call in (
            "parse",
            "serialize",
            "serialize_canonical",
            "canonical_form",
            "json_encode",
            "json_decode",
            "security",
            "partition_vector",
        )
    ]
    + [
        ("trees.serialize_canonical.peak_mb", "MB"),
        ("trees.canonical_form.peak_mb", "MB"),
        ("trees.json.failures", "count"),
        ("rewrites.normalize.s", "s"),
        ("rewrites.normalize.peak_mb", "MB"),
        ("rewrites.steps", "count"),
    ]
    + [(f"rewrites.steps.{rule}", "count") for rule in RULES]
    + [("rewrites.security_gain", "count")]
    + [(f"builders.{family}.s", "s") for family in ("power_spine", "caterpillar", "almost_complete")]
    + [
        (f"exhaustive.{call}.s", "s")
        for call in ("census_table", "count_shapes", "enumerate_shapes", "brute_force_max_root_rank")
    ]
    + [("exhaustive.peak_mb", "MB"), ("exhaustive.shapes", "count"), ("cli.startup_ms", "ms")]
    + [(f"cli.{cmd}.s", "s") for cmd in CLI_COMMANDS]
    + [(f"cli.{cmd}.rss_mb", "MB") for cmd in CLI_COMMANDS]
    + [("cli.exit_nonzero", "count")]
    + [(f"self.{layer}.s", "s/op") for layer in LAYERS]
    + [("trace.overhead", "ratio")]
)


def latency_summary(samples):
    """Median and tail latency of ``(seconds, failed, ...)`` samples.  A
    failed op sorts above every success.  The tail is the highest percentile
    with at least ten samples beyond it: the (n-10)-th of n ordered samples."""
    ordered = [s[0] for s in sorted(samples, key=lambda s: (s[1], s[0]))]
    n = len(ordered)
    mid = n // 2
    p50 = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    if n > 10:
        return p50, ordered[n - 11], 100.0 * (n - 10) / n
    return p50, ordered[-1], 100.0  # too few samples for a tail: the maximum


def spawn_worker(args, *extra):
    """Run worker.py to completion; return its JSON result and peak RSS."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, "--seed", str(args.seed)]
    argv += ["--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.toy:
        argv.append("--toy")
    child = census.run_child(argv)
    if child.code != 0:
        sys.stderr.write(child.err)
        raise SystemExit(f"perfbench: worker exited with {child.code}")
    return json.loads(child.out.strip().splitlines()[-1]), child.rss_mb


def setup_seconds(args, first=()):
    """Median set-up time over SETUP_REPEATS fresh worker processes."""
    runs = list(first)
    while len(runs) < SETUP_REPEATS:
        runs.append(spawn_worker(args, "--setup-only")[0]["setup_s"])
    return statistics.median(runs)


def describe_failures(failures):
    return ", ".join(f"{cls}: {n}" for cls, n in sorted(failures.items())) or "none"


def print_error_rate(samples, failures):
    failed = sum(1 for s in samples if s[1])
    rate = failed / len(samples)
    print(f"{'error_rate':16} = {rate:.6g} ratio  ({failed}/{len(samples)}; {describe_failures(failures)})")


def report_end_to_end(samples, failures, setup_s, rss_mb):
    """``samples`` are ``(reference seconds, failed, wall seconds)``."""
    attempted = len(samples)
    failed = sum(1 for s in samples if s[1])
    busy = sum(s[0] for s in samples)
    p50, tail, pct = latency_summary(samples)
    wall = [(w, f) for _, f, w in samples]
    wall_p50, wall_tail, _ = latency_summary(wall)
    wall_ops = (attempted - failed) / sum(w for w, _ in wall)
    values = {
        "ops_per_s": (attempted - failed) / busy,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    notes = {
        "latency_tail_ms": f"p{pct:.1f} of {attempted} samples",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "ops_per_s": "correct ops per busy second, closed loop, one client",
    }
    for name, unit in END_TO_END:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:16} = {values[name]:.6g} {unit}{note}")
    print(
        f"{'wall clock':16} : ops_per_s {wall_ops:.6g}, latency_p50_ms {wall_p50 * 1e3:.6g},"
        f" latency_tail_ms {wall_tail * 1e3:.6g} (wall / reference time {sum(w for w, _ in wall) / busy:.3f})"
    )
    print_error_rate(samples, failures)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report_per_layer(layer, samples, failures):
    """Print the self-time breakdown and return every per-layer metric;
    metrics of layers this workload does not call read 0."""
    values = {name: 0 for name, _ in PER_LAYER}
    selfs = layer.pop("self")
    errors = layer.pop("errors", {})
    values.update({k: v for k, v in layer.items() if k in values})
    values.update({f"self.{lay}.s": s for lay, s in selfs.items() if f"self.{lay}.s" in values})
    total = sum(selfs.values())
    print("self time per traced op, by layer:")
    for lay, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {lay:12} {s * 1e3:10.3f} ms  {100 * s / total:5.1f} %")
    print(f"tracing overhead = {values['trace.overhead']:+.2%} (traced vs untraced ops on the same inputs)")
    print_error_rate(samples, failures)
    if errors:
        print("exceptions in the count pass, by span: " + describe_failures(errors))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def run_in_process(args):
    extra = []
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        extra = ["--spans-out", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    res, rss_mb = spawn_worker(args, *extra)
    samples = [(dt, failed, wall) for dt, failed, _, wall in res["samples"]]
    failures = Counter(res["failures"])
    if args.trace:
        metrics = report_per_layer(res["layer"], samples, failures)
    else:
        metrics = report_end_to_end(samples, failures, setup_seconds(args, [res["setup_s"]]), rss_mb)
    return res["wrong"] == 0, samples, metrics


def cli_op(cmd):
    """One census op: a cold CLI process.  Returns its seconds, the problem
    (None when the op succeeded), its peak RSS and whether the output was
    wrong (rather than the process failing)."""
    child = census.run_cli(cmd.argv)
    if child.code != 0:
        last = (child.err.strip().splitlines() or [""])[-1]
        return child.seconds, f"exit {child.code}: {last}", child.rss_mb, False
    problem = cmd.check(child.out)
    return child.seconds, problem, child.rss_mb, problem is not None


def run_census(args):
    cmds = census.commands(args.toy)
    samples, failures, wrong = [], Counter(), 0
    if not args.trace:
        setups, timed = [], []
        peak_mb = 0.0
        pacer = Pacer()
        cycles = max(CENSUS_MIN_CYCLES, round(args.seconds / CENSUS_CYCLE_S))
        for k in range(cycles * len(cmds)):
            if k % len(cmds) == 0 and len(setups) < SETUP_REPEATS:
                # set-ups between cycles, so their median spans the run
                setups.append(spawn_worker(args, "--setup-only")[0]["setup_s"])
            cmd = cmds[k % len(cmds)]
            pacer.sample(CENSUS_PROBES)
            t0 = time.perf_counter()
            dt, problem, rss_mb, is_wrong = cli_op(cmd)
            timed.append((t0, dt, problem is not None))
            failures.update([problem] if problem else [])
            wrong += is_wrong
            peak_mb = max(peak_mb, rss_mb)
        pacer.sample()
        samples = [(dt * pacer.scale(t0, t0 + dt), failed, dt) for t0, dt, failed in timed]
        return wrong == 0, samples, report_end_to_end(samples, failures, setup_seconds(args, setups), peak_mb)

    tracer = Tracer()
    layer = Counter()
    plain = traced = 0.0
    pacer = Pacer()
    for k, cmd in enumerate(cmds):
        pacer.due()
        dt, problem, _, is_wrong = cli_op(cmd)
        plain += dt
        samples.append((dt, problem is not None))
        tracer.op = k
        pacer.due()
        t0 = time.perf_counter()
        with tracer.span("bench.op"), tracer.span(f"cli.{cmd.name}"):
            dt, problem2, rss_mb, is_wrong2 = cli_op(cmd)
        traced += time.perf_counter() - t0
        samples.append((dt, problem2 is not None))
        for p, w in ((problem, is_wrong), (problem2, is_wrong2)):
            failures.update([p] if p else [])
            wrong += w
            layer["cli.exit_nonzero"] += bool(p and p.startswith("exit "))
        layer[f"cli.{cmd.name}.rss_mb"] = rss_mb
    startup = []
    for _ in range(STARTUP_RUNS):
        child = census.run_cli(["security", "--tree", "L"])
        startup.append(child.seconds)
        ok = child.code == 0 and child.out == "0\n"
        samples.append((child.seconds, not ok))
        if not ok:
            failures["startup probe failed"] += 1
            wrong += 1
    for k, cmd in enumerate(cmds, len(cmds)):
        pacer.due()
        res, rss_mb = spawn_worker(args, "--probe", cmd.name)
        tracer.extend(res["spans"], k)
        layer["exhaustive.shapes"] += res["shapes"]
        layer["exhaustive.peak_mb"] = max(layer["exhaustive.peak_mb"], rss_mb)
        if res["problem"]:
            failures[f"probe {cmd.name}: {res['problem']}"] += 1
            wrong += 1
    pacer.sample()
    scale = pacer.run_scale()
    layer["cli.startup_ms"] = statistics.median(startup) * 1e3 * scale
    layer.update({name + ".s": s * scale for name, s in tracer.mean_seconds().items()})
    layer["self"] = {lay: s * scale / (2 * len(cmds)) for lay, s in tracer.self_seconds_by_layer().items()}
    layer["trace.overhead"] = traced / plain - 1.0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-census-{args.seed}.jsonl"))
    return wrong == 0, samples, report_per_layer(dict(layer), samples, failures)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["normalize", "big-trees", "census"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke run")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(census.ROOT, "src", "treesec", "__init__.py")):
        print("perfbench: no treesec sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    pin()
    run = run_census if args.workload == "census" else run_in_process
    correct, samples, metrics = run(args)
    result = {
        "correct": correct,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s[1]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
