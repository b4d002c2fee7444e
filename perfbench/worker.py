"""One worker process of the benchmark.

    python3 perfbench/worker.py {normalize,big-trees} --seed N --seconds S --trace {0,1} [--toy] [--setup-only]
    python3 perfbench/worker.py census --seed N --setup-only [--toy]
    python3 perfbench/worker.py census --probe {table,verify,enumerate-count,enumerate-list} [--toy]

The in-process workloads set up (import treesec, generate the seeded tree
texts, compute golden values), then run a closed loop with one client over a
fixed list of operations, sized by ``--seconds`` so that it takes about that
long at the reference speed (see pace.py).  The work of a run depends only
on its arguments, so the same arguments fail the same operations.  The last
line of stdout is one JSON object.
"""

import argparse
import json
import os
import random
import sys
import time
import tracemalloc
from collections import Counter, namedtuple

import census
import oracle
from pace import Pacer
from run import RULES
from spans import NullTracer, Tracer

sys.path.insert(0, os.path.join(census.ROOT, "src"))

# By --toy: leaf count, nominal reference seconds of one unit of work (one
# op of normalize, one pass over the inputs of big-trees), the least number
# of units, and the inputs of the count pass (the first traced pass over
# that many inputs, whose counts are exact).  A run does
# max(least, round(--seconds / nominal)) units; a traced run half as many,
# each twice.
Size = namedtuple("Size", "leaves unit_s least count_items")
SIZES = {
    False: {"normalize": Size(300, 0.4, 24, 8), "big-trees": Size(8192, 2.25, 2, 14)},
    True: {"normalize": Size(24, 0.01, 6, 4), "big-trees": Size(600, 0.05, 2, 11)},
}
# json.dumps raises RecursionError on trees deeper than about 480 at the
# seed.  Grown inputs take target depths 32 * sqrt(2)**k below this band and
# 1024 * 2**k above it, never inside, so each input fails or passes whatever
# the seed and every run with the same arguments fails as many operations.
# About a third of the inputs are above it, as with depths spread evenly on
# a log scale from logarithmic to the caterpillar.
JSON_LIMIT_BAND = (400, 1000)
MEMORY_PASS_ITEMS = 2  # inputs run again under tracemalloc in a traced run


def _import_treesec():
    global builders, exhaustive, formulas, rewrites, trees
    from treesec import builders, exhaustive, formulas, rewrites, trees


class Normalize:
    """Random proper binary trees grown by expanding uniformly random leaves;
    one op rewrites one of them into the power spine."""

    peak_names = ("trees.canonical_form", "rewrites.normalize", "trees.serialize_canonical")

    def __init__(self, rng, leaves, units, tracer):
        self.items = [oracle.grow_proper_binary(rng, leaves) for _ in range(units)]
        self.order = list(range(units))
        self.start_security = [oracle.analyze(t).security for t in self.items]
        with tracer.span("builders.power_spine"):
            spine = builders.build_power_spine(leaves)
        self.golden = trees.serialize(spine, canonical=True)
        self.max_security = formulas.max_security(leaves)
        facts = oracle.analyze(self.golden)
        if facts.leaves != leaves or not facts.security == self.max_security == oracle.max_security(leaves):
            raise SystemExit("perfbench: the power spine disagrees with the closed form")

    def op(self, tracer, i):
        with tracer.span("trees.parse"):
            tree = trees.parse(self.items[i])
        with tracer.span("trees.canonical_form"):
            tree = trees.canonical_form(tree)
        with tracer.span("rewrites.normalize"):
            result, trace = rewrites.normalize_to_power_spine(tree)
        with tracer.span("trees.serialize_canonical"):
            text = trees.serialize(result, canonical=True)
        return text, trace

    def check(self, i, result):
        text, trace = result
        if text != self.golden:
            return "normal form is not the power spine"
        sec = self.start_security[i]
        for step in trace.steps:
            if step.security_before != sec:
                return "trace security chain broken"
            if step.security_after < step.security_before:
                return "trace security decreased"
            sec = step.security_after
        if sec != self.max_security:
            return "final security is not the maximum"
        return None

    def count(self, result, counts):
        for step in result[1].steps:
            counts["rewrites.steps"] += 1
            counts["rewrites.steps." + step.rule] += 1
            counts["rewrites.security_gain"] += step.security_after - step.security_before


class BigTrees:
    """Large proper binary trees whose depths run from logarithmic to the
    caterpillar; one op measures one tree and round-trips it through text
    and JSON.  The inputs are the builders' almost complete tree, their
    caterpillar and its mirror image, and one grown tree per depth of
    ``target_depths``; a run passes over them in turn."""

    peak_names = ("trees.serialize_canonical",)

    def __init__(self, rng, leaves, units, tracer):
        with tracer.span("builders.caterpillar"):
            deepest = builders.build_binary_caterpillar(leaves)
        with tracer.span("builders.almost_complete"):
            shallowest = builders.build_almost_complete(leaves)
        caterpillar = trees.serialize(deepest)
        self.items = [caterpillar, trees.serialize(shallowest), oracle.mirror(caterpillar)]
        self.items += [oracle.grow_proper_binary(rng, leaves, d / leaves) for d in target_depths(leaves)]
        self.facts = [oracle.analyze(t) for t in self.items]
        if self.facts[0].depth != leaves - 1 or self.facts[2].canonical != self.facts[0].canonical or not (
            self.facts[1].security == formulas.max_security(leaves) == oracle.max_security(leaves)
        ):
            raise SystemExit("perfbench: the built caterpillar or almost complete tree is wrong")
        self.order = list(range(len(self.items))) * units

    def op(self, tracer, i):
        with tracer.span("trees.parse"):
            tree = trees.parse(self.items[i])
        with tracer.span("trees.security"):
            sec = trees.security(tree)
        with tracer.span("trees.partition_vector"):
            part = trees.partition_vector(tree)
        with tracer.span("trees.serialize"):
            plain = trees.serialize(tree)
        with tracer.span("trees.serialize_canonical"):
            canon = trees.serialize(tree, canonical=True)
        with tracer.span("trees.json_encode"):
            doc = json.dumps(trees.tree_to_json(tree))
        with tracer.span("trees.json_decode"):
            back = trees.tree_from_json(json.loads(doc))
        with tracer.span("trees.serialize_canonical"):
            canon_back = trees.serialize(back, canonical=True)
        return sec, part, plain, canon, canon_back

    def check(self, i, result):
        sec, part, plain, canon, canon_back = result
        facts = self.facts[i]
        if sec != facts.security:
            return "security differs from the benchmark's rank pass"
        if sum(1 << m for m in part) != facts.leaves or part != facts.partition:
            return "partition vector wrong"
        if plain != self.items[i]:
            return "text round trip changed the tree"
        if canon != facts.canonical:
            return "canonical text wrong"
        if canon_back != facts.canonical:
            return "JSON round trip changed the canonical text"
        return None

    def count(self, result, counts):
        pass


WORKLOADS = {"normalize": Normalize, "big-trees": BigTrees}


def target_depths(leaves):
    """Depths 32 * sqrt(2)**k below ``JSON_LIMIT_BAND`` and 1024 * 2**k
    above it, short of the caterpillar's."""
    low, high = JSON_LIMIT_BAND
    out = [d for k in range(16) if (d := round(32 * 2 ** (k / 2))) < min(low, leaves - 1)]
    out += [d for k in range(16) if high < (d := 1024 * 2**k) < leaves - 1]
    return out


def closed_loop(wl, tracers, count_items, pacer):
    """Run ops one at a time over the input indices in ``wl.order``; with two
    tracers each input runs once untraced and once traced, in alternating
    order.  Samples are (reference seconds, failed, traced, wall seconds)."""
    timed = []  # (start, wall seconds, failed, traced)
    failures = Counter()
    wrong = 0
    counts = Counter()
    n = len(tracers)
    for k in range(n * len(wl.order)):
        pair, slot = divmod(k, n)
        i = wl.order[pair]
        tracer = tracers[(slot + pair) % n]
        tracer.op = k
        counted = isinstance(tracer, Tracer) and pair < count_items
        problem = None
        pacer.due()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op"):
                result = wl.op(tracer, i)
        except Exception as e:  # an op that raises is a failed op; the run goes on
            dt = time.perf_counter() - t0
            problem = type(e).__name__
            if counted:
                counts["errors." + tracer.failed.get(k, "bench.op") + "." + problem] += 1
        else:
            dt = time.perf_counter() - t0
            problem = wl.check(i, result)
            if problem is not None:
                wrong += 1
            elif counted:
                wl.count(result, counts)
        if problem is not None:
            failures[problem] += 1
        timed.append((t0, dt, problem is not None, isinstance(tracer, Tracer)))
    pacer.sample()
    samples = [(dt * pacer.scale(t0, t0 + dt), failed, traced, dt) for t0, dt, failed, traced in timed]
    return samples, failures, wrong, counts


def memory_pass(wl):
    """Peak traced memory of the named calls over the first inputs."""
    tracer = Tracer(peak_names=wl.peak_names)
    tracemalloc.start()
    try:
        for i in range(MEMORY_PASS_ITEMS):
            try:
                wl.op(tracer, i)
            except Exception:  # failures are counted by the timed passes
                pass
    finally:
        tracemalloc.stop()
    return {name + ".peak_mb": mb for name, mb in tracer.peaks_mb.items()}


def run_in_process(args):
    size = SIZES[args.toy][args.workload]
    units = max(size.least, round(args.seconds / size.unit_s))
    if args.trace:
        units = max(size.least // 2, units // 2)
    tracer = Tracer() if args.trace else NullTracer()
    pacer = Pacer()
    t0 = time.perf_counter()
    _import_treesec()
    wl = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), size.leaves, units, tracer)
    setup_wall = time.perf_counter() - t0
    pacer.sample()
    setup_s = setup_wall * pacer.scale(t0, t0 + setup_wall)
    if args.setup_only:
        return {"setup_s": setup_s}
    tracers = [NullTracer(), tracer] if args.trace else [tracer]
    samples, failures, wrong, counts = closed_loop(wl, tracers, size.count_items, pacer)
    out = {"setup_s": setup_s, "samples": samples, "failures": failures, "wrong": wrong}
    if args.trace:
        out["layer"] = layer_metrics(wl, tracer, samples, counts, pacer.run_scale())
        tracer.write(args.spans_out)
    return out


def layer_metrics(wl, tracer, samples, counts, scale):
    """Per-layer numbers of a traced run: exact counts from the count pass,
    mean seconds per call, tracemalloc peaks, self time per layer per traced
    op, and the tracing overhead against the paired untraced ops.  Times
    are wall times times ``scale``, the run's factor to reference time."""
    out = {key: counts[key] for key in ("rewrites.steps", "rewrites.security_gain")}
    out.update({"rewrites.steps." + rule: counts["rewrites.steps." + rule] for rule in RULES})
    json_spans = ("errors.trees.json_encode.", "errors.trees.json_decode.")
    out["trees.json.failures"] = sum(n for key, n in counts.items() if key.startswith(json_spans))
    out["errors"] = {key[len("errors."):]: n for key, n in counts.items() if key.startswith("errors.")}
    out.update({name + ".s": s * scale for name, s in tracer.mean_seconds().items()})
    out.update(memory_pass(wl))
    traced = sum(dt for dt, _, t, _ in samples if t)
    plain = sum(dt for dt, _, t, _ in samples if not t)
    ops = sum(1 for _, _, t, _ in samples if t)
    out["self"] = {layer: s * scale / ops for layer, s in tracer.self_seconds_by_layer().items()}
    out["trace.overhead"] = traced / plain - 1.0
    return out


def census_setup(args):
    """Import what every CLI child imports and compute the golden outputs."""
    pacer = Pacer()
    t0 = time.perf_counter()
    _import_treesec()
    import treesec.cli  # noqa: F401

    census.commands(args.toy)
    if any(formulas.max_security(n) != oracle.max_security(n) for n in range(1, 21)):
        raise SystemExit("perfbench: the closed form of max_security disagrees")
    wall = time.perf_counter() - t0
    pacer.sample()
    return {"setup_s": wall * pacer.scale(t0, t0 + wall)}


def census_probe(args):
    """Time the exhaustive calls behind one census command in this fresh
    process, so the memoized shape tables start cold."""
    _import_treesec()
    spec = {c.name: c for c in census.commands(args.toy)}[args.probe]
    tracer = Tracer()
    tracer.op = 0
    problem = None
    shapes = 0
    with tracer.span("bench.probe"):
        if spec.name == "table":
            with tracer.span("exhaustive.census_table"):
                rows = exhaustive.census_table(spec.size)
            shapes = sum(r.total_shapes for r in rows)
            problem = spec.check(exhaustive.census_tsv(rows))
        elif spec.name == "verify":
            _, (n, k), (sn, sk) = spec.size
            for order in range(1, n + 1):
                if (order - 1) % k:
                    continue
                with tracer.span("exhaustive.brute_force_max_root_rank"):
                    got = exhaustive.brute_force_max_root_rank(order, k=k, proper=True)
                shapes += got.trees_scanned
                if got.max_root_rank != formulas.max_root_rank_kary(order, k).value:
                    problem = f"k-ary root rank wrong at n={order}"
            for order in range(sk + 1, sn + 1):
                with tracer.span("exhaustive.brute_force_max_root_rank"):
                    got = exhaustive.brute_force_max_root_rank(order, root_degree=sk)
                shapes += got.trees_scanned
                if got.max_root_rank != formulas.max_root_rank_starlike(order, sk).value:
                    problem = f"starlike root rank wrong at n={order}"
        elif spec.name == "enumerate-count":
            with tracer.span("exhaustive.count_shapes"):
                shapes = exhaustive.count_shapes(spec.size)
            problem = spec.check(f"{shapes}\n")
        else:
            with tracer.span("exhaustive.enumerate_shapes"):
                shapes_list = list(exhaustive.enumerate_shapes(spec.size))
            lines = []
            for tree in shapes_list:
                with tracer.span("trees.serialize_canonical"):
                    lines.append(trees.serialize(tree, canonical=True))
            shapes = len(lines)
            problem = spec.check("".join(line + "\n" for line in lines))
    return {"spans": tracer.spans, "shapes": shapes, "problem": problem}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("workload", choices=["normalize", "big-trees", "census"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)
    if args.workload == "census":
        out = census_probe(args) if args.probe else census_setup(args)
    else:
        out = run_in_process(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
