"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its measured runtime (run with ``pytest -v -s`` to see the lines).

Every numeric check here is exact; the time tolerances are asserted as
stated by the criteria.
"""

import random
import time
from contextlib import contextmanager

from treesec import (
    GuardError,
    SwitchContext,
    binary_power_representation,
    brute_force_extremes,
    brute_force_max_root_rank,
    build_almost_complete,
    build_power_spine,
    classify,
    count_shapes,
    enumerate_shapes,
    flip_adjacent,
    max_root_rank_general,
    max_root_rank_kary,
    max_root_rank_starlike,
    max_security,
    normalize_to_power_spine,
    parse,
    protected_count,
    reroot_at_vertex,
    security,
    serialize,
    spine_reinsert,
    switch_disjoint,
    switch_nested_high_sibling,
    switch_nested_low_sibling,
)
from treesec.cli import main
from oracles import (
    equal_rank_saturated_pairs,
    random_kary,
    random_proper_binary,
    wedderburn_etherington,
)

FIG_TREE = "((L(LL))(L((LL)(LL))))"
PARTITION_PAIR = [
    "(((((LL)(LL))(LL))((LL)(LL)))L)",
    "(((((LL)(LL))(LL))L)((LL)(LL)))",
]

SWITCH_OPS = (
    switch_disjoint,
    switch_nested_high_sibling,
    switch_nested_low_sibling,
    spine_reinsert,
)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL ({elapsed:8.3f}s): {label}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS ({elapsed:8.3f}s): {label}", flush=True)


def test_criterion_01_figure_regression():
    with criterion(1, "fixed 15-vertex tree: security 9, 7 and 2 protected"):
        security(parse("(L(LL))"))  # warm-up, steady-state timing
        start = time.perf_counter()
        tree = parse(FIG_TREE)
        assert security(tree) == 9
        assert protected_count(tree, 1) == 7
        assert protected_count(tree, 2) == 2
        assert time.perf_counter() - start < 1e-3


def test_criterion_02_seven_leaf_census():
    with criterion(2, "7 leaves: 11 shapes, max security 8, 4 maximizers"):
        start = time.perf_counter()
        census = brute_force_extremes(7)
        assert census.total_shapes == 11 == wedderburn_etherington(7)
        assert census.max_security == 8
        assert census.maximizer_count == 4
        assert time.perf_counter() - start < 1.0


def test_criterion_03_maximum_formula_vs_oracle():
    with criterion(3, "closed-form maximum = exhaustive oracle, 3..20 leaves"):
        start = time.perf_counter()
        for leaves in range(3, 15):
            census = brute_force_extremes(leaves)
            assert census.max_security == max_security(leaves), leaves
            assert census.total_shapes == wedderburn_etherington(leaves)
        assert time.perf_counter() - start < 1.0
        for leaves in range(15, 21):
            census = brute_force_extremes(leaves)
            assert census.max_security == max_security(leaves), leaves
            assert census.total_shapes == wedderburn_etherington(leaves)
        assert time.perf_counter() - start < 300.0


def test_criterion_04_construction_equivalence():
    with criterion(4, "both constructions hit 2l - n1 - k - 1 up to 2^12 leaves"):
        start = time.perf_counter()
        for leaves in range(1, (1 << 12) + 1):
            rep = binary_power_representation(leaves)
            closed = 2 * leaves - rep[0] - len(rep) - 1
            assert security(build_power_spine(leaves)) == closed, leaves
            assert security(build_almost_complete(leaves)) == closed, leaves
        assert time.perf_counter() - start < 10.0


def test_criterion_05_partition_pair_regression():
    with criterion(5, "fixed shared-partition trees score 15 and 14"):
        left, right = (parse(s) for s in PARTITION_PAIR)
        assert security(left) == 15
        assert security(right) == 14


def test_criterion_06_switch_monotonicity():
    with criterion(6, "switches never lower security; reshuffles preserve it"):
        # exhaustive scan of every guard-satisfying context, up to 10 leaves
        applications = 0
        for leaves in range(2, 11):
            for tree in enumerate_shapes(leaves):
                before = security(tree)
                for u, w in equal_rank_saturated_pairs(tree):
                    ctx = SwitchContext.for_pair(tree, u, w)
                    for op in SWITCH_OPS:
                        try:
                            result = op(tree, ctx)
                        except GuardError:
                            continue
                        applications += 1
                        assert security(result) >= before, (leaves, op.__name__)
                        assert result.leaf_count() == leaves
                        assert len(result) == len(tree)
        assert applications > 0

        # random larger instances
        rng = random.Random(0x5EC)
        applied = 0
        while applied < 10_000:
            tree = random_proper_binary(rng.randrange(2, 65), rng)
            pairs = equal_rank_saturated_pairs(tree)
            if not pairs:
                continue
            u, w = pairs[rng.randrange(len(pairs))]
            ctx = SwitchContext.for_pair(tree, u, w)
            before = security(tree)
            for op in SWITCH_OPS:
                try:
                    result = op(tree, ctx)
                except GuardError:
                    continue
                applied += 1
                assert security(result) >= before, op.__name__
                break

        # security-preserving reshuffles: exact equality
        rng = random.Random(0xF11)
        checked = 0
        while checked < 1_000:
            leaves = rng.randrange(8, 1025)
            rep = binary_power_representation(leaves)
            k = len(rep)
            slots = [i for i in range(2, k) if rep[i - 1] == rep[i] + 1]
            if not slots:
                continue
            spine = build_power_spine(leaves)
            flipped = flip_adjacent(
                spine, slots[rng.randrange(len(slots))], rng.randrange(1, 3)
            )
            assert security(flipped) == security(spine) == max_security(leaves)
            checked += 1


def test_criterion_07_normalization():
    with criterion(7, "every shape up to 12 leaves normalizes to the maximum"):
        start = time.perf_counter()
        for leaves in range(1, 13):
            target = build_power_spine(leaves)
            target_canon = serialize(target, canonical=True)
            best = max_security(leaves)
            for tree in enumerate_shapes(leaves):
                result, trace = normalize_to_power_spine(tree)
                assert serialize(result, canonical=True) == target_canon
                assert security(result) == best
                for step in trace.steps:
                    assert step.security_after >= step.security_before
                if trace.steps:
                    assert trace.steps[0].security_before == security(tree)
                    assert trace.steps[-1].security_after == best
        assert time.perf_counter() - start < 120.0


def test_criterion_08_root_rank_bounds():
    with criterion(8, "root-rank maxima match all closed forms"):
        start = time.perf_counter()
        # unrestricted trees: the path bound, and roots realize the max rank
        for n in range(1, 12):
            got = brute_force_max_root_rank(n)
            assert got.max_root_rank == n - 1 == max_root_rank_general(n).value
            assert got.max_vertex_rank == got.max_root_rank
        # fixed root degree
        for k in range(1, 5):
            for n in range(k + 1, 12):
                got = brute_force_max_root_rank(n, root_degree=k)
                assert got.max_root_rank == (n - 1) // k
                assert got.max_root_rank == max_root_rank_starlike(n, k).value
        # arity-exact trees: the logarithmic bound, on feasible orders
        for k, n_max in ((2, 14), (3, 12)):
            for n in range(1, n_max + 1):
                if (n - 1) % k:
                    continue
                got = brute_force_max_root_rank(n, k=k, proper=True)
                want = max_root_rank_kary(n, k).value
                assert got.max_root_rank == want
                assert got.max_vertex_rank == want
                h = want + 1
                assert (k**h - 1) // (k - 1) <= n < (k ** (h + 1) - 1) // (k - 1)
        # bounded-arity classes also realize their max rank at a root
        for k, n_max in ((2, 14), (3, 12)):
            for n in range(1, n_max + 1):
                got = brute_force_max_root_rank(n, k=k)
                assert got.max_vertex_rank == got.max_root_rank
        assert time.perf_counter() - start < 300.0


def test_criterion_09_outdegree_preservation():
    with criterion(9, "degree-preserving rerooting keeps the outdegree multiset"):
        rng = random.Random(0xDE6)
        for _ in range(1_000):
            k = rng.randrange(2, 5)
            tree = random_kary(rng.randrange(2, 41), k, rng)
            v = rng.randrange(1, len(tree))
            rerooted = reroot_at_vertex(tree, v, mode="degree_preserving")
            assert (
                classify(rerooted).outdegree_sequence
                == classify(tree).outdegree_sequence
            )


def test_criterion_10_census_artifact(capsys):
    with criterion(10, "census table emits exact fractions; 7-leaf row is 4/11"):
        code = main(["table", "--max-leaves", "16"])
        out = capsys.readouterr().out
        with capsys.disabled():
            assert code == 0
            assert "." not in out
            lines = out.strip().split("\n")
            assert lines[0] == "leaves\tshapes\tmax_security\tmaximizers\tfraction"
            assert len(lines) == 17
            for line in lines[1:]:
                leaves, shapes, max_sec, maximizers, fraction = line.split("\t")
                num, den = (int(x) for x in fraction.split("/"))
                assert num == int(maximizers) >= 1
                assert den == int(shapes) == count_shapes(int(leaves))
                assert 0 < num <= den
            assert lines[7] == "7\t11\t8\t4\t4/11"
