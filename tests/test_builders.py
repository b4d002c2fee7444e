import hashlib
import random
import tracemalloc

import pytest

from treesec import builders
from treesec import (
    GuardError,
    SizeError,
    all_ranks,
    binary_power_representation,
    build_almost_complete,
    build_almost_complete_stepwise,
    build_binary_caterpillar,
    build_complete_binary,
    build_complete_kary,
    build_power_spine,
    build_starlike,
    classify,
    is_isomorphic,
    max_root_rank_kary,
    parse,
    partition_vector,
    security,
    serialize,
)
from oracles import security_by_distance


def _level_order_parents(tree):
    """The parent array of ``tree`` renumbered in level order, each vertex's
    children taken by increasing id."""
    par = tree._parents
    first = [-1] * len(par)  # first child and next sibling, by increasing id
    nxt = first[:]
    for v in range(len(par) - 1, -1, -1):
        p = par[v]
        if p >= 0:
            nxt[v] = first[p]
            first[p] = v
    order = [tree.root]
    out = [-1]
    for i, v in enumerate(order):  # the i-th vertex of the level order
        c = first[v]
        while c >= 0:
            order.append(c)
            out.append(i)
            c = nxt[c]
    return out


class TestRawIdsPinned:
    """sha256 over every builder's parent array, so that a change to a
    builder cannot renumber a vertex even where the shape stays the same."""

    def test_parent_arrays(self):
        h = hashlib.sha256()

        def feed(tree):
            h.update((" ".join(map(str, tree._parents)) + "\n").encode())

        for height in range(15):
            feed(build_complete_binary(height))
        for leaves in range(1, 2049):
            feed(build_almost_complete(leaves))
            feed(build_almost_complete_stepwise(leaves))
            feed(build_power_spine(leaves))
        for leaves in range(2, 257):
            feed(build_binary_caterpillar(leaves))
        for k in range(2, 6):
            for order in range(1, 301):
                feed(build_complete_kary(order, k))
        for arms in [(1,), (1, 1, 1), (3, 2), (2, 2, 2), (5, 1, 4, 1), (7,)]:
            feed(build_starlike(arms))
        assert h.hexdigest() == (
            "2622420ab24324dbe9fd4cc60bcf2f8e7ee621b5f5e774bbaf031186e59605cf"
        )


class TestBinaryPowerRepresentation:
    @pytest.mark.parametrize("n,rep", [(11, (3, 1, 0)), (8, (3,)), (7, (2, 1, 0))])
    def test_examples(self, n, rep):
        assert binary_power_representation(n) == rep

    def test_zero_rejected(self):
        with pytest.raises(GuardError):
            binary_power_representation(0)

    def test_over_guard(self):
        with pytest.raises(SizeError):
            binary_power_representation((1 << 30) + 1)

    def test_reconstructs_the_integer(self):
        for n in range(1, 2000):
            rep = binary_power_representation(n)
            assert list(rep) == sorted(rep, reverse=True)
            assert sum(1 << e for e in rep) == n


class TestCompleteBinary:
    def test_height_zero(self):
        assert serialize(build_complete_binary(0)) == "L"

    def test_height_two(self):
        assert is_isomorphic(build_complete_binary(2), parse("((LL)(LL))"))

    def test_height_three_security(self):
        t = build_complete_binary(3)
        assert len(t) == 15
        assert security_by_distance(t) == 11

    def test_classified_complete(self):
        for m in range(6):
            assert classify(build_complete_binary(m)).is_complete_binary

    def test_is_the_almost_complete_tree_at_a_power_of_two(self):
        for height in range(17):
            want = build_almost_complete(1 << height)._parents
            assert build_complete_binary(height)._parents == want, height

    def test_guards(self):
        with pytest.raises(SizeError):
            build_complete_binary(26)
        with pytest.raises(GuardError):
            build_complete_binary(-1)


class TestPowerSpine:
    def test_eleven_leaves_structure(self):
        t = build_power_spine(11)
        assert t.leaf_count() == 11
        assert partition_vector(t) == (3, 1, 0)
        # spine of two vertices below the root, blocks of heights 0, 1, 3
        assert serialize(t, canonical=True) == "(L((LL)(((LL)(LL))((LL)(LL)))))"

    def test_power_of_two_is_complete(self):
        assert is_isomorphic(build_power_spine(4), build_complete_binary(2))

    def test_seven_leaves_fixture(self):
        t = build_power_spine(7)
        assert serialize(t, canonical=True) == "(L((LL)((LL)(LL))))"
        assert security(t) == 8

    def test_partition_matches_representation_everywhere(self):
        # full supported test range; also pins leaf counts
        for leaves in range(1, (1 << 12) + 1):
            t = build_power_spine(leaves)
            assert t.leaf_count() == leaves
            assert partition_vector(t) == binary_power_representation(leaves)


class TestAlmostComplete:
    def test_seven_leaves(self):
        t = build_almost_complete(7)
        assert security(t) == 8
        assert is_isomorphic(t, parse("(((LL)(LL))((LL)L))"))

    def test_power_of_two_is_complete(self):
        for m in range(6):
            assert is_isomorphic(build_almost_complete(1 << m), build_complete_binary(m))

    def test_five_leaves(self):
        assert is_isomorphic(build_almost_complete(5), parse("(((LL)L)(LL))"))

    def test_two_leaf_levels_and_one_mixed_vertex(self):
        for leaves in range(1, 300):
            t = build_almost_complete(leaves)
            depths = t.depths()
            h = leaves.bit_length() - 1
            leaf_depths = {depths[v] for v in range(len(t)) if t.is_leaf(v)}
            assert leaf_depths <= {h, h + 1}
            mixed = sum(
                1
                for v in range(len(t))
                if not t.is_leaf(v)
                and len({t.is_leaf(c) for c in t.children(v)}) == 2
            )
            assert mixed <= 1

    def test_leaf_level_accounting(self):
        # the new leaves land one level below the full block, the rest stay
        for leaves in range(2, 600):
            rep = binary_power_representation(leaves)
            deep = sum(1 << (e + 1) for e in rep[1:])
            shallow = (1 << rep[0]) - sum(1 << e for e in rep[1:])
            assert deep + shallow == leaves
            t = build_almost_complete(leaves)
            depths = t.depths()
            by_depth = {}
            for v in range(len(t)):
                if t.is_leaf(v):
                    by_depth[depths[v]] = by_depth.get(depths[v], 0) + 1
            assert by_depth.get(rep[0] + 1, 0) == deep
            assert by_depth.get(rep[0], 0) == shallow

    def test_stepwise_matches_direct_everywhere(self):
        # full supported range; renumbered in level order, the stepwise tree
        # is the direct one vertex for vertex, which implies isomorphism
        for leaves in range(1, (1 << 12) + 1):
            direct = build_almost_complete(leaves)
            stepwise = build_almost_complete_stepwise(leaves)
            assert _level_order_parents(stepwise) == direct._parents, leaves


class TestCaterpillar:
    def test_two_leaves(self):
        assert serialize(build_binary_caterpillar(2)) == "(LL)"

    def test_four_leaves(self):
        t = build_binary_caterpillar(4)
        assert is_isomorphic(t, parse("(L(L(LL)))"))
        assert security(t) == 3

    def test_internal_vertices_carry_leaf_children(self):
        t = build_binary_caterpillar(9)
        internals = [v for v in range(len(t)) if not t.is_leaf(v)]
        without_leaf_child = [
            v for v in internals if not any(t.is_leaf(c) for c in t.children(v))
        ]
        assert without_leaf_child == []

    def test_is_the_spine_of_leaf_blocks(self):
        # the spine builder, one leaf block per path vertex, is the reference
        for leaves in range(2, 301):
            want = builders._spine_parents((0,) * leaves)
            assert build_binary_caterpillar(leaves)._parents == want, leaves

    def test_guard(self):
        with pytest.raises(GuardError):
            build_binary_caterpillar(1)


class TestStarlike:
    def test_star(self):
        t = build_starlike((1, 1, 1))
        assert len(t) == 4
        assert all_ranks(t)[t.root] == 1

    def test_balanced_spider(self):
        t = build_starlike((2, 2, 2))
        assert len(t) == 7
        assert all_ranks(t)[t.root] == 2

    def test_root_rank_is_shortest_arm(self):
        t = build_starlike((3, 2))
        assert all_ranks(t)[t.root] == 2
        rng = random.Random(5)
        for _ in range(20):
            arms = tuple(rng.randrange(1, 9) for _ in range(rng.randrange(1, 6)))
            t = build_starlike(arms)
            assert len(t) == 1 + sum(arms)
            assert t.degree(t.root) == len(arms)
            assert all_ranks(t)[t.root] == min(arms)

    def test_guards(self):
        with pytest.raises(GuardError):
            build_starlike(())
        with pytest.raises(GuardError):
            build_starlike((2, 0))


class TestCompleteKary:
    def test_three_level_ternary(self):
        t = build_complete_kary(13, 3)
        assert all_ranks(t)[t.root] == 2
        assert classify(t).outdegree_sequence == (0,) * 9 + (3,) * 4

    def test_single_vertex(self):
        t = build_complete_kary(1, 2)
        assert serialize(t) == "L" and all_ranks(t)[t.root] == 0

    def test_forty_vertex_ternary_shape(self):
        t = build_complete_kary(40, 3)
        depths = t.depths()
        leaf_depths = sorted({depths[v] for v in range(len(t)) if t.is_leaf(v)})
        assert leaf_depths in ([3], [2, 3], [3, 4])
        assert max(t.degree(v) for v in range(len(t))) <= 3
        mixed = [
            v
            for v in range(len(t))
            if not t.is_leaf(v) and len({t.is_leaf(c) for c in t.children(v)}) == 2
        ]
        assert len(mixed) <= 1

    def test_proper_binary_iff_odd_order(self):
        for n in range(1, 31):
            assert classify(build_complete_kary(n, 2)).is_proper_binary == (n % 2 == 1)

    def test_root_rank_ties_formula_on_feasible_orders(self):
        # n = 1 (mod k): the fill has no residual vertex and attains the bound
        for k in (2, 3, 4):
            for n in range(1, 150):
                if (n - 1) % k:
                    continue
                t = build_complete_kary(n, k)
                assert all_ranks(t)[t.root] == max_root_rank_kary(n, k).value

    def test_huge_arity_costs_nothing(self):
        # no vertex of a 5-vertex tree has more than 4 children, whatever k
        tracemalloc.start()
        try:
            t = build_complete_kary(5, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t._parents == build_complete_kary(5, 4)._parents == [-1, 0, 0, 0, 0]
        assert peak < 1 << 20

    def test_guard(self):
        with pytest.raises(GuardError):
            build_complete_kary(5, 1)
