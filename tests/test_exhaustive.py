import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from treesec import exhaustive
from treesec import (
    GuardError,
    SizeError,
    brute_force_extremes,
    brute_force_max_root_rank,
    build_almost_complete,
    build_power_spine,
    canonical_form,
    census_table,
    census_tsv,
    classify,
    count_shapes,
    enumerate_kary_trees,
    enumerate_shapes,
    flip_adjacent,
    is_isomorphic,
    max_root_rank_kary,
    max_security,
    maximizer_shapes,
    normalize_to_power_spine,
    parse,
    security,
    serialize,
)
from treesec.builders import binary_power_representation
from treesec.cli import main
from oracles import rank_by_distance, rooted_tree_count, wedderburn_etherington


class TestShapeEnumeration:
    def test_counts_match_the_pairing_recurrence(self):
        for leaves in range(1, 15):
            assert count_shapes(leaves) == wedderburn_etherington(leaves)

    @pytest.mark.parametrize("leaves,count", [(1, 1), (5, 3), (7, 11)])
    def test_fixed_counts(self, leaves, count):
        assert sum(1 for _ in enumerate_shapes(leaves)) == count

    def test_shapes_are_distinct_proper_binary_and_sorted(self):
        for leaves in range(1, 15):
            canons = []
            for t in enumerate_shapes(leaves):
                r = classify(t)
                assert r.is_proper_binary and r.leaf_count == leaves
                canons.append(serialize(t, canonical=True))
                # yielded already in canonical form
                assert serialize(t) == canons[-1]
                assert canonical_form(t)._parents == t._parents
            assert len(set(canons)) == len(canons)
            assert canons == sorted(canons, key=lambda s: s.translate(
                str.maketrans(")L(", "012")))

    def test_size_guard(self):
        with pytest.raises(SizeError):
            count_shapes(23)

    def test_counts_up_to_the_guard(self):
        for leaves in (21, 22):
            assert count_shapes(leaves) == wedderburn_etherington(leaves)


class TestCallScopedTables:
    """Every shape table lives for one call: nothing the call built stays
    allocated once it returns."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: brute_force_extremes(18),
            lambda: list(enumerate_kary_trees(11)),
            lambda: census_table(20),
            lambda: list(maximizer_shapes(18)),
            lambda: list(enumerate_shapes(14)),
        ],
        ids=[
            "brute_force_extremes",
            "enumerate_kary_trees",
            "census_table",
            "maximizer_shapes",
            "enumerate_shapes",
        ],
    )
    def test_no_table_outlives_its_call(self, call):
        tracemalloc.start()
        try:
            call()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20


class TestShapeClasses:
    """The counting recurrence that the census reads, held to the
    enumeration that ``verify`` still measures."""

    @pytest.fixture(scope="class")
    def enumerated(self):
        """``{security: count}`` of every (leaf count, root rank) class to the
        guard, from one build of the security tables, whose groups are
        indexed by root rank; the tables themselves are dropped on return."""
        secs = exhaustive._bshapes(exhaustive.MAX_ENUM_LEAVES)[0]
        return [None] + [[Counter(group) for group in level] for level in secs[1:]]

    def test_recurrence_equals_the_enumeration(self, enumerated):
        top = exhaustive.MAX_ENUM_LEAVES
        assert exhaustive._shape_classes(top) == enumerated

    def test_enumerated_distribution_digest(self, enumerated):
        h = hashlib.sha256()
        for leaves, level in enumerate(enumerated[1:], 1):
            for rank, group in enumerate(level):
                for sec, count in sorted(group.items()):
                    h.update(f"{leaves} {rank} {sec} {count}\n".encode())
        assert leaves == 22
        assert h.hexdigest() == (
            "7222ade403a60b626751715735523c35ada0139184193815f4ed1fb40f33c03f"
        )

    def test_securities_stay_within_a_byte(self):
        # the securities of a shape's pairs are its partners' plus one byte,
        # added by ``bytes.translate``, which wraps past 255 where ``append`` raised:
        # the recurrence bounds every stored security and rank at the guard
        levels = exhaustive._shape_classes(exhaustive.MAX_ENUM_LEAVES)[1:]
        top_rank = max(len(level) - 1 for level in levels)
        top_security = max(max(group, default=0) for level in levels for group in level)
        assert top_security + top_rank < 256  # 36 + 4 at 22 leaves

    def test_census_engines_agree_on_every_row(self):
        # the recurrence and the enumeration, held together on public rows
        top = exhaustive.MAX_ENUM_LEAVES
        rows = [brute_force_extremes(n) for n in range(1, top + 1)]
        assert census_table(top) == rows
        for row in rows:
            assert count_shapes(row.leaf_count) == row.total_shapes, row.leaf_count

    def test_counts_build_no_shape_table(self, monkeypatch):
        def fail(leaves):
            raise AssertionError(f"the {leaves}-leaf shape table was built")

        monkeypatch.setattr(exhaustive, "_bshapes", fail)
        tsv = census_tsv(census_table(20))
        assert hashlib.sha256(tsv.encode()).hexdigest() == (
            "0865136ceed82ffcb2d2623627adfe499f0182d011b9aaa4e3aad99c90f17d3a"
        )
        top = exhaustive.MAX_ENUM_LEAVES
        assert count_shapes(top) == wedderburn_etherington(top)


class TestClassPairs:
    """The one walk that grows every proper binary table: it lays out each
    level before yielding that level's class pairs, and it holds the guard."""

    def test_walk_contract(self):
        top = exhaustive.MAX_ENUM_LEAVES
        table = [None, [0]]
        seen, made = set(), set()
        for n, a, rx, b, ry, rank in exhaustive._class_pairs(top, table):
            assert len(table) == n + 1 and table[n][0] == 0
            assert len(table[n]) == n.bit_length()
            assert a <= b == n - a and (a < b or rx <= ry)
            assert rank == min(rx, ry) + 1
            assert (n, a, rx, ry) not in seen
            seen.add((n, a, rx, ry))
            made.add((n, rank))
        assert len(table) == top + 1
        secs = exhaustive._bshapes(top)[0]
        for n in range(2, top + 1):
            for r, group in enumerate(secs[n]):
                assert not group or (n, r) in made, (n, r)

    @pytest.mark.parametrize(
        "leaves, error", [(0, GuardError), (exhaustive.MAX_ENUM_LEAVES + 1, SizeError)]
    )
    def test_guard_runs_before_any_level(self, leaves, error):
        tables = [None, [0]], [None, [bytearray(1)]]
        with pytest.raises(error):
            next(exhaustive._class_pairs(leaves, *tables))
        assert tables == ([None, [0]], [None, [bytearray(1)]])

    @pytest.mark.parametrize(
        "call, walks",
        [
            (lambda: brute_force_extremes(22).maximizer_count == 9, 1),
            (lambda: main(["verify", "--max-leaves", "22"]) == 0, 1),
            # the bytes, whose class bests are read off them, then the
            # best-in-class keys
            (lambda: sum(1 for _ in maximizer_shapes(22)) == 9, 2),
        ],
        ids=["brute_force_extremes", "verify", "maximizer_shapes"],
    )
    def test_class_bests_grow_on_the_bytes_walk(self, monkeypatch, call, walks):
        calls = []
        walk = exhaustive._class_pairs

        def spy(leaves, *tables):
            calls.append(leaves)
            return walk(leaves, *tables)

        monkeypatch.setattr(exhaustive, "_class_pairs", spy)
        assert call()
        assert calls == [22] * walks


class TestBinaryPinned:
    """sha256 over the trees that the binary tables yield, so that a change
    to the binary shape tables or to how a shape becomes a tree cannot
    reorder, drop or renumber one."""

    def test_trees(self):
        h = hashlib.sha256()
        count = 0
        for leaves in range(1, 17):
            for t in enumerate_shapes(leaves):
                h.update(f"{leaves} {t._parents!r}\n".encode())
                count += 1
        for leaves in range(1, 21):
            for t in maximizer_shapes(leaves):
                h.update(f"{leaves} {t._parents!r}\n".encode())
                count += 1
        assert count == 19838
        assert h.hexdigest() == (
            "81d9ac865a69ace3c3a0b830a5fcd2f4f53915d4518e77684b4d2a5aab137a14"
        )


class TestSecurityCensus:
    def test_seven_leaves(self):
        c = brute_force_extremes(7)
        assert (c.total_shapes, c.max_security, c.maximizer_count) == (11, 8, 4)
        assert c.maximizer_fraction == Fraction(4, 11)

    def test_two_leaves(self):
        c = brute_force_extremes(2)
        assert (c.total_shapes, c.max_security, c.maximizer_count) == (1, 1, 1)

    def test_eleven_leaves(self):
        # max cross-checked against the closed form; counts are computed
        # fixtures of this artifact
        c = brute_force_extremes(11)
        assert c.max_security == 15 == max_security(11)
        assert (c.total_shapes, c.maximizer_count) == (207, 9)

    def test_eight_leaves(self):
        from treesec import complete_binary_security

        c = brute_force_extremes(8)
        assert c.max_security == 11 == complete_binary_security(3)
        assert (c.total_shapes, c.maximizer_count) == (23, 1)

    def test_maximizers_are_measured_on_the_enumeration(self, monkeypatch):
        def fail(leaves):
            raise AssertionError("the counting recurrence ran")

        monkeypatch.setattr(exhaustive, "_shape_classes", fail)
        for leaves in range(1, 17):
            best = max_security(leaves)
            expected = [
                serialize(t) for t in enumerate_shapes(leaves) if security(t) == best
            ]
            assert [serialize(t) for t in maximizer_shapes(leaves)] == expected

    def test_extremal_constructions_are_maximizers(self):
        for leaves in range(1, 17):
            canons = {serialize(t, canonical=True) for t in maximizer_shapes(leaves)}
            assert serialize(build_power_spine(leaves), canonical=True) in canons
            assert serialize(build_almost_complete(leaves), canonical=True) in canons

    def test_flip_outputs_are_maximizers(self):
        for leaves in range(1, 17):
            rep = binary_power_representation(leaves)
            k = len(rep)
            spine = build_power_spine(leaves)
            canons = None
            for i in range(2, k):
                if rep[i - 1] != rep[i] + 1:
                    continue
                if canons is None:
                    canons = {
                        serialize(t, canonical=True) for t in maximizer_shapes(leaves)
                    }
                for variant in (1, 2):
                    out = flip_adjacent(spine, i, variant)
                    assert serialize(out, canonical=True) in canons


class TestBestInClass:
    """Maximizers are made from the best shapes of each (leaf count, root
    rank) class, whose bests are measured on the enumerated securities."""

    def test_class_bests_are_the_group_maxima(self):
        secs, best = exhaustive._bshapes(exhaustive.MAX_ENUM_LEAVES)
        want = [[max(group, default=-1) for group in level] for level in secs[1:]]
        assert best[1:] == want
        assert sum(map(len, want)) == 84
        # the bound the scan for each best steps down from
        for n, level in enumerate(want, 1):
            assert all(top < 2 * n for top in level), n

    def test_maximizer_counts_equal_the_byte_counts(self):
        for row in map(brute_force_extremes, range(1, exhaustive.MAX_ENUM_LEAVES + 1)):
            count = sum(1 for _ in maximizer_shapes(row.leaf_count))
            assert count == row.maximizer_count, row.leaf_count

    def test_maximizers_make_keys_only_for_best_in_class_shapes(self, monkeypatch):
        made = []
        joined = exhaustive._joined

        def spy(kx, kys):
            keys = list(joined(kx, kys))
            made.append(len(keys))
            return keys

        monkeypatch.setattr(exhaustive, "_joined", spy)
        tracemalloc.start()
        try:
            count = sum(1 for _ in maximizer_shapes(exhaustive.MAX_ENUM_LEAVES))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 9
        # 242 of the 1,198,025 shapes of 1..21 leaves are best in their class
        assert sum(made) <= 300
        assert peak < 16 << 20


class TestMaximizerClass:
    """Properties of the maximizer class, checked on the enumeration."""

    @pytest.fixture(scope="class")
    def maximizers(self):
        return {n: list(maximizer_shapes(n)) for n in range(1, 23)}

    def test_leaf_doubling_maps_maximizers_onto_maximizers(self, maximizers):
        # a cherry in place of every leaf raises each old vertex's rank by one,
        # so security by 2n - 1 = max_security(2n) - max_security(n); the
        # doubling is done here only, so the enumeration stays the oracle
        for n in range(1, 12):
            doubled = [
                serialize(parse(serialize(t).replace("L", "(LL)")), canonical=True)
                for t in maximizers[n]
            ]
            want = [serialize(t, canonical=True) for t in maximizers[2 * n]]
            assert sorted(doubled) == sorted(want), n

    def test_root_ranks_follow_the_binary_digits(self, maximizers):
        # with h = floor(log2 n): {j + 1 : bit j of n is 1, j < h} | {h}
        for n in range(2, 23):
            h = n.bit_length() - 1
            want = {j + 1 for j in range(h) if n >> j & 1} | {h}
            got = {rank_by_distance(t, t.root) for t in maximizers[n]}
            assert got == want, n

    def test_normalization_takes_only_zero_gain_steps(self, maximizers):
        # a maximizer has no security to gain, so every step keeps the
        # maximum, and the normalizer still ends at the power spine
        count = steps = 0
        for n in range(2, 23):
            spine = build_power_spine(n)
            for t in maximizers[n]:
                result, trace = normalize_to_power_spine(t)
                for s in trace.steps:
                    assert s.security_before == s.security_after == max_security(n)
                assert is_isomorphic(result, spine), n
                count += 1
                steps += len(trace.steps)
        assert count == 86 and steps > 0  # not every maximizer is a spine


class TestCensusTable:
    def test_rows(self):
        rows = census_table(7)
        assert len(rows) == 7
        assert rows[0].leaf_count == 1 and rows[0].maximizer_fraction == 1
        assert rows[6].maximizer_fraction == Fraction(4, 11)

    def test_tsv_is_exact(self):
        text = census_tsv(census_table(7))
        lines = text.strip().split("\n")
        assert lines[0] == "leaves\tshapes\tmax_security\tmaximizers\tfraction"
        assert lines[1] == "1\t1\t0\t1\t1/1"
        assert lines[7] == "7\t11\t8\t4\t4/11"
        assert "." not in text  # no floating point anywhere

    def test_guard(self):
        with pytest.raises(SizeError):
            census_table(exhaustive.MAX_ENUM_LEAVES + 1)


class TestKaryEnumeration:
    def test_unbounded_counts_match_recurrence(self):
        for n in range(1, 12):
            got = sum(1 for _ in enumerate_kary_trees(n))
            assert got == rooted_tree_count(n)

    def test_binary_bounded_counts(self):
        # outdegree <= 2 trees on n vertices pair with binary shapes on n+1 leaves
        for n in range(1, 13):
            got = sum(1 for _ in enumerate_kary_trees(n, 2))
            assert got == wedderburn_etherington(n + 1)

    def test_ternary_counts_by_hand(self):
        for n, want in [(1, 1), (2, 1), (3, 2), (4, 4), (5, 8), (6, 17)]:
            assert sum(1 for _ in enumerate_kary_trees(n, 3)) == want

    def test_small_fixtures(self):
        assert sum(1 for _ in enumerate_kary_trees(1)) == 1
        assert sum(1 for _ in enumerate_kary_trees(3, 2)) == 2
        assert sum(1 for _ in enumerate_kary_trees(4)) == 4

    def test_trees_are_distinct_and_bounded(self):
        for n, k in [(7, 2), (6, 3), (6, None)]:
            canons = set()
            for t in enumerate_kary_trees(n, k):
                assert len(t) == n
                if k is not None:
                    assert max(t.degree(v) for v in range(len(t))) <= k
                canons.add(serialize(t, canonical=True))
            assert len(canons) == (
                sum(1 for _ in enumerate_kary_trees(n, k))
            )

    def test_proper_filter(self):
        # outdegrees all 0 or k; empty class off the feasible lattice
        for t in enumerate_kary_trees(7, 2, proper=True):
            assert {t.degree(v) for v in range(len(t))} <= {0, 2}
        assert sum(1 for _ in enumerate_kary_trees(6, 2, proper=True)) == 0
        assert sum(1 for _ in enumerate_kary_trees(7, 2, proper=True)) == (
            wedderburn_etherington(4)
        )
        # without an arity the request is malformed, also over the guard (11)
        for order in (5, 12):
            with pytest.raises(GuardError, match="needs an arity bound"):
                list(enumerate_kary_trees(order, None, proper=True))
            with pytest.raises(GuardError, match="needs an arity bound"):
                brute_force_max_root_rank(order, proper=True)

    def test_size_guards(self):
        with pytest.raises(SizeError):
            list(enumerate_kary_trees(15, 2))
        with pytest.raises(SizeError):
            list(enumerate_kary_trees(13, 3))
        with pytest.raises(SizeError):
            list(enumerate_kary_trees(12, None))

    @pytest.mark.parametrize(
        "n, k, proper",
        [
            (65, 1, False),
            (15, 2, False),
            (13, 3, False),
            (12, None, False),
            (31, 2, True),
            (40, 3, True),
        ],
    )
    def test_guard_runs_before_any_level(self, monkeypatch, n, k, proper):
        def spy(*args):
            raise AssertionError("a level was built over the guard")

        monkeypatch.setattr(exhaustive, "_kid_multisets", spy)
        with pytest.raises(SizeError, match="over enumeration guard"):
            exhaustive._kshapes(n, k, proper)


class TestBruteForceRootRank:
    def test_unbounded_path(self):
        got = brute_force_max_root_rank(6)
        assert got.max_root_rank == got.max_vertex_rank == 5

    def test_fixed_root_degree(self):
        got = brute_force_max_root_rank(7, root_degree=3)
        assert got.max_root_rank == 2  # floor(6/3)

    def test_proper_binary(self):
        got = brute_force_max_root_rank(7, k=2, proper=True)
        assert got.max_root_rank == got.max_vertex_rank == 2

    def test_bounded_class_includes_paths(self):
        got = brute_force_max_root_rank(7, k=2)
        assert got.max_root_rank == 6

    @pytest.mark.parametrize(
        "k,root_degree,proper",
        [(None, None, False), (None, 3, False), (2, None, False), (3, None, True)],
    )
    def test_orders_share_one_build(self, k, root_degree, proper):
        want = []
        for n in range(1, 11):
            try:
                want.append((n, brute_force_max_root_rank(n, k, root_degree, proper)))
            except GuardError:
                pass  # no trees of this order in the class
        orders = [n for n, _ in want]
        assert list(exhaustive._root_rank_rows(orders, k, root_degree, proper)) == want

    def test_empty_class(self):
        with pytest.raises(GuardError):
            brute_force_max_root_rank(6, k=2, proper=True)
        with pytest.raises(GuardError):
            brute_force_max_root_rank(3, root_degree=5)


class TestProperKary:
    """The proper k-ary class (outdegrees 0 or exactly k) is generated
    directly and guarded on its internal vertices."""

    # the at-most-k guard, which bounds the internal vertices of a proper shape
    INTERNAL = {2: 14, 3: 12, 4: 11, 5: 11}

    def test_deleting_the_leaves_gives_the_at_most_k_shapes(self):
        # the leaves are stripped here only, never by the library
        def stripped(t):
            text = serialize(t).replace("L", "").replace("()", "L")
            return serialize(parse(text), canonical=True)

        for k, top in self.INTERNAL.items():
            for i in range(1, top + 1):
                proper = list(enumerate_kary_trees(i * k + 1, k, proper=True))
                assert all(t.degree(v) in (0, k) for t in proper for v in range(len(t)))
                want = sorted(map(serialize, enumerate_kary_trees(i, k)))
                assert sorted(map(stripped, proper)) == want

    def test_guard_is_on_the_internal_vertices(self):
        # past k = 6 the guard stays at 67: the walk visits every order to n
        limits = {k: top * k + 1 for k, top in self.INTERNAL.items()}
        limits |= dict.fromkeys((6, 7, 1000, 100_000), 67)
        for k, limit in limits.items():
            top = enumerate_kary_trees(limit, k, proper=True)
            assert all(t.degree(0) == k for t in top)
            with pytest.raises(SizeError, match=f"[(]{limit} for this arity"):
                list(enumerate_kary_trees(limit + 1, k, proper=True))

    @pytest.mark.parametrize("n,k", [(15, 2), (13, 3), (21, 4), (31, 5), (43, 6)])
    def test_root_rank_steps_are_reached(self, n, k):
        got = brute_force_max_root_rank(n, k, proper=True)
        want = max_root_rank_kary(n, k).value
        assert got.max_root_rank == got.max_vertex_rank == want >= 2
        # n is where the formula steps: the proper order below is one lower
        below = brute_force_max_root_rank(n - k, k, proper=True)
        assert below.max_root_rank == want - 1

    def test_formula_is_the_maximum_over_at_least_k_children(self):
        # over outdegrees at most k the formula fails from order 2 on (the
        # path), but it is the maximum over the trees whose internal
        # vertices have at least k children, wherever there are any
        for k in (2, 3, 4):
            for n in range(1, 12):
                want = max_root_rank_kary(n, k).value
                at_most = brute_force_max_root_rank(n, k).max_root_rank
                assert (at_most == want) == (n == 1)
                ranks = [
                    rank_by_distance(t, t.root)
                    for t in enumerate_kary_trees(n)
                    if all(t.degree(v) == 0 or t.degree(v) >= k for v in range(n))
                ]
                assert max(ranks, default=None) == (None if 1 < n <= k else want)


class TestKaryPinned:
    """sha256 over every k-ary table up to its guard, so that a change to
    the k-ary shape tables cannot reorder, drop or re-measure a tree."""

    GUARD = {1: 64, 2: 14, 3: 12, 4: 11, None: 11}

    def _orders(self):
        for k, top in self.GUARD.items():
            for n in range(1, top + 1):
                yield k, n, (False, True) if k else (False,)

    def test_trees(self):
        h = hashlib.sha256()
        count = 0
        for k, n, propers in self._orders():
            for proper in propers:
                for t in enumerate_kary_trees(n, k, proper):
                    h.update(f"{k} {n} {proper} {t._parents!r}\n".encode())
                    count += 1
        assert count == 19957
        assert h.hexdigest() == (
            "6c7702061cd2893ec4046f32afe21665681814744d787018e0953239b1bf0e2e"
        )

    def test_verdicts(self):
        h = hashlib.sha256()
        count = 0
        for k, n, propers in self._orders():
            for root_degree in (None, 1, 2, 3, 4):
                for proper in propers:
                    try:
                        r = brute_force_max_root_rank(n, k, root_degree, proper)
                        out = f"{r.max_root_rank} {r.max_vertex_rank} {r.trees_scanned}"
                    except GuardError as e:
                        out = f"GuardError {e}"
                    h.update(f"{k} {n} {root_degree} {proper} {out}\n".encode())
                    count += 1
        assert count == 1065
        assert h.hexdigest() == (
            "39a6809ef7a42c1200807bbd5f0f189979ac4bce332a813411ac3806dea94b82"
        )
