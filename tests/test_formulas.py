import pytest
from hypothesis import given
from hypothesis import strategies as st

from treesec import (
    GuardError,
    SizeError,
    build_almost_complete,
    build_complete_binary,
    build_power_spine,
    build_starlike,
    complete_binary_security,
    floor_log2,
    intlog,
    max_root_rank_general,
    max_root_rank_kary,
    max_root_rank_starlike,
    max_security,
    power_spine_security,
    security,
    zero_bits,
)
from oracles import security_by_distance


class TestIntegerLogs:
    @given(st.integers(min_value=1, max_value=1 << 200))
    def test_floor_log2_brackets(self, x):
        f = floor_log2(x)
        assert (1 << f) <= x < (1 << (f + 1))

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=1 << 80))
    def test_intlog_brackets(self, base, x):
        e = intlog(base, x)
        assert base**e <= x < base ** (e + 1)

    def test_exact_powers(self):
        # floating-point logs drift near powers; the integer path must not
        for k in (2, 3, 10):
            for e in range(1, 40):
                assert intlog(k, k**e) == e
                assert intlog(k, k**e - 1) == e - 1

    def test_zero_bits(self):
        assert zero_bits(7) == 0
        assert zero_bits(11) == 1
        assert zero_bits(8) == 3
        with pytest.raises(GuardError):
            zero_bits(0)

    def test_guards(self):
        with pytest.raises(GuardError):
            floor_log2(0)
        with pytest.raises(GuardError):
            intlog(1, 5)


class TestMaxSecurity:
    @pytest.mark.parametrize("leaves,value", [(7, 8), (1, 0), (11, 15), (2, 1)])
    def test_examples(self, leaves, value):
        assert max_security(leaves) == value
        assert power_spine_security(leaves) == value

    def test_eleven_leaves_cross_check(self):
        # 2*11 - 3 - 3 - 1 from the power representation (3, 1, 0)
        assert power_spine_security(11) == 22 - 3 - 3 - 1 == 15

    def test_guards(self):
        with pytest.raises(GuardError):
            max_security(0)
        with pytest.raises(SizeError):
            max_security((1 << 30) + 1)

    def test_both_forms_agree(self):
        for leaves in range(1, 1 << 14):
            assert max_security(leaves) == power_spine_security(leaves)

    def test_blockwise_sum_matches_the_closed_form(self):
        # per-block security plus one spine vertex above each non-deepest
        # block telescopes to 2*leaves - n1 - k - 1
        from treesec import binary_power_representation

        for leaves in range(1, 1 << 14):
            rep = binary_power_representation(leaves)
            blocks = sum(complete_binary_security(e) for e in rep)
            spine = sum(e + 1 for e in rep[1:])
            assert blocks + spine == power_spine_security(leaves)

    def test_term_count_identity(self):
        # number of set bits = floor_log2 + 1 - zero bits
        from treesec import binary_power_representation

        for leaves in range(1, 1 << 14):
            k = len(binary_power_representation(leaves))
            assert k == floor_log2(leaves) + 1 - zero_bits(leaves)

    def test_matches_built_trees(self):
        for leaves in range(1, 513):
            want = max_security(leaves)
            assert security(build_power_spine(leaves)) == want
            assert security(build_almost_complete(leaves)) == want


class TestCompleteBinarySecurity:
    @pytest.mark.parametrize("m,value", [(0, 0), (2, 4), (3, 11)])
    def test_examples(self, m, value):
        assert complete_binary_security(m) == value

    def test_matches_brute_force(self):
        for m in range(7):
            assert complete_binary_security(m) == security_by_distance(
                build_complete_binary(m)
            )

    def test_guard(self):
        with pytest.raises(GuardError):
            complete_binary_security(-1)


class TestRootRankBounds:
    def test_general(self):
        assert max_root_rank_general(1).value == 0
        assert max_root_rank_general(4).value == 3
        assert max_root_rank_general(9).value == 8
        with pytest.raises(GuardError):
            max_root_rank_general(0)

    def test_path_witness_attains_the_general_bound(self):
        from treesec import all_ranks

        for n in range(2, 40):
            t = build_starlike((n - 1,))  # a path rooted at one end
            assert all_ranks(t)[t.root] == max_root_rank_general(n).value

    def test_starlike(self):
        assert max_root_rank_starlike(7, 3).value == 2
        assert max_root_rank_starlike(10, 3).value == 3
        assert max_root_rank_starlike(4, 3).value == 1
        with pytest.raises(GuardError):
            max_root_rank_starlike(3, 3)

    def test_starlike_witness_attains_value(self):
        from treesec import all_ranks

        for n in range(2, 60):
            for k in range(1, min(n, 7)):
                value = max_root_rank_starlike(n, k).value
                q, r = divmod(n - 1, k)
                arms = [q] * (k - r) + [q + 1] * r
                t = build_starlike(arms)
                assert len(t) == n
                assert all_ranks(t)[t.root] == value == q

    def test_kary(self):
        assert max_root_rank_kary(13, 3).value == 2
        assert max_root_rank_kary(1, 2).value == 0
        assert max_root_rank_kary(7, 2).value == 2
        with pytest.raises(GuardError):
            max_root_rank_kary(5, 1)

    def test_kary_two_sided_characterization(self):
        for k in (2, 3, 5):
            for n in range(1, 400):
                h = max_root_rank_kary(n, k).value + 1
                assert (k**h - 1) // (k - 1) <= n < (k ** (h + 1) - 1) // (k - 1)
