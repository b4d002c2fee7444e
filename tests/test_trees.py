import hashlib
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesec import (
    GuardError,
    ParseError,
    RootedTree,
    all_ranks,
    build_binary_caterpillar,
    build_power_spine,
    canonical_form,
    canonical_order,
    classify,
    enumerate_kary_trees,
    enumerate_shapes,
    is_isomorphic,
    parse,
    partition_vector,
    protected_count,
    read_tree,
    reroot_at_vertex,
    saturated_vertices,
    security,
    serialize,
    tree_from_json,
    tree_to_json,
)
from oracles import (
    random_general,
    random_proper_binary,
    ranks_by_distance,
    relabelled_copy,
    shuffled_copy,
)

FIG1 = "((L(LL))(L((LL)(LL))))"
_VERTEX_SCHEMA = 'each JSON vertex must be {"children": [...]}'

# grammar-valid general tree texts (internal vertices take 1..4 children)
tree_texts = st.recursive(
    st.just("L"),
    lambda kids: st.lists(kids, min_size=1, max_size=4).map(
        lambda xs: "(" + "".join(xs) + ")"
    ),
    max_leaves=25,
)


_PARSE_ERRORS = [
    ("()", "empty internal vertex", 1),
    ("(L()L)", "empty internal vertex", 3),
    ("(LL", "unbalanced '('", 3),
    (")", "unbalanced ')'", 0),
    ("(LL))", "trailing content after the tree", 4),
    ("(LL) x", "trailing content after the tree", 5),
    ("(LL)(", "trailing content after the tree", 4),
    ("LL", "trailing content after the tree", 1),
    ("L\x1c", "trailing content after the tree", 1),
    ("x", "stray character 'x'", 0),
    ("(Lx)", "stray character 'x'", 2),
    ("(L\u00a0L)", "stray character '\\xa0'", 2),
    ("\u2003L", "stray character '\\u2003'", 0),
    ("", "empty input", 0),
    (" \t\n", "empty input", 0),
]


class TestParse:
    def test_single_leaf(self):
        t = parse("L")
        assert len(t) == 1 and t.leaf_count() == 1
        assert t.parent(t.root) is None

    def test_complete_height_two(self):
        t = parse("((LL)(LL))")
        assert len(t) == 7 and t.leaf_count() == 4

    def test_worked_example_tree(self):
        t = parse(FIG1)
        assert len(t) == 15 and t.leaf_count() == 8

    def test_whitespace_is_a_separator(self):
        assert is_isomorphic(parse(" ( L ( L L ) ) "), parse("(L(LL))"))

    # a case's id names its text and offset
    @pytest.mark.parametrize(
        "text,message,offset",
        _PARSE_ERRORS,
        ids=[f"{text}-{offset}" for text, _, offset in _PARSE_ERRORS],
    )
    def test_errors_carry_offsets(self, text, message, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert str(err.value) == f"{message} (at offset {offset})"

    @given(tree_texts)
    def test_roundtrip_is_idempotent(self, text):
        once = serialize(parse(text), canonical=True)
        again = serialize(parse(once), canonical=True)
        assert once == again


class TestSerialize:
    def test_leaf(self):
        assert serialize(parse("L")) == "L"

    def test_cherry(self):
        assert serialize(parse("(LL)")) == "(LL)"

    def test_storage_order_preserved(self):
        assert serialize(parse("((LL)L)")) == "((LL)L)"


class TestJson:
    def test_leaf(self):
        assert tree_to_json(parse("L")) == {"children": []}

    def test_roundtrip(self):
        t = parse(FIG1)
        assert is_isomorphic(tree_from_json(tree_to_json(t)), t)

    def test_read_tree_sniffs_json(self):
        obj = tree_to_json(parse("(L(LL))"))
        assert is_isomorphic(read_tree(json.dumps(obj)), parse("(L(LL))"))

    # the JSON sniff skips only the whitespace that parse skips
    @pytest.mark.parametrize("text", ['\xa0{"children": []}', "\xa0(LL)"], ids=["json", "text"])
    def test_read_tree_reports_a_leading_stray_character(self, text):
        with pytest.raises(ParseError) as err:
            read_tree(text)
        assert str(err.value) == "stray character '\\xa0' (at offset 0)"

    # json.loads rejects the \x0b and \x0c that parse and the sniff skip
    @pytest.mark.parametrize(
        "text",
        ['\x0c{"children": []}', '\x0b{"children": []}', '{"children": []}\x0c'],
        ids=["leading-ff", "leading-vt", "trailing-ff"],
    )
    def test_read_tree_skips_all_of_parse_whitespace(self, text):
        assert serialize(read_tree(text)) == "L"

    @pytest.mark.parametrize(
        "text, offset",
        [('\x0c{"children": [}', 15), (' \x0b{"children": [}\x0c ', 16)],
        ids=["leading-ff", "both-ends"],
    )
    def test_read_tree_reports_json_offsets_in_the_given_text(self, text, offset):
        with pytest.raises(ParseError) as err:
            read_tree(text)
        assert str(err.value) == f"invalid JSON: Expecting value (at offset {offset})"

    def test_bad_schema(self):
        with pytest.raises(ParseError):
            tree_from_json({"kids": []})
        with pytest.raises(ParseError):
            tree_from_json({"children": "L"})
        with pytest.raises(ParseError):
            read_tree('{"children": [')
        leaf = {"children": []}
        for obj, message in [
            ({"children": [], "x": 1}, _VERTEX_SCHEMA),
            ({}, _VERTEX_SCHEMA),
            ({"children": [1]}, _VERTEX_SCHEMA),
            ({"children": [leaf, {"children": [leaf, {"kids": []}]}]}, _VERTEX_SCHEMA),
            ([leaf], _VERTEX_SCHEMA),
            (["children"], _VERTEX_SCHEMA),
            ({"children": (leaf, leaf)}, '"children" must be a list'),
        ]:
            with pytest.raises(ParseError) as err:
                tree_from_json(obj)
            assert str(err.value) == message


# sha256 over the plain text, the JSON document and the parent array read
# back from that document for every corpus tree; half of the corpus has its
# vertex ids permuted, so parents may follow their children
IO_DIGEST = "ca4e0e560c84844704e7a36a5ba2df4a6f16f2c5bdcf689575c8610645e31845"
# sha256 over saturated_vertices of every proper binary tree of that corpus
SATURATED_DIGEST = "79bcd032b378a2ccb1a126b9dd8553dc27c2638ba6613aa4763e4494919732d2"


def _io_corpus():
    rng = random.Random(7)
    corpus = [
        shuffled_copy(t, rng) for n in range(1, 10) for t in enumerate_kary_trees(n)
    ]
    corpus += [random_general(rng.randint(1, 80), rng) for _ in range(300)]
    corpus += [random_proper_binary(rng.randint(1, 40), rng) for _ in range(300)]
    corpus += [build_binary_caterpillar(300), build_power_spine(1000)]
    return corpus + [relabelled_copy(t, rng) for t in corpus]


class TestIoPinned:
    def test_text_and_json_are_pinned(self):
        digest = hashlib.sha256()
        corpus = _io_corpus()
        for t in corpus:
            doc = json.dumps(tree_to_json(t))
            back = tree_from_json(json.loads(doc))._parents
            digest.update(repr([serialize(t), doc, back]).encode())
        assert len(corpus) == 2176
        assert digest.hexdigest() == IO_DIGEST

    def test_saturated_vertices_are_pinned(self):
        digest = hashlib.sha256()
        proper = [t for t in _io_corpus() if classify(t).is_proper_binary]
        for t in proper:
            digest.update(repr(saturated_vertices(t)).encode())
        assert len(proper) == 630
        assert digest.hexdigest() == SATURATED_DIGEST

    def test_json_reads_preorder_like_parse(self):
        for t in _io_corpus():
            back = tree_from_json(tree_to_json(t))
            assert back._parents == parse(serialize(t))._parents

    def test_deep_round_trip_without_recursion(self):
        # far deeper than the corpus caterpillar; json.dumps would stop near
        # 490 levels, so the document is read back without it
        deep = build_binary_caterpillar(100_000)
        for t in (deep, relabelled_copy(deep, random.Random(17))):
            back = tree_from_json(tree_to_json(t))
            assert back._parents == parse(serialize(t))._parents


class TestChildLists:
    def test_children_are_id_ordered_tuples(self):
        star = RootedTree([-1] + [0] * 20_000)
        base = random_general(60, random.Random(29))
        last = len(base) - 1
        backwards = RootedTree([p if p < 0 else last - p for p in reversed(base._parents)])
        assert all(p > v for v, p in enumerate(backwards._parents) if p >= 0)
        for t in _io_corpus() + [star, backwards]:
            n = len(t)
            # the children of v are the ids c with parents[c] == v, ascending
            expected = [[] for _ in range(n)]
            for c, p in enumerate(t._parents):
                if p >= 0:
                    expected[p].append(c)
            for v in range(n):
                kids = t.children(v)
                assert type(kids) is tuple and kids == tuple(expected[v])
                assert t.degree(v) == len(kids)
                assert t.is_leaf(v) == (kids == ())

    @pytest.mark.parametrize(
        "op",
        [
            serialize,
            lambda t: serialize(t, canonical=True),
            lambda t: is_isomorphic(t, t),
            canonical_form,
            saturated_vertices,
            partition_vector,
        ],
        ids=["serialize", "serialize_canonical", "is_isomorphic", "canonical_form", "saturated", "partition"],
    )
    def test_read_passes_build_no_child_lists(self, op):
        rng = random.Random(300)
        text = serialize(random_proper_binary(300, rng))
        a = parse(text)
        b = shuffled_copy(parse(text), rng)
        op(a)
        op(b)
        assert is_isomorphic(a, b)
        assert a._children is None and b._children is None


class TestRanks:
    def test_worked_example_multiset(self):
        ranks = sorted(all_ranks(parse(FIG1)))
        assert ranks == [0] * 8 + [1] * 5 + [2] * 2

    def test_single_vertex(self):
        assert all_ranks(parse("L")) == [0]

    def test_complete_tree_ranks_are_heights(self):
        # brute-force distance check for heights up to 6
        from treesec import build_complete_binary

        for m in range(7):
            t = build_complete_binary(m)
            assert all_ranks(t) == ranks_by_distance(t)
            assert all_ranks(t)[t.root] == m

    def test_recurrence_matches_distance_on_random_trees(self):
        rng = random.Random(12021)
        for _ in range(40):
            t = random_general(rng.randrange(1, 201), rng)
            assert all_ranks(t) == ranks_by_distance(t)

    def test_rank_zero_iff_leaf(self):
        rng = random.Random(7)
        t = random_general(150, rng)
        for v, r in enumerate(all_ranks(t)):
            assert (r == 0) == t.is_leaf(v)


class TestSecurity:
    def test_worked_example(self):
        assert security(parse(FIG1)) == 9

    def test_single_vertex(self):
        assert security(parse("L")) == 0

    def test_complete_height_two(self):
        assert security(parse("((LL)(LL))")) == 4

    def test_telescoping_identity(self):
        rng = random.Random(99)
        for _ in range(25):
            t = random_general(rng.randrange(1, 120), rng)
            total = sum(
                protected_count(t, j) for j in range(1, len(t) + 1)
            )
            assert security(t) == total


class TestProtectedCount:
    def test_worked_example_levels(self):
        t = parse(FIG1)
        assert protected_count(t, 0) == 15
        assert protected_count(t, 1) == 7
        assert protected_count(t, 2) == 2

    def test_negative_level_rejected(self):
        with pytest.raises(GuardError):
            protected_count(parse("L"), -1)


class TestCanonical:
    def test_leaf_first_order(self):
        assert serialize(parse("((LL)L)"), canonical=True) == "(L(LL))"

    def test_idempotent(self):
        t = canonical_form(parse(FIG1))
        again = canonical_form(t)
        assert serialize(t) == serialize(again)

    def test_shuffle_invariance(self):
        rng = random.Random(4242)
        for _ in range(30):
            t = random_general(rng.randrange(2, 80), rng)
            a = serialize(shuffled_copy(t, rng), canonical=True)
            b = serialize(shuffled_copy(t, rng), canonical=True)
            assert a == b == serialize(t, canonical=True)

    def test_canonical_order_is_a_permutation(self):
        t = parse(FIG1)
        order = canonical_order(t)
        assert sorted(order) == list(range(len(t)))
        assert order[0] == t.root

    @given(tree_texts)
    @settings(max_examples=60)
    def test_canonical_form_is_isomorphic(self, text):
        t = parse(text)
        assert is_isomorphic(canonical_form(t), t)

    def test_canonical_form_renumbers_by_canonical_order(self):
        # the new id of a vertex is its position in canonical_order
        rng = random.Random(2718)
        corpus = [random_general(rng.randrange(1, 80), rng) for _ in range(100)]
        corpus += [shuffled_copy(random_proper_binary(40, rng), rng) for _ in range(50)]
        for t in corpus:
            order = canonical_order(t)
            newid = {v: i for i, v in enumerate(order)}
            want = [-1 if t.parent(v) is None else newid[t.parent(v)] for v in order]
            form = canonical_form(t)
            assert form._parents == want
            assert serialize(form) == serialize(t, canonical=True)


# sha256 over canonical_order, the canonical text and the canonical_form
# parents of every corpus tree, plus the reroot_at_vertex parents at every
# vertex in both modes; the corpus is full of isomorphic siblings, so this
# pins every tie-break of the canonical order
TIE_BREAK_DIGEST = "1d0ac2f1ffe47ec25bedb2dd1d7936dc9c2143946f7ab0a805d840d93457129d"


def _parents(tree):
    return [tree.parent(v) for v in range(len(tree))]


def _caterpillar_text(leaves):
    return "(L" * (leaves - 2) + "(LL)" + ")" * (leaves - 2)


class TestCanonicalPinned:
    def test_tie_breaks_are_pinned(self):
        rng = random.Random(5)
        corpus = [
            shuffled_copy(t, rng) for n in range(1, 10) for t in enumerate_kary_trees(n)
        ]
        corpus += [random_general(rng.randint(1, 80), rng) for _ in range(300)]
        corpus += [random_proper_binary(rng.randint(1, 40), rng) for _ in range(300)]
        digest = hashlib.sha256()
        for t in corpus:
            lines = [canonical_order(t), serialize(t, canonical=True)]
            lines.append(_parents(canonical_form(t)))
            for mode in ("general", "degree_preserving"):
                lines += [_parents(reroot_at_vertex(t, v, mode)) for v in range(len(t))]
            digest.update(repr(lines).encode())
        assert len(corpus) == 1086
        assert digest.hexdigest() == TIE_BREAK_DIGEST

    def test_deep_siblings_one_leaf_apart(self):
        # the 3001-leaf caterpillar with every child list reversed
        mirror = "(" * 2999 + "(LL)" + "L)" * 2999
        text = "(" + mirror + _caterpillar_text(3000) + ")"
        want = "(" + _caterpillar_text(3000) + _caterpillar_text(3001) + ")"
        assert serialize(parse(text), canonical=True) == want

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: serialize(a, canonical=True),
            lambda a, b: canonical_form(a),
            is_isomorphic,
            lambda a, b: (serialize(a), serialize(b)),
            lambda a, b: (partition_vector(a), partition_vector(b)),
        ],
        ids=["serialize", "canonical_form", "is_isomorphic", "serialize_plain", "partition_vector"],
    )
    def test_caterpillar_memory_is_linear(self, op):
        a = build_binary_caterpillar(16384)
        b = shuffled_copy(a, random.Random(16384))
        tracemalloc.start()
        try:
            op(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestIsomorphism:
    def test_reflexive(self):
        t = parse(FIG1)
        assert is_isomorphic(t, t)

    def test_unordered(self):
        assert is_isomorphic(parse("((LL)L)"), parse("(L(LL))"))

    def test_distinct_depth_multisets(self):
        assert not is_isomorphic(parse("(L(L(LL)))"), parse("((LL)(LL))"))

    def test_different_orders(self):
        assert not is_isomorphic(parse("(LL)"), parse("(LLL)"))

    def test_agrees_with_label_interning(self):
        from oracles import isomorphic_by_interning

        rng = random.Random(60101)
        for _ in range(80):
            a = random_general(rng.randrange(1, 60), rng)
            if rng.random() < 0.5:
                b = shuffled_copy(a, rng)
            else:
                b = random_general(len(a), rng)
            assert is_isomorphic(a, b) == isomorphic_by_interning(a, b)


class TestClassify:
    def test_complete_height_two(self):
        r = classify(parse("((LL)(LL))"))
        assert r.leaf_count == 4
        assert r.height == 2
        assert r.is_proper_binary and r.is_complete_binary
        assert r.outdegree_sequence == (0, 0, 0, 0, 2, 2, 2)

    def test_worked_example(self):
        r = classify(parse(FIG1))
        assert r.leaf_count == 8
        assert r.is_proper_binary and not r.is_complete_binary

    def test_not_proper_binary(self):
        r = classify(parse("(L(L)(LL))"))
        assert not r.is_proper_binary
        assert r.outdegree_sequence == (0, 0, 0, 0, 1, 2, 3)

    def test_single_vertex_is_complete(self):
        r = classify(parse("L"))
        assert r.height == 0 and r.is_complete_binary

    def test_complete_means_every_leaf_at_full_depth(self):
        # classify decides completeness by the leaf count alone; check it
        # against the definition on every small binary and general shape
        trees = [t for leaves in range(1, 15) for t in enumerate_shapes(leaves)]
        trees += [t for n in range(1, 12) for t in enumerate_kary_trees(n)]
        complete = 0
        for t in trees:
            r, depths = classify(t), t.depths()
            leaf_depths = {depths[v] for v in range(len(t)) if t.is_leaf(v)}
            want = r.is_proper_binary and leaf_depths == {r.height}
            assert r.is_complete_binary == want, serialize(t)
            complete += want
        assert (len(trees), complete) == (7059, 7)


class TestSaturated:
    def test_complete_tree_root_only(self):
        from treesec import build_complete_binary

        for m in range(5):
            t = build_complete_binary(m)
            assert saturated_vertices(t) == [(t.root, m)]

    def test_power_spine_eleven(self):
        from treesec import build_power_spine

        t = build_power_spine(11)
        assert sorted(m for _, m in saturated_vertices(t)) == [0, 1, 3]

    def test_rejects_non_proper_binary(self):
        with pytest.raises(GuardError):
            saturated_vertices(parse("(LLL)"))
        with pytest.raises(GuardError):
            partition_vector(parse("(L)"))

    def test_leaf_sets_partition_the_leaves(self):
        rng = random.Random(31337)
        for _ in range(25):
            t = random_proper_binary(rng.randrange(1, 40), rng)
            seen = []
            for v, m in saturated_vertices(t):
                stack = [v]
                leaves = []
                while stack:
                    x = stack.pop()
                    kids = t.children(x)
                    if kids:
                        stack.extend(kids)
                    else:
                        leaves.append(x)
                assert len(leaves) == 1 << m
                seen.extend(leaves)
            assert sorted(seen) == [v for v in range(len(t)) if t.is_leaf(v)]


class TestPartitionVector:
    def test_caterpillar_four(self):
        assert partition_vector(parse("(L(L(LL)))")) == (1, 0, 0)

    def test_complete_height_three(self):
        from treesec import build_complete_binary

        assert partition_vector(build_complete_binary(3)) == (3,)

    def test_shared_partition_pair(self):
        # two non-isomorphic shapes over the same saturated exponents
        a = parse("(((((LL)(LL))(LL))((LL)(LL)))L)")
        b = parse("(((((LL)(LL))(LL))L)((LL)(LL)))")
        assert partition_vector(a) == partition_vector(b) == (2, 2, 1, 0)
        assert not is_isomorphic(a, b)

    def test_powers_sum_to_leaf_count(self):
        rng = random.Random(777)
        for _ in range(30):
            t = random_proper_binary(rng.randrange(1, 64), rng)
            assert sum(1 << m for m in partition_vector(t)) == t.leaf_count()
            assert len(t) == 2 * t.leaf_count() - 1


class TestArenaValidation:
    def test_two_roots(self):
        with pytest.raises(GuardError):
            RootedTree([-1, -1])

    def test_cycle(self):
        with pytest.raises(GuardError):
            RootedTree([-1, 2, 1])

    def test_self_parent(self):
        with pytest.raises(GuardError):
            RootedTree([-1, 1])

    def test_out_of_range_parent(self):
        with pytest.raises(GuardError):
            RootedTree([-1, 5])

    def test_empty(self):
        with pytest.raises(GuardError):
            RootedTree([])

    def test_none_is_a_root_marker(self):
        t = RootedTree([None, 0, 0])
        assert t.root == 0 and t.degree(0) == 2

    def test_bool_parent_rejected(self):
        with pytest.raises(GuardError, match="invalid parent False for vertex 1"):
            RootedTree([-1, False, True, 1])
        with pytest.raises(GuardError, match="invalid parent True for vertex 2"):
            RootedTree([None, 0, True])

    @pytest.mark.parametrize(
        "parents,message",
        [
            ([], "a tree needs at least one vertex"),
            ([-1, -1], "expected exactly one root, found 2"),
            ([1, 0], "expected exactly one root, found 0"),
            ([-1, 1], "invalid parent 1 for vertex 1"),
            ([-1, 0.0], "invalid parent 0.0 for vertex 1"),
            ([-1, 5], "invalid parent 5 for vertex 1"),
            ([-1, -2], "invalid parent -2 for vertex 1"),
            ([-1, 2, 1], "parent links contain a cycle or unreachable vertices"),
            ([2, 0, -1, 4, 3], "parent links contain a cycle or unreachable vertices"),
            ([-1.0, 0, 0], "invalid parent -1.0 for vertex 0"),
        ],
    )
    def test_messages_are_pinned(self, parents, message):
        with pytest.raises(GuardError) as err:
            RootedTree(parents)
        assert str(err.value) == message

    def test_input_is_copied(self):
        # the root mark is rewritten in the tree's copy, not in the caller's list
        parents = [None, 0, 0]
        t = RootedTree(parents)
        assert parents == [None, 0, 0]
        parents[1] = 2
        assert t._parents == [-1, 0, 0] and t.children(0) == (1, 2)

    def test_top_down_order_is_kept_from_validation(self):
        # ids in parent-first order need no walk; any other tree keeps the
        # breadth-first order that its reachability check builds
        assert RootedTree([-1, 0, 0, 1, 1])._order == range(5)
        t = RootedTree([3, 3, 4, -1, 3, 4])
        assert t._order == [3, 0, 1, 4, 2, 5]
        assert t.depths() == [1, 1, 2, 0, 1, 2]
        assert serialize(t) == "(LL(LL))"

    def test_constructor_builds_no_child_tuples(self):
        # the reachability check leaves no child tuples behind, also on the
        # rerooted trees whose parent arrays are not top-down
        t = RootedTree([3, 3, 4, -1, 3, 4])
        assert t._children is None and t._order == [3, 0, 1, 4, 2, 5]
        cat = build_binary_caterpillar(1000)
        moved = reroot_at_vertex(cat, len(cat) - 3)
        assert moved._order != range(len(moved)) and moved._children is None
        assert t.children(3) == (0, 1, 4) and t._children is not None

    @pytest.mark.parametrize("bad", [-1, -2, 5, True, 1.0])
    @pytest.mark.parametrize("accessor", ["parent", "children", "is_leaf", "degree"])
    def test_accessors_refuse_what_is_not_a_vertex_id(self, accessor, bad):
        # -1 and -2 would index from the end and True would read vertex 1;
        # the message is the one the rewrites give
        t = parse("(L(LL))")
        with pytest.raises(GuardError) as err:
            getattr(t, accessor)(bad)
        assert str(err.value) == f"vertex id {bad} out of range"

    def test_repr_truncates_long_text(self):
        assert repr(parse("((LL)L)")) == "RootedTree('((LL)L)')"
        t = parse("(" + "L" * 70 + ")")
        assert repr(t) == f"RootedTree('({'L' * 56}...')"

    def test_leaf_count_counts_childless_vertices(self):
        rng = random.Random(1618)
        for _ in range(40):
            t = random_general(rng.randrange(1, 120), rng)
            leaves = sum(1 for v in range(len(t)) if t.is_leaf(v))
            assert t.leaf_count() == leaves == classify(t).leaf_count
