import hashlib
import random
from collections import Counter

import pytest

from treesec import (
    GuardError,
    RewriteTrace,
    RootedTree,
    SwitchContext,
    all_ranks,
    binary_power_representation,
    build_almost_complete,
    build_almost_complete_stepwise,
    build_binary_caterpillar,
    build_complete_binary,
    build_complete_kary,
    build_power_spine,
    build_starlike,
    canonical_form,
    canonical_order,
    classify,
    enumerate_shapes,
    flip_adjacent,
    hoist_min_saturated,
    is_isomorphic,
    max_security,
    normalize_to_power_spine,
    parse,
    partition_vector,
    protected_count,
    reroot_at_vertex,
    saturated_vertices,
    security,
    serialize,
    spine_reinsert,
    switch_disjoint,
    switch_nested_high_sibling,
    switch_nested_low_sibling,
    tree_from_json,
    tree_to_json,
)
from treesec import rewrites
from treesec.cli import main
from treesec.rewrites import _pair_context, _rewire, _rule_edges, _splice
from treesec.trees import _canonical, _kid_lists, _preorder
from oracles import (
    equal_rank_saturated_pairs,
    random_general,
    random_kary,
    random_proper_binary,
    relabelled_copy,
    shuffled_copy,
)

SWITCH_OPS = (
    switch_disjoint,
    switch_nested_high_sibling,
    switch_nested_low_sibling,
    spine_reinsert,
)


def guarded_applications(tree):
    """Every (op, ctx, result) whose guards accept, over all equal-rank
    saturated pairs in both orientations."""
    out = []
    for u, w in equal_rank_saturated_pairs(tree):
        ctx = SwitchContext.for_pair(tree, u, w)
        for op in SWITCH_OPS:
            try:
                result = op(tree, ctx)
            except GuardError:
                continue
            out.append((op, ctx, result))
    return out


class TestSwitchContext:
    def test_derivation(self):
        t = parse("((L(LL))(L(LL)))")
        ctx = SwitchContext.for_pair(t, 2, 7)
        assert ctx == SwitchContext(u=2, w=7, u0=1, w0=6, u1=3, w1=8)

    def test_root_rejected(self):
        t = parse("(LL)")
        with pytest.raises(GuardError):
            SwitchContext.for_pair(t, t.root, 1)

    @pytest.mark.parametrize("u,w", [(-1, 2), (2, -1), (99, 2), (2, 7), (-7, -7)])
    def test_out_of_range_ids_rejected(self, u, w):
        t = parse("((LL)(LL))")
        bad = next(v for v in (u, w) if not 0 <= v < len(t))
        with pytest.raises(GuardError) as err:
            SwitchContext.for_pair(t, u, w)
        assert str(err.value) == f"vertex id {bad} out of range"

    @pytest.mark.parametrize(
        "bad", [lambda v: None, lambda v: "2", float], ids=["None", "str", "float"]
    )
    @pytest.mark.parametrize("field", SwitchContext._fields)
    def test_non_int_ids_rejected(self, field, bad):
        # float(v) == v, so only a type check refuses it
        t = parse("((L(LL))(L(LL)))")
        ctx = SwitchContext.for_pair(t, 2, 7)
        ctx = ctx._replace(**{field: bad(getattr(ctx, field))})
        with pytest.raises(GuardError):
            switch_disjoint(t, ctx)
        if field in ("u", "w"):
            v = getattr(ctx, field)
            with pytest.raises(GuardError, match=f"^vertex id {v} out of range$"):
                SwitchContext.for_pair(t, ctx.u, ctx.w)

    @pytest.mark.parametrize("op", SWITCH_OPS)
    def test_plain_tuple_context_rejected(self, op):
        # the right ids in a plain tuple are refused before any field is read
        t = parse("((L(LL))(L(LL)))")
        with pytest.raises(GuardError, match="^context must be a SwitchContext$"):
            op(t, (2, 7, 1, 6, 3, 8))

    def test_stale_context_rejected(self):
        t = parse("((L(LL))(L(LL)))")
        bad = SwitchContext(u=2, w=7, u0=1, w0=6, u1=4, w1=8)  # u1 is wrong
        with pytest.raises(GuardError):
            switch_disjoint(t, bad)

    def test_unsaturated_pair_rejected(self):
        # vertices 1 and 6 are internal, equal rank, but not saturated
        t = parse("((L(LL))(L(LL)))")
        ctx = SwitchContext.for_pair(t, 1, 6)
        with pytest.raises(GuardError):
            switch_disjoint(t, ctx)

    @pytest.mark.parametrize(
        "text,u,w,message",
        [
            ("((L(LL))(L(LL)))", 1, 1, "the two switched vertices must differ"),
            ("((LLL)(LL))", 2, 6, "parent of vertex 2 must have exactly two children"),
            ("((LL)(LLL))", 2, 5, "parent of vertex 5 must have exactly two children"),
            ("((L)L)", 3, 2, "parent of vertex 2 must have exactly two children"),
            ("(LL)", 0, 1, "vertex 0 is the root and has no parent"),
            ("((LL)L)", 2, 0, "vertex 0 is the root and has no parent"),
            ("((LLL)L)", 2, 0, "parent of vertex 2 must have exactly two children"),
        ],
    )
    def test_pair_refusals(self, text, u, w, message):
        with pytest.raises(GuardError) as err:
            SwitchContext.for_pair(parse(text), u, w)
        assert str(err.value) == message

    def test_derivation_reads_the_parent_array(self):
        # every ordered pair of every shape to 8 leaves, against the child
        # lists; deriving builds no child tuples on the tree
        for leaves in range(2, 9):
            for t in enumerate_shapes(leaves):
                pairs = [(u, w) for u in range(1, len(t)) for w in range(1, len(t)) if u != w]
                got = [SwitchContext.for_pair(t, u, w) for u, w in pairs]
                assert t._children is None
                kids = t._child_lists()
                assert got == [_pair_context(t._parents, kids, u, w) for u, w in pairs]

    def test_public_switch_builds_no_child_tuples_on_its_input(self):
        t = parse("((L(LL))(L(LL)))")
        out = switch_disjoint(t, SwitchContext.for_pair(t, 2, 7))
        assert is_isomorphic(out, parse("(((LL)(LL))(LL))"))
        assert t._children is None

    def test_unequal_rank_pair_rejected(self):
        # vertex 1 is a saturated cherry (rank 1), vertex 8 a saturated leaf
        t = parse("((LL)((LL)L))")
        ctx = SwitchContext.for_pair(t, 1, 8)
        with pytest.raises(GuardError, match="^switched vertices must have equal rank$"):
            switch_disjoint(t, ctx)


# sha256 over the verdict of every public switching rewrite on every
# equal-rank saturated pair of every shape with 2..12 leaves
GUARD_DIGEST = "13766d2facf5c9373a92e3b849aa4921b2b341b79eaa90b96159824a30f38fc5"


class TestGuardsPinned:
    """Which contexts each public rewrite accepts, its output ids and its
    refusal messages are pinned, so the guards cannot move at a boundary."""

    def test_verdicts_up_to_twelve_leaves(self):
        # and no accepted switch lowers the number of vertices of rank >= j
        # at any level j
        def levels(t):
            return [protected_count(t, j) for j in range(1, max(all_ranks(t)) + 1)]

        digest = hashlib.sha256()
        verdicts = accepted = 0
        for leaves in range(2, 13):
            for t in enumerate_shapes(leaves):
                before = levels(t)
                for u, w in equal_rank_saturated_pairs(t):
                    ctx = SwitchContext.for_pair(t, u, w)
                    for op in SWITCH_OPS:
                        try:
                            out = op(t, ctx)
                        except GuardError as e:
                            verdict = str(e)
                        else:
                            verdict = repr(out._parents)
                            after = levels(out) + [0] * len(before)
                            assert all(a >= b for a, b in zip(after, before))
                            accepted += 1
                        verdicts += 1
                        line = f"{leaves} {u} {w} {op.__name__} {verdict}\n"
                        digest.update(line.encode())
        assert verdicts == 67824
        assert accepted == 10878
        assert digest.hexdigest() == GUARD_DIGEST


class TestSwitchDisjoint:
    def test_worked_example(self):
        t = parse("((L(LL))(L(LL)))")
        out = switch_disjoint(t, SwitchContext.for_pair(t, 2, 7))
        assert security(t) == 6 and security(out) == 7
        assert is_isomorphic(out, parse("(((LL)(LL))(LL))"))
        assert out.leaf_count() == t.leaf_count() and len(out) == len(t)

    def test_sibling_rank_guard(self):
        # orientation with the lower-ranked sibling on the w side is refused
        t = parse("((L(LL))(L((LL)(LL))))")
        sat = dict(saturated_vertices(t))
        a, b = sorted(v for v, m in sat.items() if m == 0)
        ranks = all_ranks(t)
        c1 = SwitchContext.for_pair(t, a, b)
        c2 = SwitchContext.for_pair(t, b, a)
        good, bad = (c1, c2) if ranks[c1.w1] >= ranks[c1.u1] else (c2, c1)
        with pytest.raises(GuardError):
            switch_disjoint(t, bad)
        assert security(switch_disjoint(t, good)) >= security(t)

    def test_nested_parents_rejected(self):
        t = parse("(L(L(LL)))")
        ctx = SwitchContext.for_pair(t, 1, 3)
        with pytest.raises(GuardError):
            switch_disjoint(t, ctx)

    def test_raw_formula_on_isomorphic_subtrees_is_identity(self):
        # with T(u) isomorphic to T(w1) the exchange cannot change the shape;
        # no saturated context reaches this, so drive the raw edge formula
        t = parse("(((LL)(LL))((LL)(LL)))")
        ctx = SwitchContext.for_pair(t, 2, 9)  # the two inner (LL) blocks
        out = _rewire(t, *_rule_edges("switch_disjoint", rewrites._Arena(t), ctx))
        assert is_isomorphic(out, t) and security(out) == security(t)

    def test_raw_formula_with_shared_parent_is_refused(self):
        # two saturated siblings of equal rank would make their parent
        # complete, so no accepted context is a sibling pair; the raw edge
        # formula cuts the edge to u twice
        t = parse("((LL)(LL))")
        ctx = SwitchContext.for_pair(t, 1, 4)  # siblings: u0 == w0
        with pytest.raises(GuardError) as err:
            _rewire(t, *_rule_edges("switch_disjoint", rewrites._Arena(t), ctx))
        assert str(err.value) == "edge (0, 1) is not present"
        with pytest.raises(
            GuardError, match="both switched vertices must be saturated"
        ):
            switch_disjoint(t, ctx)

    def test_a_switch_that_lowers_security_is_refused(self, monkeypatch):
        # turn ((L(LL))(L(LL))) (security 6) into ((L(L(L(LL))))L) (security 5)
        t = parse("((L(LL))(L(LL)))")
        ctx = SwitchContext.for_pair(t, 2, 7)
        lowering = (((3, 4), (0, 6)), ((3, 6), (0, 4)))
        monkeypatch.setattr(rewrites, "_rule_edges", lambda *args: lowering)
        with pytest.raises(
            GuardError, match="switch_disjoint lowered security from 6 to 5"
        ):
            switch_disjoint(t, ctx)


class TestSwitchNestedHighSibling:
    def test_caterpillar_to_complete(self):
        t = parse("(L(L(LL)))")
        out = switch_nested_high_sibling(t, SwitchContext.for_pair(t, 1, 3))
        assert security(t) == 3 and security(out) == 4
        assert is_isomorphic(out, parse("((LL)(LL))"))

    def test_six_leaf_example_reaches_brute_force_max(self):
        t = parse("(L((LL)((LL)L)))")
        # u = the root's leaf child, w = the deep single leaf
        sat = dict(saturated_vertices(t))
        u = next(v for v, m in sat.items() if m == 0 and t.parent(v) == t.root)
        w = next(v for v, m in sat.items() if m == 0 and t.parent(v) != t.root)
        out = switch_nested_high_sibling(t, SwitchContext.for_pair(t, u, w))
        assert security(t) == 6 and security(out) == 7
        assert max(security(s) for s in enumerate_shapes(6)) == 7

    def test_low_sibling_redirects(self):
        # rank(w1) < rank(u) must be sent to the low-sibling variant
        t = parse("(((((LL)(LL))(LL))L)((LL)(LL)))")
        ctx = SwitchContext.for_pair(t, 14, 3)
        with pytest.raises(GuardError):
            switch_nested_high_sibling(t, ctx)


class TestSwitchNestedLowSibling:
    def test_partition_regression_pair(self):
        # the lower-security tree of the shared-partition pair improves to 15
        t = parse("(((((LL)(LL))(LL))L)((LL)(LL)))")
        assert security(t) == 14
        out = switch_nested_low_sibling(t, SwitchContext.for_pair(t, 14, 3))
        assert security(out) == 15 == max_security(11)

    def test_root_case_instances_exist_and_are_monotone(self):
        found = 0
        for t in enumerate_shapes(7):
            for u, w in equal_rank_saturated_pairs(t):
                ctx = SwitchContext.for_pair(t, u, w)
                if ctx.u0 != t.root:
                    continue
                try:
                    out = switch_nested_low_sibling(t, ctx)
                except GuardError:
                    continue
                found += 1
                assert security(out) >= security(t)
        assert found > 0

    def test_spine_guard_redirects_to_reinsert(self):
        hits = 0
        for leaves in range(2, 11):
            for t in enumerate_shapes(leaves):
                ranks = all_ranks(t)
                for u, w in equal_rank_saturated_pairs(t):
                    ctx = SwitchContext.for_pair(t, u, w)
                    if rewrites._nesting(t, ctx) != 1:
                        continue
                    if ranks[ctx.w1] > ranks[ctx.u] - 1:
                        continue
                    v1 = t.parent(ctx.u0)
                    if v1 is None or ranks[v1] <= 2 + ranks[ctx.w1]:
                        continue
                    with pytest.raises(GuardError, match="spine_reinsert"):
                        switch_nested_low_sibling(t, ctx)
                    hits += 1
        assert hits > 0


class TestSpineReinsert:
    def _applications(self, max_leaves):
        apps = []
        for leaves in range(2, max_leaves + 1):
            for t in enumerate_shapes(leaves):
                for u, w in equal_rank_saturated_pairs(t):
                    ctx = SwitchContext.for_pair(t, u, w)
                    try:
                        out = spine_reinsert(t, ctx)
                    except GuardError:
                        continue
                    apps.append((t, ctx, out))
        return apps

    def test_exhaustive_small_scan(self):
        apps = self._applications(12)
        assert apps, "no guard-satisfying instances found"
        for t, ctx, out in apps:
            assert security(out) >= security(t)
            assert out.leaf_count() == t.leaf_count() and len(out) == len(t)
            # locality: the ranks at w, w1 and w0 are untouched
            before, after = all_ranks(t), all_ranks(out)
            for v in (ctx.w, ctx.w1, ctx.w0):
                assert before[v] == after[v]

    def test_new_root_case_structure(self):
        apps = self._applications(12)
        root_cases = [(t, ctx, out) for t, ctx, out in apps if out.root == ctx.w0]
        assert root_cases, "no instances of the new-root case found"
        for t, ctx, out in root_cases:
            assert out.parent(t.root) == ctx.w0
            assert ctx.w1 in out.children(ctx.w0)
            assert out.parent(ctx.w) == t.parent(ctx.w0)

    def test_splice_below_a_root_path_vertex(self):
        # the root 0 outranks w1 but vertex 2 does not, so w0 = 11 (keeping
        # w1 = 19) is spliced in between them and w = 12 takes its place
        t = parse("(L((((LL)(LL))(((LL)(LL))(LL)))((LL)(LL))))")
        ctx = SwitchContext.for_pair(t, 4, 12)
        assert ctx == SwitchContext(u=4, w=12, u0=3, w0=11, u1=11, w1=19)
        out = spine_reinsert(t, ctx)
        assert out.parent(11) == 0 and out.parent(2) == 11
        before, after = all_ranks(t), all_ranks(out)
        assert all(before[v] == after[v] for v in (ctx.w, ctx.w1, ctx.w0))
        assert security(t) == security(out) == 22
        assert out._parents == [
            -1, 0, 11, 2, 3, 4, 5, 5, 4, 8, 8, 0, 3, 12, 13,
            13, 12, 16, 16, 11, 19, 19, 2, 22, 23, 23, 22, 26, 26,
        ]

    def test_guard_requires_low_sibling(self):
        t = parse("(L(L(LL)))")
        ctx = SwitchContext.for_pair(t, 1, 3)
        with pytest.raises(GuardError):
            spine_reinsert(t, ctx)


# sha256 over every hoist step from random joins of distinct complete blocks
HOIST_DIGEST = "cd95b6721f4c8ec2e11f7727910baa83fec7df1c8ab44b8cd80ba8a5f85adc89"


class TestHoist:
    def test_worked_example(self):
        t = parse("((L(LL))((LL)(LL)))")
        out = hoist_min_saturated(t)
        assert security(t) == 8 and security(out) == 8
        assert serialize(out, canonical=True) == "(L((LL)((LL)(LL))))"

    def test_fixed_point(self):
        for leaves in (1, 2, 7, 11, 13):
            t = build_power_spine(leaves)
            assert hoist_min_saturated(t) is t

    def test_repeated_exponents_rejected(self):
        with pytest.raises(GuardError, match="normalize first"):
            hoist_min_saturated(parse("((L(LL))(L(LL)))"))

    def test_iterated_hoisting_reaches_the_spine_everywhere(self):
        for leaves in range(1, 13):
            target = serialize(build_power_spine(leaves), canonical=True)
            for t in enumerate_shapes(leaves):
                vec = partition_vector(t)
                if len(set(vec)) != len(vec):
                    continue
                seen = security(t)
                for _ in range(4 * len(vec) + 4):
                    nxt = hoist_min_saturated(t)
                    if nxt is t:
                        break
                    assert security(nxt) >= seen
                    seen = security(nxt)
                    t = nxt
                assert serialize(t, canonical=True) == target

    def test_hoist_steps_are_pinned(self):
        # blocks of distinct exponents joined at random, so every placement
        # step runs on shapes the switching phase never hands over
        complete = ["L"]
        for _ in range(8):
            complete.append(f"({complete[-1]}{complete[-1]})")
        rng = random.Random(37)
        digest, trees, steps = hashlib.sha256(), 0, 0
        for leaves in range(1, 300):
            for _ in range(3):
                blocks = [complete[e] for e in binary_power_representation(leaves)]
                while len(blocks) > 1:
                    i, j = sorted(rng.sample(range(len(blocks)), 2))
                    b, a = blocks.pop(j), blocks.pop(i)
                    blocks.append(f"({a}{b})")
                t = parse(blocks[0])
                trees += 1
                while (nxt := hoist_min_saturated(t)) is not t:
                    digest.update(f"{nxt._parents!r}\n".encode())
                    steps += 1
                    t = nxt
        assert (trees, steps) == (897, 1387)
        assert digest.hexdigest() == HOIST_DIGEST

    def test_a_hoist_that_lowers_security_is_refused(self, monkeypatch):
        # turn ((LL)(LL)) (security 4) into (L(L(LL))) (security 3)
        lowering = (((0, 1), (4, 5)), ((0, 5), (4, 1)))
        monkeypatch.setattr(rewrites, "_hoist_edges", lambda arena: lowering)
        with pytest.raises(
            GuardError, match="hoist_min_saturated lowered security from 4 to 3"
        ):
            hoist_min_saturated(parse("((LL)(LL))"))


class TestNormalize:
    def test_spine_is_a_fixed_point_with_empty_trace(self):
        t = build_power_spine(11)
        out, trace = normalize_to_power_spine(t)
        assert trace.steps == ()
        assert is_isomorphic(out, t)

    def test_caterpillar(self):
        out, trace = normalize_to_power_spine(parse("(L(L(LL)))"))
        assert serialize(out, canonical=True) == "((LL)(LL))"
        assert security(out) == 4
        assert [s.rule for s in trace.steps] == ["switch_nested_high_sibling"]

    def test_every_seven_leaf_shape_reaches_the_maximum(self):
        for t in enumerate_shapes(7):
            out, trace = normalize_to_power_spine(t)
            assert security(out) == 8
            assert is_isomorphic(out, build_power_spine(7))
            securities = [s.security_before for s in trace.steps]
            securities += [s.security_after for s in trace.steps[-1:]]
            assert securities == sorted(securities)

    def test_rule_names_are_known(self):
        known = {
            "switch_disjoint",
            "switch_nested_high_sibling",
            "switch_nested_low_sibling",
            "spine_reinsert",
            "hoist_min_saturated",
        }
        rng = random.Random(2024)
        for _ in range(20):
            t = random_proper_binary(rng.randrange(2, 33), rng)
            _, trace = normalize_to_power_spine(t)
            assert {s.rule for s in trace.steps} <= known

    def test_rejects_non_proper_binary(self):
        with pytest.raises(GuardError):
            normalize_to_power_spine(parse("(LLL)"))

    def test_random_soak_beyond_the_exhaustive_range(self):
        rng = random.Random(0xB0A)
        for _ in range(60):
            leaves = rng.randrange(2, 129)
            t = random_proper_binary(leaves, rng)
            out, trace = normalize_to_power_spine(t)
            assert is_isomorphic(out, build_power_spine(leaves))
            assert security(out) == max_security(leaves)
            prev = security(t)
            for step in trace.steps:
                assert step.security_before == prev
                assert step.security_after >= prev
                prev = step.security_after

    def test_step_guard_raises_a_package_error(self, monkeypatch, capsys):
        # a switch that changes nothing would loop forever
        monkeypatch.setattr(rewrites, "_rule_edges", lambda *args: ((), ()))
        with pytest.raises(GuardError, match="step guard"):
            normalize_to_power_spine(parse("(L(L(LL)))"))
        assert main(["normalize", "--tree", "(L(L(LL)))"]) == 1
        assert "step guard" in capsys.readouterr().err

    def test_a_step_the_rule_guard_refuses_is_not_taken(self, monkeypatch, capsys):
        # normalize takes a switch only after that rule's own guard accepts
        monkeypatch.setattr(rewrites, "_verdicts", lambda *args: ("refused",) * 4)
        with pytest.raises(GuardError, match="no switching rule accepts"):
            normalize_to_power_spine(parse("(L(L(LL)))"))
        assert main(["normalize", "--tree", "(L(L(LL)))"]) == 1
        captured = capsys.readouterr()
        assert "no switching rule accepts" in captured.err and captured.out == ""

    def test_a_step_that_lowers_security_is_refused(self, monkeypatch):
        # turn ((LL)(LL)) (security 4) into (L(L(LL))) (security 3)
        lowering = (((0, 1), (4, 5)), ((0, 5), (4, 1)))
        monkeypatch.setattr(rewrites, "_hoist_edges", lambda arena: lowering)
        with pytest.raises(GuardError, match="hoist_min_saturated lowered security"):
            normalize_to_power_spine(parse("((LL)(LL))"))

    def test_dispatch_is_total_on_repeated_partitions(self):
        # whenever exponents repeat, the selected rule's guards must accept
        from treesec.trees import canonical_order
        from treesec.rewrites import _select_switch

        ops = {op.__name__: op for op in SWITCH_OPS}
        checked = 0
        for leaves in range(2, 11):
            for t in enumerate_shapes(leaves):
                sat = saturated_vertices(t)
                vec = sorted((m for _, m in sat), reverse=True)
                repeated = next(
                    (a for a, b in zip(vec, vec[1:]) if a == b), None
                )
                if repeated is None:
                    continue
                pos = {v: i for i, v in enumerate(canonical_order(t))}
                group = sorted(
                    (v for v, m in sat if m == repeated), key=pos.__getitem__
                )
                arena = rewrites._Arena(t)
                pair = _pair_context(arena._parents, arena.kids, group[0], group[1])
                nesting = rewrites._nesting(arena, pair)
                rule, ctx = _select_switch(arena, group[0], group[1], nesting)
                out = ops[rule](t, ctx)  # must not raise GuardError
                assert security(out) >= security(t)
                checked += 1
        assert checked > 0

    def test_each_pick_is_the_first_rule_its_public_switch_accepts(self, monkeypatch):
        # the normalizer and the public switches read one verdict table: the
        # rule it picks accepts and gives the traced surgery, every rule
        # before it refuses, and (y, x) is taken only when all refuse (x, y)
        select, picks = rewrites._select_switch, []

        def capturing_select(arena, x, y, nesting):
            rule, ctx = select(arena, x, y, nesting)
            picks.append((RootedTree(arena._parents), x, y, rule, ctx))
            return rule, ctx

        def refuses(op, tree, ctx):
            with pytest.raises(GuardError):
                op(tree, ctx)

        monkeypatch.setattr(rewrites, "_select_switch", capturing_select)
        ops = {op.__name__: op for op in SWITCH_OPS}
        shapes = [t for leaves in range(2, 11) for t in enumerate_shapes(leaves)]
        taken = Counter()
        for tree in shapes + _seeded_random_trees(40, 100, seed=0x46):
            picks.clear()
            _, trace = normalize_to_power_spine(tree)
            switches = [s for s in trace.steps if s.rule in ops]
            assert len(switches) == len(picks)
            for (before, x, y, rule, ctx), step in zip(picks, switches):
                assert step.rule == rule
                par = list(before._parents)
                _splice(par, before.root, step.edges_removed, step.edges_added)
                assert ops[rule](before, ctx)._parents == par
                for earlier in rewrites._RULES[: rewrites._RULES.index(rule)]:
                    refuses(ops[earlier], before, ctx)
                if ctx.u == y:
                    for op in SWITCH_OPS:
                        refuses(op, before, SwitchContext.for_pair(before, x, y))
                taken[rule, ctx.u == y] += 1
        assert len(taken) == 8  # every rule, in both orientations


# digests of the output of the full-rebuild normalizer, which the incremental
# engine must reproduce exactly
SHAPES_DIGEST = "947d1eb5db34fbb9b04a2df40edf9f10ef758ea0931a2a3a7a387adb141bccfc"
RANDOM_DIGEST = "5fc3a9a2f22544b4ee43575eab25d2e1095b1fec7f3ee16fac2a6187624837ee"
HELD_PAIR_DIGEST = "7fe1ffae3f3eff0e58452f058639a103dade23d4a74981aa6736cb4385b3079f"
# a smallest tree whose normalization takes more than leaves + 1 steps: no
# shape of 16 leaves or fewer does
STEP_BOUND_BREAKER = "((LL)((LL)(L(L(L(L(L(L(L(L(L(L(L(LL))))))))))))))"
STEP_BOUND_BREAKER_DIGEST = (
    "5ffd1592bf405da28d4677479eb86bfd2a50f5d1d8bde9191209e47044ec14ca"
)


def _normalization_digest(trees):
    """sha256 over each tree's normalization trace and output parent array."""
    digest = hashlib.sha256()
    for t in trees:
        out, trace = normalize_to_power_spine(t)
        digest.update(f"{trace.to_text()}\n{out._parents!r}\n".encode())
    return digest.hexdigest()


def _seeded_random_trees(count, max_leaves, seed):
    rng = random.Random(seed)
    return [
        random_proper_binary(rng.randrange(2, max_leaves + 1), rng)
        for _ in range(count)
    ]


class TestNormalizePinned:
    """Traces and output vertex ids are pinned: the normalizer may get
    faster, but every step it records and every id it returns stay put."""

    def test_all_shapes_seven_to_twelve_leaves(self):
        shapes = [t for leaves in range(7, 13) for t in enumerate_shapes(leaves)]
        trees = shapes + [canonical_form(t) for t in shapes]
        assert _normalization_digest(trees) == SHAPES_DIGEST

    def test_seeded_random_trees(self):
        trees = _seeded_random_trees(20, 300, seed=0x7E5)
        assert _normalization_digest(trees) == RANDOM_DIGEST

    def test_a_held_pair_is_switched_until_it_merges(self):
        # searching the first two saturated vertices again after every switch
        # takes 12 steps here, not 13, and leaves another trace
        t = canonical_form(random_proper_binary(30, random.Random(884)))
        assert len(normalize_to_power_spine(t)[1].steps) == 13
        assert _normalization_digest([t]) == HELD_PAIR_DIGEST

    def test_a_pair_held_through_nine_spine_reinserts(self):
        # 17 leaves, 19 steps: over the leaves + 1 bound
        t = parse(STEP_BOUND_BREAKER)
        assert serialize(t, canonical=True) == STEP_BOUND_BREAKER
        steps = normalize_to_power_spine(t)[1].steps
        assert (t.leaf_count(), len(steps)) == (17, 19)
        assert Counter(s.rule for s in steps)["spine_reinsert"] == 9
        assert _normalization_digest([t]) == STEP_BOUND_BREAKER_DIGEST

    def test_replayed_traces_match(self):
        # replay every step through the validated, from-scratch surgery and
        # measures: an independent check of the running security sum and of
        # the path repair
        shapes = [t for leaves in range(1, 11) for t in enumerate_shapes(leaves)]
        for tree in shapes + _seeded_random_trees(40, 200, seed=0x5EC):
            out, trace = normalize_to_power_spine(tree)
            replayed = tree
            for step in trace.steps:
                assert step.security_before == security(replayed)
                replayed = _rewire(replayed, step.edges_removed, step.edges_added)
                assert security(replayed) == step.security_after
            assert replayed._parents == out._parents

    def test_no_step_lowers_any_protected_level(self):
        # the per-level form of "no step lowers security": replayed through
        # the from-scratch surgery, no step lowers the number of vertices of
        # rank >= j at any level j
        def levels(t):
            return [protected_count(t, j) for j in range(1, max(all_ranks(t)) + 1)]

        shapes = [t for leaves in range(1, 13) for t in enumerate_shapes(leaves)]
        steps = 0
        for tree in shapes + _seeded_random_trees(40, 200, seed=0x5EC):
            _, trace = normalize_to_power_spine(tree)
            before = levels(tree)
            for step in trace.steps:
                tree = _rewire(tree, step.edges_removed, step.edges_added)
                after = levels(tree)
                assert all(a >= b for a, b in zip(after + [0] * len(before), before))
                before = after
                steps += 1
        assert (len(shapes), steps) == (850, 5738)


def _same_as_validated(out):
    """The tree a rewrite handed over reads as the validated tree of its
    parent array."""
    ref = RootedTree(out._parents)
    assert out.root == ref.root
    for read in (serialize, canonical_order, tree_to_json, RootedTree.depths):
        assert read(out) == read(ref), read.__name__


def test_every_constructor_roots_the_tree_at_the_head_of_its_order():
    """A tree's root is the first vertex of its kept order, whichever way
    the tree was made: it is the vertex whose parent is -1."""
    rng = random.Random(0x45)
    made = [parse(text) for text in ("L", "(LL)", "((LL)(LLL)L)", "((L(LL))((LL)(LL)))")]
    made += [tree_from_json(tree_to_json(t)) for t in made]
    made += [canonical_form(t) for t in made]
    made += [
        build(*args)
        for build, args in [
            (build_complete_binary, (3,)),
            (build_power_spine, (11,)),
            (build_almost_complete, (11,)),
            (build_almost_complete_stepwise, (11,)),
            (build_binary_caterpillar, (9,)),
            (build_starlike, ([2, 3, 1],)),
            (build_complete_kary, (13, 3)),
        ]
    ]
    made += [relabelled_copy(t, rng) for t in made]  # validated, not top-down
    shapes = [t for leaves in range(2, 9) for t in enumerate_shapes(leaves)]
    for t in shapes + [relabelled_copy(t, rng) for t in shapes]:
        made.append(normalize_to_power_spine(t)[0])
        made += [out for _, _, out in guarded_applications(t)]
    unhoisted = parse("((L(LL))((LL)(LL)))")
    made += [hoist_min_saturated(t) for t in (unhoisted, relabelled_copy(unhoisted, rng))]
    made += [
        reroot_at_vertex(t, v, mode)
        for t in made[:32]
        for v in range(len(t))
        for mode in ("general", "degree_preserving")
    ]
    for t in made:
        assert t.root == t._parents.index(-1), t._parents


# (text, switched pair): a ternary root, a unary vertex below the root and
# a ternary vertex below the root
_NON_PROPER = {
    "ternary_root": ("((LL)(LL)L)", 2, 5),
    "unary_vertex": ("((LL)((LL)))", 2, 6),
    "deep_ternary": ("((LL)(LLL))", 2, 3),
}
_REFUSING = ("switch_disjoint", "hoist_min_saturated", "normalize_to_power_spine")


class TestArena:
    """The normalizer's mutable arena: its surgery check and its repair."""

    FIELDS = ("rank", "h", "kids", "mask", "dup", "root", "security")

    @pytest.mark.parametrize(
        "rewrite,shape",
        [pytest.param(r, "ternary_root", id=r) for r in _REFUSING]
        + [
            pytest.param(r, shape, id=f"{r.split('_')[0]}-{shape}")
            for shape in ("unary_vertex", "deep_ternary")
            for r in _REFUSING
        ],
    )
    def test_non_proper_binary_trees_are_refused(self, rewrite, shape):
        text, u, w = _NON_PROPER[shape]
        t = parse(text)
        with pytest.raises(GuardError) as err:
            if rewrite == "switch_disjoint":
                switch_disjoint(t, SwitchContext.for_pair(t, u, w))
            elif rewrite == "hoist_min_saturated":
                hoist_min_saturated(t)
            else:
                normalize_to_power_spine(t)
        assert str(err.value) == "tree is not proper binary"

    def test_surgery_that_leaves_one_child_is_refused(self):
        # vertex 2 keeps one child and leaf 5 gains one
        arena = rewrites._Arena(parse("(((LL)L)L)"))
        with pytest.raises(GuardError) as err:
            arena.rewire(((2, 4),), ((5, 4),))
        assert str(err.value) == "tree is not proper binary"

    def test_surgery_that_empties_a_vertex_is_refused(self):
        # both children of 2 move to leaf 5, which no rule surgery does
        arena = rewrites._Arena(parse("(((LL)L)L)"))
        with pytest.raises(GuardError) as err:
            arena.rewire(((2, 3), (2, 4)), ((5, 3), (5, 4)))
        assert str(err.value) == "tree is not proper binary"

    def test_every_rule_surgery_keeps_outdegrees_and_complete_subtrees(
        self, monkeypatch
    ):
        # the invariant that lets the arena refuse a vertex left without two
        # children: each parent loses as many child edges as it gains, and
        # none of the cut edges hangs below a complete subtree
        step, counts = rewrites._step, Counter()

        def checked(arena, rule, removed, added):
            assert Counter(p for p, _ in removed) == Counter(p for p, _ in added)
            assert all(arena.h[p] < 0 for p, _ in removed)
            counts[rule] += 1
            return step(arena, rule, removed, added)

        monkeypatch.setattr(rewrites, "_step", checked)
        trees = [t for leaves in range(2, 13) for t in enumerate_shapes(leaves)]
        for t in trees + _seeded_random_trees(60, 2000, seed=0x39):
            normalize_to_power_spine(t)
        normalized = sum(counts.values())
        for t in (t for leaves in range(2, 11) for t in enumerate_shapes(leaves)):
            guarded_applications(t)
            vec = partition_vector(t)
            if len(set(vec)) == len(vec):
                while (nxt := hoist_min_saturated(t)) is not t:
                    t = nxt
        assert normalized == 36029
        assert set(counts) == {*rewrites._RULES, "hoist_min_saturated"}

    def test_cyclic_surgery_is_refused(self):
        arena = rewrites._Arena(parse("(((LL)L)L)"))
        assert arena._parents == [-1, 0, 1, 2, 2, 1, 0]
        # every outdegree is kept, but 1 and 2 become each other's parent
        with pytest.raises(GuardError, match="cycle or unreachable"):
            arena.rewire(((0, 1), (2, 3)), ((2, 1), (0, 3)))

    @pytest.mark.parametrize(
        "removed,added,message",
        [
            (((0, 2),), (), r"edge \(0, 2\) is not present"),
            ((), ((3, 6),), "vertex 6 is already attached"),
            ((), ((6, 0),), "exactly one root"),  # the root hung below a leaf
            (((0, 6),), (), "exactly one root"),  # a leaf cut loose
        ],
    )
    def test_surgery_refusals(self, removed, added, message):
        arena = rewrites._Arena(parse("(((LL)L)L)"))
        with pytest.raises(GuardError, match=message):
            arena.rewire(removed, added)

    def test_children_are_kept_in_canonical_order(self):
        # the arena orders children from ranks, complete heights and the
        # child lists below; trees._canonical orders them by subtree text
        shapes = [t for leaves in range(1, 11) for t in enumerate_shapes(leaves)]
        rng = random.Random(0xC01)
        trees = shapes + [shuffled_copy(t, rng) for t in shapes]
        trees += _seeded_random_trees(20, 300, seed=0xC0A)
        for t in trees:
            arena = rewrites._Arena(t)
            _, first, nxt = _canonical(t, t._order)
            for v in range(len(t)):
                kids, c = [], first[v]
                while c >= 0:
                    kids.append(c)
                    c = nxt[c]
                if kids:
                    assert arena.kids[v] == kids, serialize(t)

    def test_first_is_the_first_saturated_vertex_in_canonical_preorder(self):
        # against a scan of v's subtree: a slice of the canonical preorder
        shapes = [t for leaves in range(1, 13) for t in enumerate_shapes(leaves)]
        rng = random.Random(0xF125)
        trees = shapes + [shuffled_copy(t, rng) for t in shapes]
        trees += [random_proper_binary(300, rng) for _ in range(20)]
        checks = 0
        for t in trees:
            arena = rewrites._Arena(t)
            _, first, nxt = _canonical(t, t._order)
            pre = list(_preorder(t.root, first, nxt))
            pos = {v: i for i, v in enumerate(pre)}
            size = [1] * len(t)
            for v in reversed(t._order[1:]):
                size[t._parents[v]] += size[v]
            sat = dict(saturated_vertices(t))
            complete = {x for s in sat for x in pre[pos[s] : pos[s] + size[s]]}
            for v in pre:
                if v != t.root and v in complete:
                    continue
                subtree = pre[pos[v] : pos[v] + size[v]]
                for m in range(arena.mask[v].bit_length()):
                    if arena.mask[v] >> m & 1:
                        want = next(x for x in subtree if sat.get(x) == m)
                        assert arena.first(v, 1 << m) == want, serialize(t)
                        checks += 1
        assert checks == 30352

    def test_repair_matches_a_fresh_arena_after_every_step(self, monkeypatch):
        rewire = rewrites._Arena.rewire
        seen = {"three_edge": 0, "new_root": 0}

        def checked_rewire(arena, removed, added):
            root = arena.root
            rewire(arena, removed, added)
            fresh = rewrites._Arena(RootedTree(arena._parents))
            for name in self.FIELDS:
                assert getattr(arena, name) == getattr(fresh, name), name
            seen["three_edge"] += len(removed) == 3
            seen["new_root"] += arena.root != root

        monkeypatch.setattr(rewrites._Arena, "rewire", checked_rewire)
        shapes = [t for leaves in range(7, 11) for t in enumerate_shapes(leaves)]
        for tree in shapes + _seeded_random_trees(20, 300, seed=0xA7E):
            normalize_to_power_spine(tree)
        assert seen["three_edge"] and seen["new_root"]

    def test_a_held_pair_keeps_its_nesting(self, monkeypatch):
        # an exchange merges the pair and a spine_reinsert that holds it keeps
        # its nesting, so the nesting read off the search serves every switch
        # of the pair and normalization never climbs
        select, nesting = rewrites._select_switch, rewrites._nesting
        seen = {"pairs": 0, "repeats": 0, "last": None}

        def checked_select(arena, x, y, given):
            ctx = rewrites._pair_context(arena._parents, arena.kids, x, y)
            assert given == nesting(arena, ctx)
            seen["repeats" if seen["last"] == (x, y) else "pairs"] += 1
            seen["last"] = (x, y)
            return select(arena, x, y, given)

        def climbing(tree, ctx):
            raise AssertionError("normalization climbed")

        monkeypatch.setattr(rewrites, "_select_switch", checked_select)
        monkeypatch.setattr(rewrites, "_nesting", climbing)
        for tree in _handover_trees() + [parse(STEP_BOUND_BREAKER)]:
            seen["last"] = None
            normalize_to_power_spine(tree)
        assert seen["pairs"] and seen["repeats"]

    def test_handed_over_trees_read_as_validated_ones(self):
        # the rewrites hand over the arena's tree unchecked
        for tree in _handover_trees():
            out, trace = normalize_to_power_spine(tree)
            if trace.steps:
                _same_as_validated(out)
        for leaves in range(2, 11):
            for t in enumerate_shapes(leaves):
                for _, _, out in guarded_applications(t):
                    _same_as_validated(out)
                if len(set(partition_vector(t))) == len(partition_vector(t)):
                    _same_as_validated(hoist_min_saturated(t))

    def test_one_derivation_of_child_lists_per_rewrite(self, monkeypatch):
        # the arena derives its child lists once, from its input, and hands
        # its tree over by walking those lists: no handover rebuilds them
        spine_input = random_proper_binary(300, random.Random(0x4E5))
        pair = parse("((L(LL))(L(LL)))")
        ctx = SwitchContext.for_pair(pair, 2, 7)
        unhoisted = parse("((LL)(L((LL)(LL))))")
        calls = Counter()
        for module in ("treesec.trees", "treesec.rewrites"):

            def counted(par, order, module=module):
                calls[module] += 1
                return _kid_lists(par, order)

            monkeypatch.setattr(f"{module}._kid_lists", counted)
        for tree, rewrite in [
            (spine_input, lambda t: normalize_to_power_spine(t)[0]),
            (pair, lambda t: switch_disjoint(t, ctx)),
            (unhoisted, hoist_min_saturated),
        ]:
            calls.clear()
            assert rewrite(tree) is not tree
            assert calls == {"treesec.rewrites": 1}

    def test_normalization_builds_no_child_tuples_on_its_input(self):
        t = parse(serialize(random_proper_binary(300, random.Random(0x4E5))))
        out, trace = normalize_to_power_spine(t)
        assert trace.steps and t._children is None


def _handover_trees():
    shapes = [t for leaves in range(2, 13) for t in enumerate_shapes(leaves)]
    return shapes + _seeded_random_trees(40, 300, seed=0x4E5)


# sha256 over every accepted flip of the power spines on 1..299 leaves
FLIP_DIGEST = "22a655fb32ce6cf1fc467cad6b379fdb0fadef69ed2438443e21c4bf2abb729a"


class TestFlip:
    def test_output_ids_are_pinned(self):
        digest = hashlib.sha256()
        flips = 0
        for leaves in range(1, 300):
            spine = build_power_spine(leaves)
            for i in range(2, leaves.bit_count()):
                for variant in (1, 2):
                    try:
                        out = flip_adjacent(spine, i, variant)
                    except GuardError:
                        continue
                    flips += 1
                    line = f"{leaves} {i} {variant} {out._parents!r}\n"
                    digest.update(line.encode())
        assert flips == 716
        assert digest.hexdigest() == FLIP_DIGEST

    def test_variant_one_preserves_security(self):
        t = build_power_spine(11)
        out = flip_adjacent(t, 2, 1)
        assert security(out) == 15

    def test_variant_two_gives_a_fresh_maximizer(self):
        t = build_power_spine(11)
        out = flip_adjacent(t, 2, 2)
        assert security(out) == 15
        assert not is_isomorphic(out, t)

    def test_index_guard(self):
        with pytest.raises(GuardError):
            flip_adjacent(build_power_spine(11), 1, 1)

    @pytest.mark.parametrize("leaves", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_fewer_than_three_blocks_have_no_flip(self, leaves):
        with pytest.raises(GuardError, match="no flip exists for this leaf count"):
            flip_adjacent(build_power_spine(leaves), 2, 1)

    def test_exponent_gap_guard(self):
        # representation (3, 2, 0): positions 2 and 3 differ by two
        with pytest.raises(GuardError):
            flip_adjacent(build_power_spine(13), 2, 1)

    def test_requires_the_spine_shape(self):
        t = parse("((L(LL))((LL)(LL)))")  # 7 leaves but not the spine
        with pytest.raises(GuardError):
            flip_adjacent(t, 2, 1)

    def test_variant_guard(self):
        with pytest.raises(GuardError):
            flip_adjacent(build_power_spine(11), 2, 3)

    @pytest.mark.parametrize(
        "i, variant, message",
        [(2.0, 1, "index must be in"), (2, True, "variant"), (2, 1.0, "variant")],
        ids=["float-index", "bool-variant", "float-variant"],
    )
    def test_non_int_arguments_rejected(self, i, variant, message):
        # 2.0 == 2 and True == 1, so only a type check refuses them
        with pytest.raises(GuardError, match=message):
            flip_adjacent(build_power_spine(7), i, variant)


# sha256 over the parents and root of reroot_at_vertex in both modes at
# every vertex of seeded random general trees, half of them with their ids
# permuted so that parents may follow their children; computed while the
# canonical pass still keyed the whole tree, it pins which deepest leaf
# each reroot picks
REROOT_DIGEST = "411b9437919c9721307a8d98fd001457fd571a07a6a98a6df7c04281676d8d94"


class TestReroot:
    def test_root_is_identity(self):
        t = parse(" ((LL)(LL))")
        assert reroot_at_vertex(t, t.root) is t

    def test_degree_preserving_at_a_leaf_is_identity(self):
        rng = random.Random(29)
        trees = [parse("(LL)"), parse("((LL)(L(LL)))")]
        trees += [random_general(rng.randint(2, 40), rng) for _ in range(20)]
        for t in trees + [relabelled_copy(t, rng) for t in trees]:
            for v in range(len(t)):
                if t.is_leaf(v):
                    assert reroot_at_vertex(t, v, mode="degree_preserving") is t

    def test_deepest_leaf_choice_is_pinned(self):
        rng = random.Random(0x2E0)
        trees = [random_general(rng.randint(1, 60), rng) for _ in range(150)]
        trees += [relabelled_copy(t, rng) for t in trees]
        digest = hashlib.sha256()
        for t in trees:
            for mode in ("general", "degree_preserving"):
                for v in range(len(t)):
                    out = reroot_at_vertex(t, v, mode)
                    digest.update(repr((out._parents, out.root)).encode())
        assert digest.hexdigest() == REROOT_DIGEST

    def test_rerooting_keys_only_the_moved_subtree(self, monkeypatch):
        keyed, canonical = [], rewrites._canonical

        def spy(tree, order):
            keyed.append(len(order))
            return canonical(tree, order)

        monkeypatch.setattr(rewrites, "_canonical", spy)
        t = build_binary_caterpillar(32768)
        v = len(t) - 3  # the deepest internal vertex
        for mode in ("general", "degree_preserving"):
            assert reroot_at_vertex(t, v, mode).root == v
        assert keyed == [3, 3]

    def test_path_end_in_a_spider(self):
        from treesec import build_starlike

        t = build_starlike((3, 2, 2))
        v = t.children(t.root)[0]  # depth-1 vertex starting the long arm
        out = reroot_at_vertex(t, v, mode="general")
        assert out.root == v
        assert all_ranks(out)[v] >= all_ranks(t)[v]

    def test_general_rank_never_decreases(self):
        rng = random.Random(11)
        for _ in range(60):
            t = random_kary(rng.randrange(2, 41), rng.randrange(2, 5), rng)
            v = rng.randrange(1, len(t))
            out = reroot_at_vertex(t, v, mode="general")
            assert len(out) == len(t)
            assert out.root == v
            assert all_ranks(out)[v] >= all_ranks(t)[v]

    def test_degree_preserving_keeps_outdegree_multiset(self):
        rng = random.Random(23)
        for _ in range(60):
            k = rng.randrange(2, 5)
            t = random_kary(rng.randrange(2, 51), k, rng)
            v = rng.randrange(1, len(t))
            out = reroot_at_vertex(t, v, mode="degree_preserving")
            assert classify(out).outdegree_sequence == classify(t).outdegree_sequence
            if not t.is_leaf(v):
                assert out.root == v
                assert all_ranks(out)[v] >= all_ranks(t)[v]

    def test_mode_guard(self):
        t = parse("(LL)")
        with pytest.raises(GuardError):
            reroot_at_vertex(t, 1, mode="sideways")
        with pytest.raises(GuardError):
            reroot_at_vertex(t, 9)

    @pytest.mark.parametrize("v", [1.0, True], ids=["float", "bool"])
    def test_non_int_id_rejected(self, v):
        with pytest.raises(GuardError, match=f"^vertex id {v} out of range$"):
            reroot_at_vertex(parse("((LL)L)"), v)


class TestTrace:
    def test_text_log(self):
        _, trace = normalize_to_power_spine(parse("(L(L(LL)))"))
        line = trace.to_text()
        assert line.startswith("switch_nested_high_sibling: security 3 -> 4;")
        assert "-(" in line and "+(" in line

    def test_empty_trace(self):
        trace = RewriteTrace(steps=())
        assert trace.to_text() == ""
