"""Every count argument of the library (leaf counts, heights, orders,
arities, levels) is checked by ``errors._count``: a count that is not an
int, a bool included, is refused with GuardError, and every int argument
gives the same result or the same exception class as the range checks the
helper replaced."""

import pytest

from treesec import builders, errors, exhaustive, formulas, trees
from treesec.errors import GuardError, SizeError, TreesecError
from treesec.trees import parse, serialize

G, S = GuardError, SizeError
ML, MO, LR = builders.MAX_LEAVES, builders.MAX_ORDER, builders.LEAF_RANGE
_T = parse("((LL)L)")


def _tree(build):
    return lambda *args: serialize(build(*args))


def _shapes(walk):
    return lambda *args: [serialize(t) for t in walk(*args)]


# One row per count argument: a call that passes the value to it, the other
# arguments fixed, and its result (or exception class) for each int at and
# around its guard edges, as the hand-written range checks gave them.  A
# builder at its real upper guard makes a tree of 2**26 vertices, so
# BUILDER_TOPS checks those edges at lowered guards.
ROWS = [
    ("binary_power_representation", builders.binary_power_representation,
     {-1: G, 0: G, 1: (0,), 2: (1,), 11: (3, 1, 0), LR: (30,), LR + 1: S}),
    ("build_complete_binary", _tree(builders.build_complete_binary),
     {-1: G, 0: "L", 1: "(LL)", 2: "((LL)(LL))", 26: S}),
    ("build_power_spine", _tree(builders.build_power_spine),
     {-1: G, 0: G, 1: "L", 2: "(LL)", 3: "(L(LL))",
      11: "(L((LL)(((LL)(LL))((LL)(LL)))))", ML + 1: S, LR + 1: S}),
    ("build_almost_complete", _tree(builders.build_almost_complete),
     {-1: G, 0: G, 1: "L", 2: "(LL)", 3: "((LL)L)",
      11: "((((LL)(LL))((LL)L))((LL)(LL)))", ML + 1: S, LR + 1: S}),
    ("build_almost_complete_stepwise", _tree(builders.build_almost_complete_stepwise),
     {-1: G, 0: G, 1: "L", 2: "(LL)", 3: "((LL)L)",
      11: "((((LL)(LL))((LL)L))((LL)(LL)))", ML + 1: S, LR + 1: S}),
    ("build_binary_caterpillar", _tree(builders.build_binary_caterpillar),
     {0: G, 1: G, 2: "(LL)", 3: "(L(LL))", 5: "(L(L(L(LL))))", ML + 1: S}),
    ("build_starlike arm", lambda a: serialize(builders.build_starlike((2, a))),
     {-1: G, 0: G, 1: "((L)L)", 3: "((L)((L)))", MO - 2: S}),
    ("build_complete_kary order", lambda n: serialize(builders.build_complete_kary(n, 3)),
     {0: G, 1: "L", 2: "(L)", 4: "(LLL)", 5: "((L)LL)", MO + 1: S}),
    ("build_complete_kary k", lambda k: serialize(builders.build_complete_kary(5, k)),
     {1: G, 2: "((LL)L)", 3: "((L)LL)", 4: "(LLLL)", 10**6: "(LLLL)"}),
    ("floor_log2", formulas.floor_log2,
     {-1: G, 0: G, 1: 0, 2: 1, 7: 2, 8: 3, 2**100: 100}),
    ("intlog base", lambda b: formulas.intlog(b, 100),
     {1: G, 2: 6, 3: 4, 10: 2, 100: 1, 101: 0}),
    ("intlog x", lambda x: formulas.intlog(3, x),
     {-1: G, 0: G, 1: 0, 2: 0, 3: 1, 80: 3, 81: 4}),
    ("zero_bits", formulas.zero_bits, {-1: G, 0: G, 1: 0, 2: 1, 8: 3, 11: 1}),
    ("max_security", formulas.max_security,
     {-1: G, 0: G, 1: 0, 2: 1, 7: 8, 11: 15, LR: 2147483616, LR + 1: S}),
    ("power_spine_security", formulas.power_spine_security,
     {0: G, 1: 0, 2: 1, 7: 8, 11: 15, LR: 2147483616, LR + 1: S}),
    ("complete_binary_security", formulas.complete_binary_security,
     {-1: G, 0: 0, 1: 1, 3: 11, 60: 2305843009213693890}),
    ("max_root_rank_general", lambda n: formulas.max_root_rank_general(n).value,
     {-1: G, 0: G, 1: 0, 9: 8}),
    ("max_root_rank_starlike order", lambda n: formulas.max_root_rank_starlike(n, 3).value,
     {3: G, 4: 1, 10: 3}),
    ("max_root_rank_starlike k", lambda k: formulas.max_root_rank_starlike(10, k).value,
     {0: G, 1: 9, 3: 3, 9: 1, 10: G}),
    ("max_root_rank_kary order", lambda n: formulas.max_root_rank_kary(n, 2).value,
     {0: G, 1: 0, 2: 0, 3: 1, 6: 1, 7: 2}),
    ("max_root_rank_kary k", lambda k: formulas.max_root_rank_kary(13, k).value,
     {1: G, 2: 2, 3: 2, 4: 1, 12: 1, 13: 0, 14: 0}),
    ("enumerate_shapes", _shapes(exhaustive.enumerate_shapes),
     {0: G, 1: ["L"], 2: ["(LL)"],
      5: ["(L(L(L(LL))))", "(L((LL)(LL)))", "((LL)(L(LL)))"], 23: S}),
    ("count_shapes", exhaustive.count_shapes,
     {0: G, 1: 1, 2: 1, 7: 11, 22: 1563372, 23: S}),
    ("brute_force_extremes", lambda n: tuple(exhaustive.brute_force_extremes(n))[:4],
     {0: G, 1: (1, 1, 0, 1), 7: (7, 11, 8, 4), 23: S}),
    ("maximizer_shapes", _shapes(exhaustive.maximizer_shapes),
     {0: G, 1: ["L"], 5: ["(L((LL)(LL)))", "((LL)(L(LL)))"], 23: S}),
    ("census_table", lambda n: tuple(exhaustive.census_table(n)[-1])[:4],
     {0: G, 1: (1, 1, 0, 1), 7: (7, 11, 8, 4), 20: (20, 293547, 33, 2),
      21: (21, 676157, 34, 7), 22: (22, 1563372, 36, 9), 23: S}),
    ("enumerate_kary_trees n", lambda n: len(list(exhaustive.enumerate_kary_trees(n))),
     {0: G, 1: 1, 4: 4, 11: 1842, 12: S}),
    ("enumerate_kary_trees k", lambda k: len(list(exhaustive.enumerate_kary_trees(5, k))),
     {0: G, 1: 1, 2: 6, 3: 8, 4: 9, 100: 9}),
    ("brute_force_max_root_rank n",
     lambda n: tuple(exhaustive.brute_force_max_root_rank(n)),
     {0: G, 1: (0, 0, 1), 6: (5, 5, 20), 11: (10, 10, 1842), 12: S}),
    ("brute_force_max_root_rank k",
     lambda k: tuple(exhaustive.brute_force_max_root_rank(6, k)),
     {0: G, 1: (5, 5, 1), 2: (5, 5, 11), 5: (5, 5, 20), 6: (5, 5, 20)}),
    ("brute_force_max_root_rank root_degree",
     lambda d: tuple(exhaustive.brute_force_max_root_rank(5, root_degree=d)),
     {-1: G, 0: G, 1: (4, 4, 4), 2: (2, 2, 3), 4: (1, 1, 1), 5: G}),
    ("protected_count", lambda level: trees.protected_count(_T, level),
     {-1: G, 0: 5, 1: 2, 2: 0, 3: 0, 10**9: 0}),
]

# (guard name, lowered value, call, {int: result}) for the builders' upper
# edges: the largest accepted count builds, the next is refused
BUILDER_TOPS = [
    ("MAX_COMPLETE_HEIGHT", 2, _tree(builders.build_complete_binary),
     {2: "((LL)(LL))", 3: S}),
    ("MAX_LEAVES", 4, _tree(builders.build_power_spine), {4: "((LL)(LL))", 5: S}),
    ("MAX_LEAVES", 4, _tree(builders.build_almost_complete), {4: "((LL)(LL))", 5: S}),
    ("MAX_LEAVES", 4, _tree(builders.build_almost_complete_stepwise),
     {4: "((LL)(LL))", 5: S}),
    ("MAX_LEAVES", 4, _tree(builders.build_binary_caterpillar),
     {4: "(L(L(LL)))", 5: S}),
    ("MAX_ORDER", 6, lambda a: serialize(builders.build_starlike((2, a))),
     {3: "((L)((L)))", 4: S}),
    ("MAX_ORDER", 6, lambda n: serialize(builders.build_complete_kary(n, 3)),
     {6: "((LL)LL)", 7: S}),
]


def _observe(call, value):
    try:
        return call(value)
    except TreesecError as e:
        return type(e)


def _ids(rows):
    return [row[0] for row in rows]


@pytest.mark.parametrize("name, call, edges", ROWS, ids=_ids(ROWS))
def test_int_counts_behave_as_the_range_checks_did(name, call, edges):
    assert {value: _observe(call, value) for value in edges} == edges


@pytest.mark.parametrize(
    "guard, lowered, call, edges",
    BUILDER_TOPS,
    ids=[f"{guard}-{i}" for i, (guard, *_) in enumerate(BUILDER_TOPS)],
)
def test_builder_guards_are_inclusive(monkeypatch, guard, lowered, call, edges):
    monkeypatch.setattr(builders, guard, lowered)
    assert {value: _observe(call, value) for value in edges} == edges


@pytest.mark.parametrize("name, call, edges", ROWS, ids=_ids(ROWS))
@pytest.mark.parametrize("value", [2.0, True, "3"])
def test_non_int_counts_are_refused(name, call, edges, value):
    with pytest.raises(GuardError, match="must be an integer$"):
        call(value)


def test_count_messages():
    count = errors._count
    assert count(3, "order", 1, 3) == 3
    for value in (3.0, False, None):
        with pytest.raises(GuardError, match="^order must be an integer$"):
            count(value, "order", 1)
    with pytest.raises(GuardError, match="^order must be at least 1$"):
        count(0, "order", 1, 3)
    with pytest.raises(SizeError, match=r"^order over guard \(3\)$"):
        count(4, "order", 1, 3)
