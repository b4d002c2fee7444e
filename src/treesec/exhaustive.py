"""Exhaustive enumeration of tree shapes and brute-force extremes.

This module is the independent check on every closed form in
:mod:`treesec.formulas`: it enumerates all non-isomorphic shapes at desk
scale and measures them directly.  Shapes are generated by unordered
pairing (proper binary) or by multiset composition of child subtrees
(bounded-outdegree), each unordered choice of children once, so nothing
reads the order of a level; canonical order is applied where shapes are
output, by one sort of the output level.  A shape's key is its canonical
text, so trees come from :func:`treesec.trees.parse` alone and the
canonical ids are parse's preorder ids.

A proper binary shape is ``(key, rank, security)``.  ``key`` is the
canonical text in the collation keys of ``trees`` (``)`` = 0, ``L`` = 1,
``(`` = 2) read as hexadecimal digits and left-aligned in
``3 * MAX_ENUM_LEAVES - 2`` digits, the longest text the guard admits.
Canonical texts are prefix-free, so integer order is canonical order, and
an a-leaf text has 3a - 2 characters, so ``(AB)`` is ``OPEN + (key(A) >>
4) + (key(B) >> 4 * (3a - 1))`` with ``OPEN`` the digit 2 in the top
place.  :func:`_pairs` yields the shapes of one leaf count from the levels
below it.  :func:`_bshapes` stores levels 1..N-1 in columns, a list of
keys and ``bytearray`` ranks and securities (whose ``append`` refuses a
value over 255; at the guard they are at most 4 and 36), and streams level
N: the output level is never stored.

A bounded-outdegree shape is ``(canon, root_rank, max_rank, degree)``:
``canon`` is the canonical text in that collation, as a string unique within
a table, so tuple order is canonical order.  Proper k-ary shapes (outdegrees
0 or exactly k) are generated, not filtered: from proper levels, k at a time.

The census counts come from :func:`_shape_classes`, a recurrence that
counts the proper binary shapes of each leaf count by (root rank,
security), keyed on raw security and taking nothing from
:mod:`treesec.formulas`; :func:`count_shapes` and :func:`census_table` read
it.  ``verify`` and every function that yields shapes measure the
enumeration instead, so enumeration stays the oracle for the closed forms
and the recurrence.  No table outlives its call, and ``verify`` measures
all its leaf counts on one build through :func:`_brute_force_rows`.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import itemgetter

from .errors import GuardError, SizeError
from .trees import _CLOSE_KEY, _KEY_TEXT, _LEAF_KEY, _OPEN_KEY, parse

__all__ = [
    "ShapeCensus",
    "RootRankExtremes",
    "MAX_ENUM_LEAVES",
    "enumerate_shapes",
    "count_shapes",
    "brute_force_extremes",
    "maximizer_shapes",
    "enumerate_kary_trees",
    "brute_force_max_root_rank",
    "census_table",
    "census_tsv",
]

MAX_ENUM_LEAVES = 22
MAX_CENSUS_LEAVES = 20

# A key has one hex digit per character of the longest text the guard
# admits; its top digit is ``L`` for the leaf and ``(`` for every pair.
_HEX = f"0{3 * MAX_ENUM_LEAVES - 2}x"
_BLEAF = 1 << 4 * (3 * MAX_ENUM_LEAVES - 3)
_BOPEN = 2 * _BLEAF


def _leaf_guard(leaves):
    if leaves < 1:
        raise GuardError("leaf count must be at least 1")
    if leaves > MAX_ENUM_LEAVES:
        raise SizeError(f"leaf count over enumeration guard ({MAX_ENUM_LEAVES})")


def _pairs(levels, n):
    """Yield ``(key, rank, security)`` for every n-leaf shape: the leaf, or
    every unordered pair of shapes from ``levels[1..n-1]``."""
    if n == 1:
        yield _BLEAF, 0, 0
    for a in range(1, n // 2 + 1):
        small, big = levels[a], levels[n - a]
        shift_x, shift_y = 4 * (3 * a - 1), 4 * (3 * (n - a) - 1)
        for i, (kx, rx, sx) in enumerate(zip(*small)):
            head = _BOPEN + (kx >> 4)
            for ky, ry, sy in zip(*(c[i:] for c in small) if big is small else big):
                rank = (rx if rx < ry else ry) + 1
                if kx < ky:
                    yield head + (ky >> shift_x), rank, sx + sy + rank
                else:
                    yield _BOPEN + (ky >> 4) + (kx >> shift_y), rank, sx + sy + rank


def _bshapes(leaves):
    """The columns of levels 1..``leaves`` - 1, built for this call, and a
    stream of the ``leaves``-leaf shapes that pairs them."""
    _leaf_guard(leaves)
    levels = [None]
    for n in range(1, leaves):
        keys, ranks, secs = level = ([], bytearray(), bytearray())
        for key, rank, sec in _pairs(levels, n):
            keys.append(key)
            ranks.append(rank)
            secs.append(sec)
        levels.append(level)
    return levels, _pairs(levels, leaves)


def _texts(keys, leaves):
    """The canonical texts of the ``leaves``-leaf ``keys``, sorted in place."""
    keys.sort()
    cut = 3 * leaves - 2
    for key in keys:
        yield format(key, _HEX)[:cut].translate(_KEY_TEXT)


def _shape_texts(leaves):
    """Canonical texts of the ``leaves``-leaf shapes, in canonical order."""
    return _texts([key for key, _, _ in _bshapes(leaves)[1]], leaves)


def enumerate_shapes(leaves):
    """Yield every non-isomorphic proper binary tree with the given number
    of leaves exactly once, in canonical (serialization) order.

    Each tree is already in canonical form: its ids are in canonical
    preorder and its children are stored in canonical order, so
    ``serialize(t)`` equals ``serialize(t, canonical=True)``."""
    for text in _shape_texts(leaves):
        yield parse(text)


def _shape_classes(leaves):
    """``levels[a]`` is ``{(root rank, security): count}`` over the proper
    binary shapes on a leaves, for a in 1..``leaves``, by the pairing
    recurrence alone."""
    _leaf_guard(leaves)
    levels = [None, Counter({(0, 0): 1})]
    for n in range(2, leaves + 1):
        out = Counter()
        for a in range(1, n // 2 + 1):
            small = list(levels[a].items())
            big = small if 2 * a == n else list(levels[n - a].items())
            for i, ((rx, sx), cx) in enumerate(small):
                for j, ((ry, sy), cy) in enumerate(small[i:] if big is small else big):
                    rank = (rx if rx < ry else ry) + 1
                    # c shapes of one class make c(c+1)/2 unordered pairs
                    same = big is small and j == 0
                    out[rank, sx + sy + rank] += cx * (cx + 1) // 2 if same else cx * cy
        levels.append(out)
    return levels


def count_shapes(leaves):
    """Number of non-isomorphic proper binary trees with ``leaves`` leaves."""
    return sum(_shape_classes(leaves)[leaves].values())


@dataclass(frozen=True)
class ShapeCensus:
    """Exhaustive security census over one leaf count."""

    leaf_count: int
    total_shapes: int
    max_security: int
    maximizer_count: int
    maximizer_fraction: Fraction


def _census_row(leaves, by_security):
    """The census row of one leaf count from its ``{security: count}``."""
    total = sum(by_security.values())
    best = max(by_security)
    count = by_security[best]
    return ShapeCensus(
        leaf_count=leaves,
        total_shapes=total,
        max_security=best,
        maximizer_count=count,
        maximizer_fraction=Fraction(count, total),
    )


def _brute_force_rows(max_leaves):
    """The brute-force census rows of 1..``max_leaves`` leaves, measured on
    one build of the shape tables."""
    levels, top = _bshapes(max_leaves)
    for leaves, (_, _, secs) in enumerate(levels[1:], 1):
        yield _census_row(leaves, Counter(secs))
    yield _census_row(max_leaves, Counter(map(itemgetter(2), top)))


def brute_force_extremes(leaves):
    """Measure every shape: the exact maximum security, how many shapes
    attain it, and the fraction of shapes that do."""
    *_, row = _brute_force_rows(leaves)
    return row


def maximizer_shapes(leaves):
    """Yield the maximum-security shapes for one leaf count, in canonical
    order (streamed; only the keys of the best security so far are kept).
    The best security is measured on the same enumerated level."""
    best, keys = -1, []
    for key, _, sec in _bshapes(leaves)[1]:
        if sec > best:
            best, keys = sec, []
        if sec == best:
            keys.append(key)
    for text in _texts(keys, leaves):
        yield parse(text)


def census_table(max_leaves):
    """One census row per leaf count in [1, max_leaves]."""
    if max_leaves < 1:
        raise GuardError("max leaves must be at least 1")
    if max_leaves > MAX_CENSUS_LEAVES:
        raise SizeError(f"census guard is {MAX_CENSUS_LEAVES} leaves")
    rows = []
    for leaves, classes in enumerate(_shape_classes(max_leaves)[1:], 1):
        by_security = Counter()
        for (_, sec), count in classes.items():
            by_security[sec] += count
        rows.append(_census_row(leaves, by_security))
    return rows


def census_tsv(rows):
    """Render census rows as TSV; fractions stay exact (no floating point)."""
    lines = ["leaves\tshapes\tmax_security\tmaximizers\tfraction"]
    for r in rows:
        frac = f"{r.maximizer_count}/{r.total_shapes}"
        lines.append(
            f"{r.leaf_count}\t{r.total_shapes}\t{r.max_security}"
            f"\t{r.maximizer_count}\t{frac}"
        )
    return "\n".join(lines) + "\n"


_KLEAF = (_LEAF_KEY, 0, 0, 0)


def _kary_guard(n, k, proper=False):
    if n < 1:
        raise GuardError("order must be at least 1")
    if k is not None and k < 1:
        raise GuardError("arity must be at least 1")
    limit = {1: 64, 2: 14, 3: 12}.get(k, 11)
    if proper and k:  # less its leaves, a proper shape is an at-most-k one, 1:1
        limit = min(limit * k + 1, 67)  # k = 6's limit: every order is walked
    if n > limit:
        raise SizeError(f"order over enumeration guard ({limit} for this arity)")


def _kid_multisets(total, cap, parts, levels, exact):
    """Multisets of at most (with ``exact``, exactly) ``parts`` child shapes,
    none of order above ``cap``, whose orders sum to ``total``; each is a
    tuple of shapes drawn from ``levels[order]``."""
    if total == 0 and (parts == 0 or not exact):
        yield ()  # the loop below is empty at total 0
    for size in range(min(cap, total), 0, -1):
        if size * parts < total:
            break  # the parts left cannot hold the rest
        pool = levels[size]
        if not pool:
            continue
        for copies in range(1, total // size + 1):
            left = total - size * copies
            rests = list(_kid_multisets(left, size - 1, parts - copies, levels, exact))
            for picks in combinations_with_replacement(pool, copies):
                for rest in rests:
                    yield picks + rest


def _kshapes(n, k, proper):
    """The shapes of order ``n`` with outdegrees at most ``k`` (with
    ``proper``, exactly 0 or k), in generation order, from the tables of
    orders 1..n built for this call."""
    levels = [None, [_KLEAF]]
    for order in range(2, n + 1):
        level = []
        for kids in _kid_multisets(order - 1, order - 1, k or order - 1, levels, proper):
            kids = sorted(kids)
            root_rank = 1 + min(s[1] for s in kids)
            level.append(
                (
                    _OPEN_KEY + "".join(s[0] for s in kids) + _CLOSE_KEY,
                    root_rank,
                    max(root_rank, *(s[2] for s in kids)),
                    len(kids),
                )
            )
        levels.append(level)
    return levels[n]


def _kary_class(n, k, root_degree, proper):
    """The shapes of order ``n`` with outdegrees at most ``k`` (with
    ``proper``, exactly 0 or k), in generation order, kept to a root
    outdegree of ``root_degree`` (None = any)."""
    _kary_guard(n, k, proper)
    if proper and k is None:
        raise GuardError("proper enumeration needs an arity bound")
    for shape in _kshapes(n, k, proper):
        if root_degree is None or shape[3] == root_degree:
            yield shape


def enumerate_kary_trees(n, k=None, proper=False):
    """Yield every non-isomorphic rooted tree of order ``n`` with outdegrees
    at most ``k`` (k None = unbounded) exactly once, in canonical order.

    With ``proper=True`` (requires k), only trees whose outdegrees are all 0
    or exactly k are yielded; for some orders this class is empty.
    """
    for shape in sorted(_kary_class(n, k, None, proper)):
        yield parse(shape[0].translate(_KEY_TEXT))


@dataclass(frozen=True)
class RootRankExtremes:
    """Brute-force root-rank maxima over one enumerated class of trees."""

    max_root_rank: int
    max_vertex_rank: int
    trees_scanned: int


def brute_force_max_root_rank(n, k=None, root_degree=None, proper=False):
    """Exhaustive maxima of (a) the root rank and (b) the rank over all
    vertices, across trees of order ``n`` with outdegrees at most ``k``;
    with ``root_degree`` set, only trees whose root has that outdegree
    count, and with ``proper=True`` only outdegrees 0 and exactly k occur
    (the class the k-ary root-rank formula is exact for).  For the classes
    without a root-degree restriction the two maxima agree."""
    shapes = list(_kary_class(n, k, root_degree, proper))
    if not shapes:
        raise GuardError("no trees of this order in the requested class")
    return RootRankExtremes(
        max_root_rank=max(s[1] for s in shapes),
        max_vertex_rank=max(s[2] for s in shapes),
        trees_scanned=len(shapes),
    )
