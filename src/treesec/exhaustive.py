"""Exhaustive enumeration of tree shapes and brute-force extremes.

This module is the independent check on every closed form in
:mod:`treesec.formulas`: it enumerates all non-isomorphic shapes at desk
scale and measures them directly.  Shapes are generated by unordered
pairing (proper binary) or by multiset composition of child subtrees
(bounded-outdegree), each unordered choice of children once, so nothing
reads the order of a level.  A shape's key is its canonical text in the
package's collation keys (``)`` = 0, ``L`` = 1, ``(`` = 2); texts are
prefix-free, so key order is canonical order, and trees come from
:func:`treesec.trees.parse` alone, so canonical ids are its preorder ids.

A proper binary level is stored by root rank: :func:`_bshapes` makes
``secs[n][r]``, a ``bytearray`` with one security byte per n-leaf shape of
root rank r, so a shape's rank is its group's index.  One walk,
:func:`_class_pairs`, grows each proper binary table: it runs the leaf
guard, lays out each level by root rank and yields the unordered pairs of
(leaf count, root rank) classes of that level that hold shapes (rank 0
only at one leaf), and a table gives only its one-leaf value and what a
pair adds.  Every pair from two classes has root rank ``min(rx, ry) + 1``,
so the securities of x's pairs with a class are one ``bytes.translate`` of
that class's bytes that adds x's security and that rank (mod 256; at the
guard no security plus rank exceeds 36 + 4), and measuring makes no key.
:func:`_bkeys` runs the same walk over keys, and only the functions that
output shapes run it.  Every subtree of a maximizer is best in its class,
so :func:`maximizer_shapes` makes keys only for the best shapes of each
class; :func:`_bshapes` reads each class best off its bytes after the
walk, so every best is a measured security.  The listed level is never
stored: ``(AB)`` with A <= B orders by A, then by B, so :func:`_shape_blocks`
sorts the first halves A once and pairs each with the other half's keys >= A.

A bounded-outdegree shape is ``(canon, root_rank, max_rank, degree)``:
``canon`` is its key, unique within a table, so tuple order is canonical
order.  Proper k-ary shapes (outdegrees 0 or exactly k) are generated, not
filtered: from proper levels, k at a time.

The census counts come from :func:`_shape_classes`, a recurrence that runs
the same walk on counts: ``classes[n][r]`` is ``{security: count}`` over
the n-leaf shapes of root rank r, indexed as ``secs[n][r]`` is, and it
takes nothing from :mod:`treesec.formulas`.  :func:`count_shapes` and
:func:`census_table` read it, the latter through :func:`_census_counts`,
whose counts the CLI's ``table`` renders without making a row.  ``verify``
and every function that yields shapes measure the enumeration instead, so
enumeration stays the oracle for the closed forms and the recurrence.  No
table outlives its call.  Each check runs on one build: ``verify`` reads the
class bests of one :func:`_bshapes` build for all its leaf counts, and
:func:`_root_rank_rows` measures all the orders of one root-rank check on
one :func:`_kshapes` build.
"""

from collections import Counter, namedtuple
from itertools import chain, combinations_with_replacement, islice

from . import _CLOSE_KEY, _KEY_TEXT, _LEAF_KEY, _OPEN_KEY
from .errors import GuardError, SizeError, _count

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

# texts translated at a time, and lines per write of the ``enumerate``
# listing, so an unbuffered stdout is not one syscall per shape
_TEXT_BLOCK = 4096


def _class_pairs(leaves, table):
    """Grow ``table`` from its level 1 to ``leaves`` leaves.  Each level n
    is appended as ``n.bit_length()`` fresh values of the level-1 type, one
    per root rank, before the walk yields ``(n, a, rx, b, ry, rank)`` for
    each unordered pair of root-rank classes that makes n-leaf shapes (a <=
    b = n - a, ry >= rx where the halves are equal; no class of rank 0 past
    one leaf, which holds none); every pair of shapes from the two classes
    has root rank ``rank``."""
    _count(leaves, "leaf count", 1, MAX_ENUM_LEAVES)
    fresh = type(table[1][0])
    for n in range(2, leaves + 1):
        table.append([fresh() for _ in range(n.bit_length())])
        for a in range(1, n // 2 + 1):
            b = n - a
            for rx in range(a > 1, a.bit_length()):
                for ry in range(rx if a == b else 1, b.bit_length()):
                    yield n, a, rx, b, ry, (rx if rx < ry else ry) + 1


def _bshapes(leaves):
    """The securities of levels 1..``leaves`` and their class bests, built
    for this call: ``secs[n][r]`` holds one byte per n-leaf shape of root
    rank r, and ``best[n][r]`` is their best security, or -1 where there
    are none.  Each best is read off the enumerated bytes, stepping down
    from 2n, which no n-leaf shape reaches: a vertex of rank >= j has two
    children of rank >= j - 1, so such vertices at least halve per level."""
    # shifts[c] adds c to a byte (mod 256, which no stored security nears),
    # so the securities of x's pairs are one translate of its partners'
    ring = bytes(range(256)) * 2
    shifts = [ring[c : c + 256] for c in range(256)]
    secs = [None, [bytearray(1)]]
    for n, a, rx, b, ry, rank in _class_pairs(leaves, secs):
        xs, ys, out = secs[a][rx], secs[b][ry], secs[n][rank]
        for i, sx in enumerate(xs):
            out += ys[i if xs is ys else 0 :].translate(shifts[sx + rank])
    best = [None]
    for n, level in enumerate(secs[1:], 1):
        down = range(2 * n, -1, -1)
        best.append([next((s for s in down if s in group), -1) for group in level])
    return secs, best


def _joined(kx, kys):
    """The keys of the pairs of the key ``kx`` with each of ``kys``, in order."""
    return (
        f"{_OPEN_KEY}{kx}{ky}{_CLOSE_KEY}" if kx < ky else f"{_OPEN_KEY}{ky}{kx}{_CLOSE_KEY}"
        for ky in kys
    )


def _bkeys(top, best=None):
    """The keys of levels 1..``top``: ``keys[n][r]`` holds the n-leaf shapes
    of root rank r.  Given ``best`` from :func:`_bshapes`, only those of
    the class best, paired from the class pairs whose bests sum to it."""
    keys = [None, [[_LEAF_KEY]]]
    for n, a, rx, b, ry, rank in _class_pairs(top, keys):
        if best and best[a][rx] + best[b][ry] + rank != best[n][rank]:
            continue
        xs, ys, out = keys[a][rx], keys[b][ry], keys[n][rank]
        for i, kx in enumerate(xs):
            out += _joined(kx, ys[i if xs is ys else 0 :])
    return keys


def _text_blocks(keys):
    """The canonical texts of ``keys``, in their order, in blocks of
    ``_TEXT_BLOCK`` texts joined by newlines, each translated at once."""
    keys = iter(keys)
    while block := "\n".join(islice(keys, _TEXT_BLOCK)):
        yield block.translate(_KEY_TEXT)


def _parsed(blocks):
    """The trees of the texts of ``blocks``, one by one."""
    from .trees import parse

    for block in blocks:
        yield from map(parse, block.split("\n"))


def _shape_blocks(leaves):
    """Canonical texts of the ``leaves``-leaf shapes, in canonical order, in
    blocks (see :func:`_text_blocks`), paired from the sorted lower levels."""
    from bisect import bisect_left, bisect_right

    _count(leaves, "leaf count", 1, MAX_ENUM_LEAVES)
    if leaves == 1:
        return _text_blocks([_LEAF_KEY])
    levels = _bkeys(leaves - 1)
    for n in range(1, leaves):
        levels[n] = sorted(chain.from_iterable(levels[n]))

    def pairs(kx):  # an a-leaf text has 3a - 2 characters
        kys = levels[leaves - (len(kx) + 2) // 3]
        return _joined(kx, kys[bisect_left(kys, kx) :])

    # a key above every key of the other half pairs with nothing
    cuts = (bisect_right(levels[a], levels[leaves - a][-1]) for a in range(1, leaves))
    firsts = sorted(chain.from_iterable(map(islice, levels[1:], cuts)))
    return _text_blocks(chain.from_iterable(map(pairs, firsts)))


def enumerate_shapes(leaves):
    """Yield every non-isomorphic proper binary tree with the given number
    of leaves exactly once, in canonical (serialization) order.

    Each tree is already in canonical form: its ids are in canonical
    preorder and its children are stored in canonical order, so
    ``serialize(t)`` equals ``serialize(t, canonical=True)``."""
    yield from _parsed(_shape_blocks(leaves))


def _shape_classes(leaves):
    """``classes[n][r]`` is ``{security: count}`` over the n-leaf proper
    binary shapes of root rank r, for n in 1..``leaves``, by the pairing
    recurrence alone: the walk of :func:`_class_pairs` on counts."""
    classes = [None, [Counter({0: 1})]]
    for n, a, rx, b, ry, rank in _class_pairs(leaves, classes):
        xs, ys, out = classes[a][rx], classes[b][ry], classes[n][rank]
        for sx, cx in xs.items():
            for sy, cy in ys.items():
                if xs is not ys or sx < sy:
                    out[sx + sy + rank] += cx * cy
                elif sx == sy:  # c shapes of one class make c(c+1)/2 pairs
                    out[sx + sy + rank] += cx * (cx + 1) // 2
    return classes


def count_shapes(leaves):
    """Number of non-isomorphic proper binary trees with ``leaves`` leaves."""
    return sum(group.total() for group in _shape_classes(leaves)[leaves])


ShapeCensus = namedtuple(
    "ShapeCensus",
    "leaf_count total_shapes max_security maximizer_count maximizer_fraction",
)
ShapeCensus.__doc__ = """Exhaustive security census over one leaf count; the
fraction is a :class:`fractions.Fraction`."""


def _census_row(leaves, total, best, count):
    """The census row of one leaf count: ``total`` shapes, of which
    ``count`` have the best security ``best``."""
    from fractions import Fraction

    return ShapeCensus(
        leaf_count=leaves,
        total_shapes=total,
        max_security=best,
        maximizer_count=count,
        maximizer_fraction=Fraction(count, total),
    )


def brute_force_extremes(leaves):
    """Measure every shape: the exact maximum security, how many shapes
    attain it, and the fraction of shapes that do."""
    secs, best = _bshapes(leaves)
    level, top = secs[leaves], max(best[leaves])
    count = sum(group.count(top) for group in level)
    return _census_row(leaves, sum(map(len, level)), top, count)


def maximizer_shapes(leaves):
    """Yield the maximum-security shapes for one leaf count, in canonical
    order.  Every subtree of a maximizer has the best security of its
    (leaf count, root rank) class, so keys are made only for such shapes;
    each class's best is measured on the enumerated securities."""
    best = _bshapes(leaves)[1]
    top = max(best[leaves])
    level = zip(_bkeys(leaves, best)[leaves], best[leaves])
    found = chain.from_iterable(keys for keys, sec in level if sec == top)
    yield from _parsed(_text_blocks(sorted(found)))


def _census_counts(max_leaves):
    """``(leaves, shapes, max_security, maximizers)`` per leaf count in
    [1, max_leaves]: a census row without its fraction."""
    counts = []
    for leaves, level in enumerate(_shape_classes(max_leaves)[1:], 1):
        by_security = Counter()
        for group in level:
            by_security.update(group)
        best = max(by_security)
        counts.append((leaves, by_security.total(), best, by_security[best]))
    return counts


def census_table(max_leaves):
    """One census row per leaf count in [1, max_leaves]."""
    return [_census_row(*counts) for counts in _census_counts(max_leaves)]


def census_tsv(rows):
    """Render census rows as TSV; fractions stay exact (no floating point).
    Only a row's first four fields are read, so :func:`_census_counts`
    renders as the rows made from it do."""
    lines = ["leaves\tshapes\tmax_security\tmaximizers\tfraction"]
    for leaves, total, best, count, *_ in rows:
        lines.append(f"{leaves}\t{total}\t{best}\t{count}\t{count}/{total}")
    return "\n".join(lines) + "\n"


def _kary_guard(n, k, proper=False):
    if proper and k is None:
        raise GuardError("proper enumeration needs an arity bound")
    _count(n, "order", 1)
    if k is not None:
        _count(k, "arity", 1)
    limit = {1: 64, 2: 14, 3: 12}.get(k, 11)
    if proper:  # less its leaves, a proper shape is an at-most-k one, 1:1
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
    """The levels of orders 1..``n``, built for this call after the order
    guard: ``levels[m]`` holds the shapes of order m with outdegrees at
    most ``k`` (with ``proper``, exactly 0 or k), in generation order."""
    _kary_guard(n, k, proper)
    levels = [None, [(_LEAF_KEY, 0, 0, 0)]]
    for order in range(2, n + 1):
        level = []
        for kids in _kid_multisets(order - 1, order - 1, k or order - 1, levels, proper):
            canons, ranks, tops, _ = zip(*sorted(kids))
            root_rank = 1 + min(ranks)
            canon = _OPEN_KEY + "".join(canons) + _CLOSE_KEY
            level.append((canon, root_rank, max(root_rank, *tops), len(canons)))
        levels.append(level)
    return levels


def enumerate_kary_trees(n, k=None, proper=False):
    """Yield every non-isomorphic rooted tree of order ``n`` with outdegrees
    at most ``k`` (k None = unbounded) exactly once, in canonical order.

    With ``proper=True`` (requires k), only trees whose outdegrees are all 0
    or exactly k are yielded; for some orders this class is empty.
    """
    yield from _parsed(_text_blocks(sorted(s[0] for s in _kshapes(n, k, proper)[n])))


RootRankExtremes = namedtuple(
    "RootRankExtremes", "max_root_rank max_vertex_rank trees_scanned"
)
RootRankExtremes.__doc__ = "Brute-force root-rank maxima over one class of trees."


def _root_rank_rows(orders, k=None, root_degree=None, proper=False):
    """Yield each of the ascending ``orders`` with its brute-force root-rank
    extremes, all measured on one build of the tables of the last order."""
    if root_degree is not None:
        _count(root_degree, "root degree", 1)
    levels = _kshapes(orders[-1], k, proper)
    for n in orders:
        shapes = [s for s in levels[n] if root_degree is None or s[3] == root_degree]
        if not shapes:
            raise GuardError("no trees of this order in the requested class")
        yield n, RootRankExtremes(
            max_root_rank=max(s[1] for s in shapes),
            max_vertex_rank=max(s[2] for s in shapes),
            trees_scanned=len(shapes),
        )


def brute_force_max_root_rank(n, k=None, root_degree=None, proper=False):
    """Exhaustive maxima of (a) the root rank and (b) the rank over all
    vertices, across trees of order ``n`` with outdegrees at most ``k``;
    with ``root_degree`` set, only trees whose root has that outdegree
    count, and with ``proper=True`` only outdegrees 0 and exactly k occur
    (the class the k-ary root-rank formula is exact for).  For the classes
    without a root-degree restriction the two maxima agree."""
    [(_, extremes)] = _root_rank_rows([n], k, root_degree, proper)
    return extremes
