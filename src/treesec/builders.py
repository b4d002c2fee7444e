"""Builders for the extremal tree families.

Every builder returns a fresh :class:`~treesec.trees.RootedTree`; all are
pure functions and safe for concurrent use.  Size guards keep requests at a
scale the arena representation can actually hold.
"""

from itertools import chain, tee

from .errors import GuardError, _count
from .formulas import LEAF_RANGE
from .trees import RootedTree

__all__ = [
    "binary_power_representation",
    "build_complete_binary",
    "build_power_spine",
    "build_almost_complete",
    "build_almost_complete_stepwise",
    "build_binary_caterpillar",
    "build_starlike",
    "build_complete_kary",
]

MAX_LEAVES = 1 << 25
MAX_COMPLETE_HEIGHT = MAX_LEAVES.bit_length() - 1
MAX_ORDER = 2 * MAX_LEAVES


def binary_power_representation(leaves):
    """Strictly decreasing exponents (n1, ..., nk) with sum 2**ni = leaves.

    This is the unique representation of ``leaves`` as a sum of distinct
    powers of two, i.e. the positions of its set bits, largest first.
    """
    _count(leaves, "leaf count", 1, LEAF_RANGE)
    return tuple(i for i in range(leaves.bit_length() - 1, -1, -1) if (leaves >> i) & 1)


def _heap(parents, parent_of_root, order, k=2):
    """Append ``order`` vertices in level order, k children per vertex:
    vertex ``off + i`` hangs from ``off + (i - 1) // k``, where ``off`` is
    the new root's id, so parents precede children; ``tee`` hands a
    vertex's k children the one int object of its id.

    No vertex can have more than ``order - 1`` children, so a larger k
    changes nothing and is clamped, which keeps the work linear in ``order``.
    """
    off = len(parents)
    parents.append(parent_of_root)
    k = min(k, max(order - 1, 1))
    full, rest = divmod(order - 1, k)
    run = range(off, off + full)
    parents.extend(run if k == 1 else chain.from_iterable(zip(*tee(run, k))))
    parents.extend([off + full] * rest)


def build_complete_binary(height):
    """Complete binary tree: 2**height leaves, all at depth ``height``."""
    _count(height, "height", 0, MAX_COMPLETE_HEIGHT)
    return build_almost_complete(1 << height)


def _spine_parents(blocks):
    """Parent array of a spine-of-complete-subtrees tree: a path hangs from
    the root, each path vertex carrying one block, the last block nearest
    the root, and the path ends in the first block.  A block is the height
    of a complete subtree, or a pair of heights for a vertex carrying two
    complete subtrees."""
    parents = []
    prev = -1
    for j in range(len(blocks) - 1, -1, -1):
        if j:
            parents.append(prev)
            prev = len(parents) - 1
        block = blocks[j]
        if isinstance(block, tuple):
            pair = len(parents)
            parents.append(prev)
            for height in block:
                _heap(parents, pair, (2 << height) - 1)
        else:
            _heap(parents, prev, (2 << block) - 1)
    return parents


def build_power_spine(leaves):
    """The maximal-security proper binary tree on ``leaves`` leaves built
    from the binary power representation.

    A complete binary subtree for each set bit of ``leaves`` hangs off a
    path from the root, smallest subtree nearest the root.  For a power of
    two this degenerates to the complete binary tree itself.  Its partition
    vector equals :func:`binary_power_representation` of ``leaves``.
    """
    _count(leaves, "leaf count", 1, MAX_LEAVES)
    return RootedTree._make(_spine_parents(binary_power_representation(leaves)))


def build_almost_complete(leaves):
    """The almost complete proper binary tree on ``leaves`` leaves.

    Start from the complete binary tree of height floor(log2(leaves)) and
    give each of the first ``leaves - 2**height`` leaves (left to right) two
    children.  All leaves end up on at most two consecutive levels, and its
    security equals that of :func:`build_power_spine`.
    """
    _count(leaves, "leaf count", 1, MAX_LEAVES)
    parents = []
    _heap(parents, -1, 2 * leaves - 1)
    return RootedTree._make(parents)


def build_almost_complete_stepwise(leaves):
    """Same family as :func:`build_almost_complete`, built incrementally.

    One block of the binary power representation is absorbed per step: the
    leftmost undisturbed complete subtree of the next size down is expanded
    by one level.  Produces a tree isomorphic to the direct construction;
    renumbered in level order, with each vertex's children taken by
    increasing id, its parent array equals the direct one.
    """
    _count(leaves, "leaf count", 1, MAX_LEAVES)
    rep = binary_power_representation(leaves)
    parents = []
    _heap(parents, -1, (2 << rep[0]) - 1)
    # Every block expanded below is an undisturbed subtree of that first
    # heap, so heap arithmetic finds it: vertex v has children 2v+1, 2v+2.
    q = 0
    for prev, cur in zip(rep, rep[1:]):
        # rho is q's leftmost descendant prev - cur levels down; q moves on
        # to rho's sibling, the next undisturbed block
        rho = ((q + 1) << (prev - cur)) - 1
        q = rho + 1
        # rho's leaves are 2**cur consecutive ids; expand the highest first
        first = ((rho + 1) << cur) - 1
        run = range(first + (1 << cur) - 1, first - 1, -1)
        parents.extend(chain.from_iterable(zip(*tee(run))))
    return RootedTree._make(parents)


def build_binary_caterpillar(leaves):
    """Proper binary caterpillar: every internal vertex has a leaf child,
    except the deepest one which has two."""
    _count(leaves, "leaf count", 2, MAX_LEAVES)
    # spine vertex v = 0, 2, 4, ... has the leaf v + 1 and the next one
    # v + 2; tee hands both children the one int object of v
    spine = range(0, 2 * leaves - 2, 2)
    return RootedTree._make([-1, *chain.from_iterable(zip(*tee(spine)))])


def build_starlike(arms):
    """Paths of the given lengths sharing one end vertex, which is the root.

    ``arms`` are edge counts; the order is 1 + sum(arms) and the root rank
    equals the shortest arm length.
    """
    arms = tuple(arms)
    if not arms:
        raise GuardError("at least one arm is required")
    for a in arms:
        _count(a, "arm length", 1)
    _count(1 + sum(arms), "order", 2, MAX_ORDER)
    parents = [-1]
    for a in arms:
        _heap(parents, 0, a, 1)
    return RootedTree._make(parents)


def build_complete_kary(order, k):
    """Complete k-ary tree of the given order, filled level by level.

    All outdegrees are k except along the partially filled boundary: leaves
    sit on at most two consecutive levels and at most one vertex mixes leaf
    and non-leaf children.
    """
    _count(k, "arity", 2)
    _count(order, "order", 1, MAX_ORDER)
    parents = []
    _heap(parents, -1, order, k)
    return RootedTree._make(parents)
