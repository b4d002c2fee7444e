"""Closed-form security and root-rank maxima, as pure integer functions.

All logarithms are evaluated with exact integer arithmetic (bit length and
repeated multiplication); no floating point is involved anywhere.
"""

from collections import namedtuple

from .errors import _count

__all__ = [
    "BoundReport",
    "floor_log2",
    "intlog",
    "zero_bits",
    "max_security",
    "power_spine_security",
    "complete_binary_security",
    "max_root_rank_general",
    "max_root_rank_starlike",
    "max_root_rank_kary",
]

# the leaf counts the closed forms and binary power representations accept
LEAF_RANGE = 1 << 30


def floor_log2(x):
    """floor(log2(x)) for a positive integer."""
    _count(x, "argument", 1)
    return x.bit_length() - 1


def intlog(base, x):
    """floor(log_base(x)): the largest e with base**e <= x."""
    _count(base, "base", 2)
    _count(x, "argument", 1)
    e = 0
    power = base
    while power <= x:
        e += 1
        power *= base
    return e


def zero_bits(x):
    """Number of zero bits in the binary expansion of a positive integer."""
    _count(x, "argument", 1)
    return x.bit_length() - x.bit_count()


def max_security(leaves):
    """Maximum security over all proper binary trees with ``leaves`` leaves.

    Equals 2*(leaves - floor_log2(leaves) - 1) + zero_bits(leaves), which is
    attained by :func:`~treesec.builders.build_power_spine` (and by
    :func:`~treesec.builders.build_almost_complete`).
    """
    _count(leaves, "leaf count", 1, LEAF_RANGE)
    return 2 * (leaves - floor_log2(leaves) - 1) + zero_bits(leaves)


def power_spine_security(leaves):
    """Security of the power-spine tree in closed form: 2*leaves - n1 - k - 1
    where (n1, ..., nk) is the binary power representation of ``leaves``,
    so n1 is the place of its top bit and k the number of its set bits.

    Identical to :func:`max_security` for every leaf count.
    """
    _count(leaves, "leaf count", 1, LEAF_RANGE)
    return 2 * leaves - (leaves.bit_length() - 1) - leaves.bit_count() - 1


def complete_binary_security(height):
    """Security of the complete binary tree: 2**(height+1) - height - 2."""
    _count(height, "height", 0)
    return (1 << (height + 1)) - height - 2


BoundReport = namedtuple("BoundReport", "value")
BoundReport.__doc__ = "A closed-form maximum."


def max_root_rank_general(order):
    """Maximum root rank over all rooted trees of the given order: order - 1,
    attained exactly by a path rooted at one of its ends."""
    _count(order, "order", 1)
    return BoundReport(value=order - 1)


def max_root_rank_starlike(order, k):
    """Maximum root rank over trees of the given order whose root has degree
    k: floor((order-1)/k), attained by a starlike tree whose shortest arm
    has that length."""
    _count(k, "root degree", 1)
    _count(order, "order", k + 1)
    return BoundReport(value=(order - 1) // k)


def max_root_rank_kary(order, k):
    """Maximum root rank over trees of the given order whose internal vertices
    all have at least k children, as over the proper k-ary trees (outdegrees
    0 or k, orders 1 mod k): floor(log_k(order*(k-1)+1)) - 1, the complete
    k-ary tree's root rank.  Outdegrees at most k admit a path (order - 1).
    The value is h-1 exactly when (k**h - 1)/(k-1) <= order < (k**(h+1) - 1)/(k-1).
    """
    _count(k, "arity", 2)
    _count(order, "order", 1)
    return BoundReport(value=intlog(k, order * (k - 1) + 1) - 1)
