"""Seeded benchmark inputs and the golden values that check them.

Nothing here imports treesec: every check is made by code that shares no
logic with the library under test.
"""

from collections import namedtuple

# Canonical child order of the library's text format: at every position a
# closed group beats a leaf beats an opening group.
_COLLATION = str.maketrans(")L(", "012")


_MIRROR = str.maketrans("()", ")(")


def _collate(s):
    return s.translate(_COLLATION)


def grow_proper_binary(rng, leaves, spine_bias=0.0):
    """Text of a random proper binary tree with ``leaves`` leaves.

    Starting from one leaf, each step turns a leaf into an internal vertex
    with two leaf children.  With probability ``spine_bias`` the expanded
    leaf is the spine tip (the leaf that continues the deepest path grown so
    far); otherwise it is a uniformly random leaf.  Bias 0 gives trees of
    logarithmic depth, bias 1 the caterpillar of depth ``leaves - 1``.
    """
    kids = [None]
    open_leaves = [0]
    slot = {0: 0}
    tip = 0
    for _ in range(leaves - 1):
        if spine_bias and rng.random() < spine_bias:
            v = tip
        else:
            v = open_leaves[rng.randrange(len(open_leaves))]
        last = open_leaves.pop()
        i = slot.pop(v)
        if last != v:
            open_leaves[i] = last
            slot[last] = i
        a = len(kids)
        kids.append(None)
        kids.append(None)
        kids[v] = (a, a + 1)
        for c in (a, a + 1):
            slot[c] = len(open_leaves)
            open_leaves.append(c)
        if v == tip:
            tip = a + rng.randrange(2)
    out = []
    stack = [0]
    while stack:
        v = stack.pop()
        if v is None:
            out.append(")")
        elif kids[v] is None:
            out.append("L")
        else:
            out.append("(")
            stack.append(None)
            stack.extend(reversed(kids[v]))
    return "".join(out)


def mirror(text):
    """Text of the mirror image of a tree: every vertex's children in
    reverse order."""
    return text[::-1].translate(_MIRROR)


# What the benchmark knows about one tree, computed from its text.
TreeFacts = namedtuple("TreeFacts", "leaves depth security partition canonical")


def analyze(text):
    """Leaf count, depth, security (sum of ranks), partition vector and
    canonical text of a proper binary tree given as text.

    Rank is 1 + the least child rank (leaves 0).  A subtree is saturated when
    it is complete binary and its parent's subtree is not; the partition
    vector lists their heights, largest first.  The canonical text sorts
    every vertex's children by the collation ``)`` < ``L`` < ``(``.
    """
    stack = []  # per open vertex: list of (rank, complete height or -1, canonical)
    leaves = depth = security = 0
    parts = []
    root = None
    for ch in text:
        if ch == "(":
            stack.append([])
            continue
        if ch == "L":
            leaves += 1
            depth = max(depth, len(stack))
            node = (0, 0, "L")
        elif ch == ")":
            kids = stack.pop()
            rank = 1 + min(k[0] for k in kids)
            heights = {k[1] for k in kids}
            if len(kids) == 2 and len(heights) == 1 and -1 not in heights:
                height = kids[0][1] + 1
            else:
                height = -1
                parts.extend(k[1] for k in kids if k[1] >= 0)
            canon = sorted((k[2] for k in kids), key=_collate)
            node = (rank, height, "(" + "".join(canon) + ")")
            security += rank
        else:
            continue
        if stack:
            stack[-1].append(node)
        else:
            root = node
    if root[1] >= 0:
        parts.append(root[1])
    return TreeFacts(leaves, depth, security, tuple(sorted(parts, reverse=True)), root[2])


def max_security(leaves):
    """Closed form of the paper's maximum security over proper binary trees
    with ``leaves`` leaves: 2(l - floor(log2 l) - 1) + (zero bits of l)."""
    top = leaves.bit_length() - 1
    return 2 * (leaves - top - 1) + (leaves.bit_length() - bin(leaves).count("1"))


def wedderburn_etherington(upto):
    """Number of unordered proper binary trees with n leaves, n = 0..upto."""
    a = [0, 1]
    for n in range(2, upto + 1):
        total = sum(a[i] * a[n - i] for i in range(1, (n + 1) // 2))
        if n % 2 == 0:
            half = a[n // 2]
            total += half * (half + 1) // 2
        a.append(total)
    return a
