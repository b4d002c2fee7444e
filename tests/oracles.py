"""Independent oracles and random generators for the test suite.

Everything here recomputes expected values from first principles (explicit
breadth-first distance search, counting recurrences, random processes) and
never goes through the code paths under test.  The one exception,
:func:`equal_rank_saturated_pairs`, picks test cases rather than expected
values.
"""

from treesec import RootedTree, saturated_vertices


def rank_by_distance(tree, v):
    """Minimum distance from v to a leaf of v's subtree, by explicit BFS."""
    frontier = [v]
    dist = 0
    while True:
        nxt = []
        for x in frontier:
            kids = tree.children(x)
            if not kids:
                return dist
            nxt.extend(kids)
        frontier = nxt
        dist += 1


def ranks_by_distance(tree):
    return [rank_by_distance(tree, v) for v in range(len(tree))]


def security_by_distance(tree):
    return sum(ranks_by_distance(tree))


_we = {1: 1}


def wedderburn_etherington(n):
    """Count of non-isomorphic proper binary trees with n leaves, by the
    unordered-pairing recurrence (independent of the enumerator)."""
    if n not in _we:
        total = 0
        for i in range(1, (n - 1) // 2 + 1):
            total += wedderburn_etherington(i) * wedderburn_etherington(n - i)
        if n % 2 == 0:
            half = wedderburn_etherington(n // 2)
            total += half * (half + 1) // 2
        _we[n] = total
    return _we[n]


_rt = {1: 1}


def rooted_tree_count(n):
    """Count of unordered rooted trees on n vertices, via the classic
    divisor-sum recurrence."""
    for m in range(2, n + 1):
        if m in _rt:
            continue
        acc = 0
        for j in range(1, m):
            divsum = sum(d * _rt[d] for d in range(1, j + 1) if j % d == 0)
            acc += divsum * _rt[m - j]
        _rt[m] = acc // (m - 1)
    return _rt[n]


def random_proper_binary(leaves, rng):
    """Uniformly grow a proper binary tree by expanding random leaves."""
    parents = [-1]
    leaf_ids = [0]
    for _ in range(leaves - 1):
        v = leaf_ids.pop(rng.randrange(len(leaf_ids)))
        parents.append(v)
        parents.append(v)
        leaf_ids.append(len(parents) - 2)
        leaf_ids.append(len(parents) - 1)
    return RootedTree(parents)


def random_kary(order, k, rng):
    """Random tree built by attaching vertices wherever outdegree allows."""
    parents = [-1]
    counts = [0]
    while len(parents) < order:
        v = rng.randrange(len(parents))
        if counts[v] >= k:
            continue
        counts[v] += 1
        parents.append(v)
        counts.append(0)
    return RootedTree(parents)


def random_general(order, rng):
    return random_kary(order, order, rng)


def isomorphic_by_interning(a, b):
    """Rooted-tree isomorphism via bottom-up label interning (independent of
    the canonical-serialization route)."""
    table = {}

    def label(tree):
        labels = {}
        order = [tree.root]
        for v in order:
            order.extend(tree.children(v))
        for v in reversed(order):
            key = tuple(sorted(labels[c] for c in tree.children(v)))
            labels[v] = table.setdefault(key, len(table))
        return labels[tree.root]

    return label(a) == label(b)


def shuffled_copy(tree, rng):
    """Isomorphic copy with shuffled child order and fresh vertex ids."""
    parents = []
    stack = [(tree.root, -1)]
    while stack:
        v, p = stack.pop()
        idx = len(parents)
        parents.append(p)
        kids = list(tree.children(v))
        rng.shuffle(kids)
        for c in kids:
            stack.append((c, idx))
    return RootedTree(parents)


def relabelled_copy(tree, rng):
    """Isomorphic copy with its vertex ids permuted at random, so parents
    may follow their children."""
    perm = list(range(len(tree)))
    rng.shuffle(perm)
    parents = [-1] * len(tree)
    for v in range(len(tree)):
        p = tree.parent(v)
        if p is not None:
            parents[perm[v]] = perm[p]
    return RootedTree(parents)


def equal_rank_saturated_pairs(tree):
    """Ordered pairs of distinct saturated vertices of one exponent, the
    first not the root: the pairs the switching rules are tried on."""
    sat = saturated_vertices(tree)
    return [
        (u, w)
        for u, mu in sat
        for w, mw in sat
        if u != w and mu == mw and tree.parent(u) is not None
    ]
