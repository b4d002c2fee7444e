"""Guarded tree rewrites that never decrease security.

The four *switching* rewrites exchange the subtrees of two saturated
vertices of equal rank (or re-thread one of their parents onto the root
path), the *hoist* step moves an already-distinct complete subtree into its
spine position, and :func:`normalize_to_power_spine` drives both phases to
reach the maximal power-spine shape.  :func:`flip_adjacent` produces a
different maximizer of exactly equal security, and
:func:`reroot_at_vertex` realizes the root-rank rerooting arguments.

Every switching and hoist step runs on one private arena that keeps the
children in canonical order and the measures up to date; it measures
security on both sides and raises GuardError rather than return a tree of
lower security.  Level by level, an accepted switch never lowers the number
of vertices of rank >= j at any level j (checked on every switch of every
shape up to 12 leaves).

All rewrites return new trees; inputs are never mutated.  Vertex ids are
preserved by every switching/hoist rewrite, so the edge pairs recorded in a
:class:`RewriteTrace` refer to the input tree's ids throughout.
"""

from collections import namedtuple

from .builders import _spine_parents, binary_power_representation, build_power_spine
from .errors import GuardError
from .trees import RootedTree, _canonical, _kid_lists, _preorder, _top_down, _vertex, is_isomorphic

__all__ = [
    "SwitchContext",
    "RewriteStep",
    "RewriteTrace",
    "switch_disjoint",
    "switch_nested_high_sibling",
    "switch_nested_low_sibling",
    "spine_reinsert",
    "hoist_min_saturated",
    "normalize_to_power_spine",
    "flip_adjacent",
    "reroot_at_vertex",
]


class SwitchContext(namedtuple("SwitchContext", "u w u0 w0 u1 w1")):
    """The two saturated vertices of a switching rewrite, with their parents
    (u0, w0) and siblings (u1, w1)."""

    __slots__ = ()

    @classmethod
    def for_pair(cls, tree, u, w):
        """Derive parents and siblings for the pair (u, w) of a
        :class:`RootedTree`.

        Raises GuardError if either id is not an int or is out of range,
        the two vertices are equal, either vertex is the root, or its parent
        does not have exactly two children.
        """
        u, w = _vertex(tree, u), _vertex(tree, w)
        if u == w:
            raise GuardError("the two switched vertices must differ")
        # read off the parent array, so the tree builds no child tuples
        par = tree._parents
        for v in (u, w):
            if par[v] < 0:
                raise GuardError(f"vertex {v} is the root and has no parent")
            if par.count(par[v]) != 2:
                raise GuardError(f"parent of vertex {v} must have exactly two children")

        def sibling(v):
            first = par.index(par[v])
            return par.index(par[v], first + 1) if first == v else first

        return SwitchContext(u, w, par[u], par[w], sibling(u), sibling(w))


def _pair_context(par, kids, u, w):
    """The context of two distinct non-root vertices whose parents have two
    children each, read without checks from the parent and child lists."""
    (a, b), (c, d) = kids[par[u]], kids[par[w]]
    return SwitchContext(u, w, par[u], par[w], b if a == u else a, d if c == w else c)


def _splice(par, root, removed, added):
    """Apply edge surgery to the parent array of a tree with the given root,
    in place.  Edges are (parent, child) pairs; after all removals and
    additions exactly one vertex must be left without a parent, and it is
    returned as the new root."""
    for p, c in removed:
        if par[c] != p:
            raise GuardError(f"edge ({p}, {c}) is not present")
        par[c] = -2
    for p, c in added:
        if par[c] >= 0:
            raise GuardError(f"vertex {c} is already attached")
        par[c] = p
    # the new root is the old one or a cut child; -1: none yet, -2: two
    new = root if par[root] < 0 else -1
    for _, c in removed:
        if par[c] < 0 and c != new:
            new = c if new == -1 else -2
    if new < 0:
        raise GuardError("rewrite must leave exactly one root")
    par[new] = -1
    return new


def _rewire(tree, removed, added):
    """Apply edge surgery, keeping vertex ids, and validate the result."""
    par = list(tree._parents)
    _splice(par, tree.root, removed, added)
    return RootedTree(par)


# the switching rules, in the order normalization tries them
_RULES = (
    "switch_disjoint",
    "switch_nested_high_sibling",
    "switch_nested_low_sibling",
    "spine_reinsert",
)


def _nesting(tree, ctx):
    """1 if u0 is a strict ancestor of w0, -1 for the reverse, else 0."""
    par = tree._parents
    for a, v, nesting in ((ctx.u0, par[ctx.w0], 1), (ctx.w0, par[ctx.u0], -1)):
        while v >= 0 and v != a:
            v = par[v]
        if v == a:
            return nesting
    return 0


def _verdicts(arena, ctx, nesting):
    """Why each switching guard refuses an already checked context on the
    arena, in :data:`_RULES` order, None where a guard accepts; ``nesting``
    is :func:`_nesting`."""
    rank = arena.rank
    r_w1 = rank[ctx.w1]
    if nesting:
        disjoint = "parents must not be nested; use a nested switch"
    elif r_w1 < rank[ctx.u1]:
        disjoint = "rank(w1) >= rank(u1) required; swap the pair's roles"
    else:
        disjoint = None
    if nesting != 1:
        return (disjoint, *("u0 must be a strict ancestor of w0",) * 3)
    if r_w1 >= rank[ctx.u]:
        low = "rank(w1) <= rank(u) - 1 required; use the high-sibling switch"
        return disjoint, None, low, "rank(w1) < rank(u) required"
    high = "rank(w1) >= rank(u) required; use the low-sibling switch"
    v1 = arena._parents[ctx.u0]
    if v1 < 0:
        return disjoint, high, None, "u0 must not be the root; use a nested switch"
    over = rank[v1] - r_w1  # how far u0's parent outranks w1
    low = "rank of u0's parent exceeds 2 + rank(w1); use spine_reinsert" if over > 2 else None
    spine = "u0's parent must outrank w1; use a nested switch" if over <= 0 else None
    return disjoint, high, low, spine


def _rule_edges(rule, arena, ctx):
    """Edge surgery of a switching rule whose guard accepts the context on
    the arena: the three exchange rules swap the subtrees at u and w1,
    spine_reinsert moves w0 up the root path.  Every switching and hoist
    surgery removes as many child edges from each parent as it adds, and
    cuts no edge whose parent's subtree is complete: so outdegrees stay the
    same, and complete subtrees move whole."""
    u, w, u0, w0, _, w1 = ctx
    if rule != "spine_reinsert":
        return ((u0, u), (w0, w1)), ((w0, u), (u0, w1))
    # climb the root path above u0 to the first vertex that w1 does not
    # outrank; w0 (keeping child w1) is spliced in below it, or becomes the
    # new root if every root-path vertex outranks w1, and w takes w0's place
    par, rank = arena._parents, arena.rank
    below = par[u0]
    above = par[below]
    while above >= 0 and rank[above] > rank[w1]:
        below, above = above, par[above]
    wp = par[w0]
    removed = ((w0, w), (wp, w0))
    added = ((w0, below), (wp, w))
    if above >= 0:
        removed += ((above, below),)
        added = ((above, w0), *added)
    return removed, added


def _apply_rule(rule, tree, ctx):
    """Check the context against the tree and the rule's guard, then apply
    its surgery through :func:`_step`."""
    if not isinstance(ctx, SwitchContext):
        raise GuardError("context must be a SwitchContext")
    # a float or bool id can equal the right int, so the types are checked too
    derived = SwitchContext.for_pair(tree, ctx.u, ctx.w)
    if derived != ctx or any(type(v) is not int for v in ctx):
        raise GuardError("context does not match the tree's parent/sibling links")
    arena = _Arena(tree)
    h, par = arena.h, arena._parents
    # saturated: a complete subtree whose parent's is not (neither is the root)
    if any(h[v] < 0 or h[par[v]] >= 0 for v in (ctx.u, ctx.w)):
        raise GuardError("both switched vertices must be saturated")
    if arena.rank[ctx.u] != arena.rank[ctx.w]:
        raise GuardError("switched vertices must have equal rank")
    refusal = _verdicts(arena, ctx, _nesting(arena, ctx))[_RULES.index(rule)]
    if refusal is not None:
        raise GuardError(refusal)
    _step(arena, rule, *_rule_edges(rule, arena, ctx))
    return arena.tree()


def switch_disjoint(tree, ctx):
    """Exchange the subtrees at u and at w's sibling when neither parent is
    an ancestor of the other.

    Guards: context consistent (saturated, equal rank); u0/w0 not nested;
    rank(w1) >= rank(u1).  Security never decreases.
    """
    return _apply_rule("switch_disjoint", tree, ctx)


def switch_nested_high_sibling(tree, ctx):
    """Exchange the subtrees at u and at w's sibling when u0 is an ancestor
    of w0 and w's sibling outranks the switched vertices.

    Guards: u0 strict ancestor of w0; rank(w1) >= rank(u) = rank(w).
    Security never decreases and the rank of w0 is unchanged.
    """
    return _apply_rule("switch_nested_high_sibling", tree, ctx)


def switch_nested_low_sibling(tree, ctx):
    """Exchange the subtrees at u and at w's sibling when u0 is an ancestor
    of w0 and w's sibling is outranked by the switched vertices.

    Guards: u0 strict ancestor of w0; rank(w1) <= rank(u) - 1; and either u0
    is the root or its parent v1 satisfies rank(v1) <= 2 + rank(w1).
    Security never decreases.
    """
    return _apply_rule("switch_nested_low_sibling", tree, ctx)


def spine_reinsert(tree, ctx):
    """Move w's parent (keeping w's sibling) up onto the root path, and let
    w take its old place.

    Guards: u0 strict ancestor of w0; rank(w1) < rank(u) = rank(w); u0 is
    not the root; u0's parent outranks w1.  Security never decreases, and
    the ranks of w, w1 and w0 are unchanged.
    """
    return _apply_rule("spine_reinsert", tree, ctx)


def _hoist_edges(arena):
    """One placement step toward the power-spine shape, or None at the fixed
    point.  The exponents of the arena's saturated vertices must be pairwise
    distinct."""
    if arena.dup[arena.root]:
        raise GuardError("repeated partition exponents; normalize first")
    # the blocks already in place hang off the root path above s, so the
    # next one is the block of s's lowest exponent; at the fixed point it
    # is s itself
    par, kids, mask, s = arena._parents, arena.kids, arena.mask, arena.root
    while arena.h[s] < 0:
        u = arena.first(s, mask[s] & -mask[s])
        u0 = par[u]
        if u0 == s:
            a, b = kids[s]
            s = b if a == u else a
            continue
        a, b = kids[u0]
        u1, up, ps = b if a == u else a, par[u0], par[s]
        removed, added = ((up, u0), (u0, u1)), ((up, u1), (u0, s))
        if ps >= 0:
            return (*removed, (ps, s)), (*added, (ps, u0))
        return removed, added
    return None


def hoist_min_saturated(tree):
    """Lift the smallest out-of-place complete subtree next to the spine.

    The saturated vertices, taken in increasing exponent order, must hang
    off the root path one per level; this applies one step of that
    placement (u's parent becomes the local root, u's sibling takes the
    parent's old position).  Fixed point: the power-spine shape itself.
    Security never decreases.

    Raises GuardError when the partition vector has repeated exponents, or
    if the step would lower security.
    """
    arena = _Arena(tree)
    edges = _hoist_edges(arena)
    if edges is None:
        return tree
    _step(arena, "hoist_min_saturated", *edges)
    return arena.tree()


RewriteStep = namedtuple(
    "RewriteStep", "rule edges_removed edges_added security_before security_after"
)
RewriteStep.__doc__ = """One applied rewrite: rule name, edge surgery, and the
security on both sides (never decreasing)."""


class RewriteTrace(namedtuple("RewriteTrace", "steps")):
    """Ordered record of the rewrites applied by a normalization run."""

    __slots__ = ()

    def to_text(self):
        """Line-oriented log, one step per line."""
        lines = []
        for s in self.steps:
            rem = " ".join(f"-({p},{c})" for p, c in s.edges_removed)
            add = " ".join(f"+({p},{c})" for p, c in s.edges_added)
            lines.append(
                f"{s.rule}: security {s.security_before} -> {s.security_after}; "
                f"{rem} {add}"
            )
        return "\n".join(lines)


def _select_switch(arena, x, y, nesting):
    """The first (rule, context) whose guard accepts a saturated pair of the
    arena, given the :func:`_nesting` of (x, y), taken unchecked: oriented
    (x, y) before (y, x), the rules in :data:`_RULES` order."""
    for u, w, nesting in ((x, y, nesting), (y, x, -nesting)):
        ctx = _pair_context(arena._parents, arena.kids, u, w)
        verdicts = _verdicts(arena, ctx, nesting)
        if None in verdicts:
            return _RULES[verdicts.index(None)], ctx
    raise GuardError(f"no switching rule accepts vertices {x} and {y}")


def _collate(kids, rank, h, a, b):
    """Compare the canonical texts of the subtrees at a and b: negative,
    zero or positive.

    A canonical text opens as many groups as its subtree's rank before its
    first leaf, so the lower rank collates first.  Between equal ranks two
    complete subtrees have equal text, and two pairs compare by their first
    children, then by their second; this reads the child lists below a and
    b, which must already be in canonical order.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if rank[a] != rank[b]:
            return rank[a] - rank[b]
        if h[a] < 0 or h[b] < 0:
            ka, kb = kids[a], kids[b]
            stack.append((ka[1], kb[1]))
            stack.append((ka[0], kb[0]))
    return 0


class _Arena:
    """Private mutable copy of a proper binary tree for the switching and
    hoist rewrites.

    Besides the parent links it keeps every internal vertex's two children
    in a list in canonical order (ascending canonical text, the higher id
    first between equal texts, as in :func:`canonical_order`; leaves share
    the empty tuple; ``trees._kid_lists`` builds them from the input, and
    :meth:`tree` walks them with ``trees._top_down`` in id order), and, per vertex,
    the rank, the complete height (-1 unless the subtree is complete binary)
    and two bitmasks of the exponents of the saturated vertices in the
    subtree (``mask``: those present, ``dup``: those present at least
    twice), plus the running security.  :meth:`rewire` measures the union
    of the root paths of the vertices whose children changed in one
    bottom-up pass, each vertex once (a per-vertex stamp, the number of the
    last walk through it, marks the visited vertices).  :meth:`first` finds
    a saturated vertex by descending the exponent masks, comparing nothing.
    """

    def __init__(self, tree):
        n = len(tree)
        self.root = tree.root
        self._parents = list(tree._parents)
        # ``internal`` runs top down; each measure list starts at leaf values
        self.kids, internal = _kid_lists(self._parents, tree._order)
        self.rank, self.h, self.mask, self.dup = [0] * n, [0] * n, [1] * n, [0] * n
        self.stamp, self.walks = [0] * n, 0
        self.security = 0
        self._measure(reversed(internal))

    def _measure(self, order):
        """Recompute the measures and the canonical child order of the
        vertices in ``order``, which lists every vertex after its children,
        and update the running security."""
        kids, rank, h = self.kids, self.rank, self.h
        mask, dup = self.mask, self.dup
        gain = 0
        for v in order:
            try:
                a, b = k = kids[v]
            except ValueError:
                raise GuardError("tree is not proper binary") from None
            ha = h[a]
            if ha >= 0 and ha == h[b]:  # a complete pair: rank = height, equal texts
                r = h[v] = ha + 1
                mask[v], dup[v], c = 2 << ha, 0, 0
            else:
                h[v] = -1
                ma, mb = mask[a], mask[b]
                mask[v] = ma | mb
                dup[v] = dup[a] | dup[b] | (ma & mb)
                ra, rb = rank[a], rank[b]
                r = (ra if ra < rb else rb) + 1
                # the ranks decide most orders without a call
                c = ra - rb or _collate(kids, rank, h, a, b)
            if c > 0 or (c == 0 and a < b):  # the higher id first between equal texts
                k[0], k[1] = b, a
            gain += r - rank[v]
            rank[v] = r
        self.security += gain

    def rewire(self, removed, added):
        """Apply edge surgery in place, checked as by :func:`_rewire`, then
        repair the measures along the changed root paths."""
        par, kids = self._parents, self.kids
        self.root = _splice(par, self.root, removed, added)
        for p, c in removed:
            kids[p].remove(c)
        for p, c in added:
            kids[p] = [*kids[p], c]  # never extend a leaf's shared tuple
        # Only the ancestors of a changed child list change.  Each walk
        # climbs from a changed parent to the root or to an earlier walk,
        # stamping its vertices with its own number (above those of earlier
        # rewires), so prepending each walk to one order lists every vertex
        # once, after its children, for one measure pass.  The tree was
        # acyclic, so a new cycle passes through a new edge, hence through
        # one of these parents: the first walk to enter it comes back to its
        # own stamp.
        stamp, first, order = self.stamp, self.walks + 1, []
        for number, (p, _) in enumerate((*removed, *added), first):
            walk = []
            while p >= 0 and stamp[p] < first:
                stamp[p] = number
                walk.append(p)
                p = par[p]
            if p >= 0 and stamp[p] == number:
                raise GuardError("parent links contain a cycle or unreachable vertices")
            if walk:
                order[:0] = walk
        self.walks += len(removed) + len(added)
        self._measure(order)

    def first(self, v, want):
        """The first saturated vertex of exponent bit ``want`` in v's
        subtree, in canonical preorder; v's mask must hold the bit."""
        h, kids, mask = self.h, self.kids, self.mask
        while h[v] < 0:
            a, b = kids[v]
            v = a if mask[a] & want else b
        return v

    def first_two(self, m):
        """The first two saturated vertices x, y of exponent m in canonical
        preorder (there must be two) and the :func:`_nesting` of their
        parents.  y is the first below b, the second child of the lowest
        ancestor p of x that reaches x through its first child and whose
        b holds m: the nesting is -1 if y is b, 1 if p is x's parent, else
        0."""
        kids, mask, par, want = self.kids, self.mask, self._parents, 1 << m
        x = c = self.first(self.root, want)
        while True:
            p = par[c]
            a, b = kids[p]
            if a == c and mask[b] & want:
                y = self.first(b, want)
                return x, y, -1 if y == b else 1 if p == par[x] else 0
            c = p

    def tree(self):
        """Hand the tree over unchecked, as each rewire checked its surgery:
        walk the child pairs sorted into id order in place, spending them."""
        for k in filter(None, self.kids):
            k.sort()
        return RootedTree._make(self._parents, _top_down(self.kids, self.root))


def _step(arena, rule, removed, added):
    """Apply one step of ``rule`` to the arena and return its
    :class:`RewriteStep`; refuse a step that lowered security."""
    before = arena.security
    arena.rewire(removed, added)
    after = arena.security
    if after < before:
        raise GuardError(f"{rule} lowered security from {before} to {after}")
    return RewriteStep(rule, tuple(removed), tuple(added), before, after)


def normalize_to_power_spine(tree):
    """Rewrite a proper binary tree into the power-spine shape.

    Phase one repeatedly picks the largest repeated partition exponent and
    switches its first two saturated vertices (in canonical preorder) until
    they merge into one complete subtree, each step by the first switching
    rule whose guard (the one its public rewrite runs) accepts the pair;
    phase two hoists the now-distinct complete subtrees into spine order.
    Every step weakly increases security.  Returns the rewritten tree and
    the trace.

    The rewrites run on a private mutable copy of the tree, through the
    same :func:`_step` as the public rewrites.  Each step checks its
    surgery and repairs ranks, complete heights, exponent bitmasks and the
    children kept in canonical order in one pass over the union of the
    changed root paths, O(depth) vertices each measured once, bottom up
    (ordering two children compares their subtrees only down to the first
    difference, in O(1) when both are complete or one is a leaf), and each
    merge group finds its two vertices and their nesting in O(depth) by
    descending the exponent masks.  The result is handed over unchecked, as
    every step checked its surgery.  Memory stays linear in the tree's
    order.  Raises GuardError if no switching rule accepts a pair, a step
    would lower security or the steps exceed a guard quadratic in the
    tree's order.
    """
    arena = _Arena(tree)
    steps = []
    step_guard = 8 * len(tree) * len(tree) + 64

    def apply(rule, removed, added):
        steps.append(_step(arena, rule, removed, added))
        if len(steps) > step_guard:
            raise GuardError("rewrite did not terminate within the step guard")

    h, par = arena.h, arena._parents
    while arena.dup[arena.root]:
        x, y, nesting = arena.first_two(arena.dup[arena.root].bit_length() - 1)
        # distinct complete subtrees of one height are disjoint: neither is the root.
        # An exchange merges the pair; a spine_reinsert that holds it keeps its nesting
        while h[par[x]] < 0 and h[par[y]] < 0:
            rule, ctx = _select_switch(arena, x, y, nesting)
            apply(rule, *_rule_edges(rule, arena, ctx))

    while (edges := _hoist_edges(arena)) is not None:
        apply("hoist_min_saturated", *edges)

    result = arena.tree() if steps else tree
    return result, RewriteTrace(tuple(steps))


def flip_adjacent(tree, i, variant):
    """A security-preserving reshuffle of the power-spine tree at spine
    position ``i`` (1-based from the deep end), defined when the blocks at
    positions i and i+1 have exponents differing by exactly one.

    Variant 1 swaps the two blocks between their spine vertices; variant 2
    re-hangs the lower spine and pairs the two blocks under one vertex.
    The result has exactly the input's security but is generally not
    isomorphic to it.
    """
    leaves = tree.leaf_count()
    rep = binary_power_representation(leaves)
    k = len(rep)
    if type(variant) is not int or variant not in (1, 2):
        raise GuardError("variant must be 1 or 2")
    if k < 3:
        raise GuardError("no flip exists for this leaf count (fewer than 3 blocks)")
    if type(i) is not int or not 2 <= i <= k - 1:
        raise GuardError(f"index must be in [2, {k - 1}] for this leaf count")
    if rep[i - 1] != rep[i] + 1:
        raise GuardError("block exponents at i and i+1 must differ by one")
    if not is_isomorphic(tree, build_power_spine(leaves)):
        raise GuardError("tree must be the power-spine construction")

    blocks = list(rep)
    if variant == 1:
        blocks[i - 1], blocks[i] = rep[i], rep[i - 1]
    else:
        blocks[i - 1 : i + 1] = [(rep[i - 1], rep[i])]
    return RootedTree._make(_spine_parents(blocks))


def _deepest_canonical_leaf(tree, v):
    """Deepest leaf of v's subtree, ties broken by canonical preorder; only
    that subtree, filtered from the top-down order, is keyed."""
    par, order = tree._parents, tree._order
    depth = [-1] * len(par)
    depth[v] = 0
    sub = [v]
    for x in order[order.index(v) + 1 :]:
        d = depth[par[x]]
        if d >= 0:
            depth[x] = d + 1
            sub.append(x)
    _, first, nxt = _canonical(tree, sub)
    # the first vertex of greatest depth in preorder is a leaf
    return max(_preorder(v, first, nxt), key=depth.__getitem__)


def reroot_at_vertex(tree, v, mode="general"):
    """Make ``v`` the root without decreasing its rank.

    ``general`` cuts v loose and hangs the remainder below one of v's
    deepest leaves (that leaf gains one child).  ``degree_preserving``
    instead identifies the old root with that leaf, exchanging their roles,
    which preserves the outdegree multiset exactly.  Rerooting at the root
    is the identity; in degree_preserving mode so is rerooting at a leaf
    (the old root is identified with the leaf itself).
    """
    if mode not in ("general", "degree_preserving"):
        raise GuardError(f"unknown mode {mode!r}")
    if _vertex(tree, v) == tree.root:
        return tree
    u, r = tree.parent(v), tree.root
    w = _deepest_canonical_leaf(tree, v)
    if mode == "general":
        return _rewire(tree, [(u, v)], [(w, r)])
    if w == v:
        return tree
    pw = tree.parent(w)
    return _rewire(tree, [(u, v), (pw, w)], [(pw, r), (u, w)])
