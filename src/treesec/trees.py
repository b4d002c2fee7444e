"""Rooted-tree data model and the rank / security measures.

Trees are unordered: the order in which children are stored carries no
meaning, and :func:`canonical_form` fixes a deterministic order when one is
needed.  A tree is an arena of vertices addressed by integer ids; vertex ids
are only valid for the tree that issued them.

The *rank* (protection number) of a vertex is the minimum distance from the
vertex to any leaf of its own subtree; leaves have rank 0.  The *security*
of a tree is the sum of all vertex ranks.

Text format::

    Tree := "L" | "(" Tree+ ")"

``L`` is a leaf; an internal vertex is written as the parenthesised sequence
of its child subtrees (one or more).  ASCII whitespace between tokens is
ignored; any other stray character is a parse error.  A JSON form
``{"children": [...]}`` (a leaf is ``{"children": []}``) is accepted by
:func:`tree_from_json` and by :func:`read_tree`, which sniffs the format.
"""

from collections import Counter, namedtuple

from . import _CLOSE_KEY, _KEY_TEXT, _LEAF_KEY, _OPEN_KEY
from .errors import GuardError, ParseError, SizeError, _count

__all__ = [
    "RootedTree",
    "ShapeReport",
    "parse",
    "serialize",
    "read_tree",
    "tree_from_json",
    "tree_to_json",
    "export_dot",
    "all_ranks",
    "security",
    "protected_count",
    "canonical_form",
    "canonical_order",
    "is_isomorphic",
    "classify",
    "saturated_vertices",
    "partition_vector",
]

_WHITESPACE = " \t\n\r\x0b\x0c"  # string.whitespace


class RootedTree:
    """An immutable rooted tree stored as a parent array.

    ``parents[v]`` is the parent id of vertex ``v`` (-1 for the root).
    Children are derived on demand, in increasing id order.  ``_order``,
    kept from construction, lists every parent before its children, the
    root first: it is ``range(n)`` when each parent id is smaller than its
    child's.  All operations in this package treat trees as values: none
    mutates an existing tree, so any tree may be shared freely across
    threads.
    """

    __slots__ = ("_parents", "_children", "_order")

    def __init__(self, parents):
        """Build a tree from a parent array, validating its shape.

        The root is marked by the int -1 or by None.  Raises GuardError
        unless there is exactly one root, every parent id is a valid vertex
        id, and every vertex is reachable from the root.
        """
        parents = list(parents)
        n = len(parents)
        if n == 0:
            raise GuardError("a tree needs at least one vertex")
        roots = 0
        for i, p in enumerate(parents):
            if p is None or (p == -1 and isinstance(p, int)):
                parents[i] = -1
                roots += 1
            elif not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n or p == i:
                raise GuardError(f"invalid parent {p!r} for vertex {i}")
        if roots != 1:
            raise GuardError(f"expected exactly one root, found {roots}")
        self._parents = parents
        self._children = None
        if all(parents[i] < i for i in range(n)):
            self._order = range(n)
        else:  # the reachability check's breadth-first order is kept
            self._order = _top_down(_kid_lists(parents, range(n))[0], parents.index(-1))
            if len(self._order) != n:
                raise GuardError("parent links contain a cycle or unreachable vertices")

    @classmethod
    def _make(cls, parents, order=None):
        """Trusted constructor: no validation.  The caller promises a valid
        parent array and, as ``order``, a top-down order (the root first)
        listing siblings by increasing id; without one, every parent id must
        be smaller than its child ids, so vertex 0 is the root."""
        self = object.__new__(cls)
        self._parents = parents
        self._children = None
        self._order = range(len(parents)) if order is None else order
        return self

    def __len__(self):
        return len(self._parents)

    def __repr__(self):
        text = serialize(self)
        if len(text) > 60:
            text = text[:57] + "..."
        return f"RootedTree({text!r})"

    @property
    def root(self):
        return self._order[0]

    def parent(self, v):
        """Parent id of ``v``, or None for the root."""
        p = self._parents[_vertex(self, v)]
        return None if p < 0 else p

    def children(self, v):
        """Child ids of ``v`` in storage order."""
        return self._child_lists()[_vertex(self, v)]

    def is_leaf(self, v):
        return not self._child_lists()[_vertex(self, v)]

    def degree(self, v):
        """Number of children of ``v`` (the outdegree)."""
        return len(self._child_lists()[_vertex(self, v)])

    def leaf_count(self):
        # the distinct parent ids are the internal vertices and the -1 root mark
        return len(self._parents) + 1 - len(set(self._parents))

    def _child_lists(self):
        # lazy, idempotent cache for children(), is_leaf() and degree(); the
        # constructor, the read passes and the rewrite arena never build it,
        # as cyclic GC walks every container here.  Tuples, leaves sharing
        # the empty one; a concurrent duplicate build is benign.
        if self._children is None:
            ch, internal = _kid_lists(self._parents, range(len(self._parents)))
            for v in internal:
                ch[v] = tuple(ch[v])
            self._children = ch
        return self._children

    def depths(self):
        """Depth of every vertex (root depth 0)."""
        d = [0] * len(self._parents)
        par = self._parents
        for v in self._order:
            p = par[v]
            if p >= 0:
                d[v] = d[p] + 1
        return d


def _vertex(tree, v):
    """``v``, if it is a vertex id of ``tree``: an int in 0..n-1."""
    if type(v) is not int or not 0 <= v < len(tree._parents):
        raise GuardError(f"vertex id {v} out of range")
    return v


def _kid_lists(par, order):
    """Each internal vertex's children as a list in ``order``'s order, every
    leaf sharing ``()``, and the internal vertices in the order their first
    child was met: the only derivation of child lists from a parent array."""
    kids, internal = [()] * len(par), []
    for v in order:
        p = par[v]
        if p >= 0:
            if kids[p]:
                kids[p].append(v)
            else:
                kids[p] = [v]
                internal.append(p)
    return kids, internal


def _top_down(kids, root):
    """What ``root`` reaches, breadth first, siblings in ``kids`` order; it
    only walks, dropping each child list once read."""
    order = [root]
    for v in order:
        order += kids[v]
        kids[v] = ()
    return order


def parse(text):
    """Parse the parenthesis format into a tree.

    Vertices are numbered in preorder of the input.  Raises ParseError with
    the byte offset on malformed input.
    """
    parents = []
    top = -1  # the innermost open vertex; -1 outside every group
    for i, c in enumerate(text):
        if c == "L":
            parents.append(top)
            if top < 0:
                break
        elif c == "(":
            parents.append(top)
            top = len(parents) - 1
        elif c == ")":
            if top < 0:
                raise ParseError("unbalanced ')'", i)
            if top == len(parents) - 1:
                raise ParseError("empty internal vertex", i)
            top = parents[top]
            if top < 0:
                break
        elif c not in _WHITESPACE:
            raise ParseError(f"stray character {c!r}", i)
    else:
        if parents:
            raise ParseError("unbalanced '('", len(text))
        raise ParseError("empty input", 0)
    rest = text[i + 1 :].lstrip(_WHITESPACE)
    if rest:
        raise ParseError("trailing content after the tree", len(text) - len(rest))
    return RootedTree._make(parents)


def serialize(tree, canonical=False):
    """Render a tree in the parenthesis format.

    With ``canonical=True`` children are emitted in the canonical order, so
    two trees are isomorphic iff their canonical serializations are equal.
    """
    if canonical:
        return _canonical(tree, tree._order)[0].translate(_KEY_TEXT)
    par = tree._parents
    first = [-1] * len(par)  # first child and next sibling, by increasing id
    nxt = first[:]
    for v in reversed(tree._order):  # each parent's children by decreasing id
        p = par[v]
        if p >= 0:
            nxt[v] = first[p]
            first[p] = v
    out = []
    v = tree.root
    while True:
        if first[v] >= 0:
            out.append("(")
            v = first[v]
            continue
        out.append("L")
        while nxt[v] < 0:
            v = par[v]
            if v < 0:
                return "".join(out)
            out.append(")")
        v = nxt[v]


def read_tree(text):
    """Parse a tree given either as parenthesis text or as JSON."""
    lead = len(text) - len(text.lstrip(_WHITESPACE))  # the whitespace parse skips
    if text.startswith("{", lead):
        import json

        try:  # json.loads skips only some of that whitespace
            obj = json.loads(text[lead:].rstrip(_WHITESPACE))
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", lead + e.pos) from None
        except ValueError:  # an integer longer than int() converts
            raise SizeError("JSON integer over the digit limit") from None
        except RecursionError:
            raise SizeError("JSON nesting over the recursion limit") from None
        return tree_from_json(obj)
    return parse(text)


def tree_from_json(obj):
    """Build a tree from the ``{"children": [...]}`` JSON schema.

    Vertices are numbered in preorder of the document, as in :func:`parse`.
    The object must be a tree: a dict reached twice is read as two copies
    of its subtree, and a cyclic object never returns.  Neither comes out
    of ``json.loads``.
    """
    parents = []
    stack = [(obj, -1)]
    while stack:
        node, par = stack.pop()
        if not isinstance(node, dict) or len(node) != 1 or "children" not in node:
            raise ParseError('each JSON vertex must be {"children": [...]}')
        kids = node["children"]
        if not isinstance(kids, list):
            raise ParseError('"children" must be a list')
        idx = len(parents)
        parents.append(par)
        for kid in reversed(kids):
            stack.append((kid, idx))
    return RootedTree._make(parents)


def tree_to_json(tree):
    """Inverse of :func:`tree_from_json` (children in storage order)."""
    # the top-down order lists each parent's children by increasing id, so
    # appending every vertex to its parent's list keeps storage order
    par = tree._parents
    kids = [[] for _ in par]
    for v in tree._order:
        p = par[v]
        if p >= 0:
            kids[p].append({"children": kids[v]})
    return {"children": kids[tree.root]}


def export_dot(tree, annotate="none"):
    """Render a tree as a DOT digraph.

    Vertex names are canonical preorder indices; edges run parent -> child.
    With ``annotate="ranks"`` each vertex is labelled with its rank.
    """
    if annotate not in ("none", "ranks"):
        raise GuardError(f"unknown annotation {annotate!r}")
    canon = canonical_form(tree)
    lines = ["digraph tree {"]
    if annotate == "ranks":
        ranks = all_ranks(canon)
        for v in range(len(canon)):
            lines.append(f'  {v} [label="{ranks[v]}"];')
    else:
        for v in range(len(canon)):
            lines.append(f"  {v};")
    par = canon._parents  # sorting by parent keeps each child list by increasing id
    lines += [f"  {par[c]} -> {c};" for c in sorted(range(1, len(canon)), key=par.__getitem__)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def all_ranks(tree):
    """Rank of every vertex, indexed by vertex id.

    Satisfies rank(leaf) = 0 and rank(v) = 1 + min over children, which
    equals the minimum distance from v to a leaf of its subtree.
    """
    n = len(tree)
    par = tree._parents
    big = n + 1
    ranks = [big] * n
    for v in reversed(tree._order):
        rv = ranks[v]
        if rv == big:
            rv = 0
            ranks[v] = 0
        p = par[v]
        if p >= 0:
            c = rv + 1
            if c < ranks[p]:
                ranks[p] = c
    return ranks


def security(tree):
    """Sum of the ranks of all vertices."""
    return sum(all_ranks(tree))


def protected_count(tree, level):
    """Number of vertices whose rank is at least ``level``.

    Level 0 counts every vertex; level 2 matches the classical notion of a
    protected vertex.
    """
    _count(level, "level", 0)
    return sum(1 for r in all_ranks(tree) if r >= level)


def _canonical(tree, order):
    """The key of ``order[0]`` (its canonical text spelt in collation keys)
    and its subtree's child order as first-child and next-sibling lists (-1
    for none): ascending key, the higher id first on a tie.  ``order`` lists
    that subtree top down with siblings by increasing id, as ``tree._order``
    lists the tree; no other vertex is keyed.  One bottom-up pass: once its
    key is built, each vertex joins the front of its parent's list, so a
    list runs by increasing id until its owner reorders it.  A child's key
    is dropped once its parent's key is built, so the live keys cover
    disjoint subtrees and memory stays linear."""
    par = tree._parents
    key = [_LEAF_KEY] * len(par)
    first = [-1] * len(par)
    nxt = first[:]
    for v in reversed(order):  # each parent's children by decreasing id
        a = first[v]
        if a >= 0:
            b = nxt[a]
            if b >= 0 and nxt[b] < 0:
                # a < b, so taking b first on a tie puts the higher id first
                ka, kb = key[a], key[b]
                if kb <= ka:
                    first[v], nxt[b], nxt[a] = b, a, -1
                    key[v] = f"{_OPEN_KEY}{kb}{ka}{_CLOSE_KEY}"
                else:
                    key[v] = f"{_OPEN_KEY}{ka}{kb}{_CLOSE_KEY}"
                key[a] = key[b] = None
            else:
                kids = []
                while a >= 0:
                    kids.append(a)
                    a = nxt[a]
                # a stable sort of the reversed list puts the higher id first
                kids = sorted(reversed(kids), key=key.__getitem__)
                key[v] = "".join([_OPEN_KEY, *map(key.__getitem__, kids), _CLOSE_KEY])
                first[v] = kids[0]
                for c, d in zip(kids, kids[1:] + [-1]):
                    nxt[c] = d
                    key[c] = None
        p = par[v]
        if p >= 0:
            nxt[v] = first[p]
            first[p] = v
    return key[order[0]], first, nxt


def _preorder(v, first, nxt):
    """v's subtree in preorder over the lists of :func:`_canonical`."""
    stack = [v]  # v tops the order it was keyed in: it has no next sibling
    while stack:  # the next sibling waits below the first child: preorder
        v = stack.pop()
        yield v
        if nxt[v] >= 0:
            stack.append(nxt[v])
        if first[v] >= 0:
            stack.append(first[v])


def canonical_order(tree):
    """Vertex ids listed in canonical preorder: a vertex's position here is
    its canonical preorder index, the vertex addressing used by the CLI."""
    _, first, nxt = _canonical(tree, tree._order)
    return list(_preorder(tree.root, first, nxt))


def canonical_form(tree):
    """An isomorphic copy whose vertices are numbered in canonical preorder
    and whose children are stored in canonical order: the ids that
    :func:`parse` gives the canonical text, as for the trees of
    :func:`~treesec.exhaustive.enumerate_shapes`.  Idempotent."""
    return parse(serialize(tree, canonical=True))


def is_isomorphic(a, b):
    """True iff the trees are isomorphic as unordered rooted trees."""
    if len(a) != len(b):
        return False
    return _canonical(a, a._order)[0] == _canonical(b, b._order)[0]


ShapeReport = namedtuple(
    "ShapeReport",
    "leaf_count height is_proper_binary is_complete_binary outdegree_sequence",
)
ShapeReport.__doc__ = "Shape summary produced by :func:`classify`."


def classify(tree):
    """Classify a tree's shape.

    ``is_proper_binary``: every internal vertex has exactly two children.
    ``is_complete_binary``: proper binary with 2**height leaves, the most
    its height allows, which puts every leaf at depth height.
    ``outdegree_sequence`` is the sorted multiset of children counts.
    """
    deg = Counter(tree._parents)  # outdegrees; leaves are missing
    height = max(tree.depths())
    leaves = [v for v in range(len(tree)) if not deg[v]]
    proper = all(deg[v] in (0, 2) for v in range(len(tree)))
    complete = proper and len(leaves) == 1 << height
    return ShapeReport(
        leaf_count=len(leaves),
        height=height,
        is_proper_binary=proper,
        is_complete_binary=complete,
        outdegree_sequence=tuple(sorted(deg[v] for v in range(len(tree)))),
    )


def saturated_vertices(tree):
    """Vertices whose subtree is complete binary while no ancestor's subtree
    is, as (vertex id, exponent) pairs in vertex-id order.

    The exponent m means the subtree has 2**m leaves.  The listed subtrees
    are vertex-disjoint and their leaves partition the tree's leaves.  One
    height and degree fold over the parent array finds them, and a scan in
    id order lists them unsorted.  Raises GuardError for non-proper-binary
    trees.
    """
    # h[v]: height of v's subtree if that subtree is complete, else negative;
    # a parent's subtree is complete iff two children report one height
    par = tree._parents
    incomplete = -len(par) - 1  # adding 1 per level keeps it negative
    h = [0] * len(par)
    deg = [0] * len(par)
    for v in reversed(tree._order):
        if deg[v] not in (0, 2):
            raise GuardError("tree is not proper binary")
        p = par[v]
        if p >= 0:
            if not deg[p]:
                h[p] = h[v] + 1
            elif h[v] + 1 != h[p]:
                h[p] = incomplete
            deg[p] += 1
    # a complete subtree is saturated unless its parent's is complete too
    return [(v, hv) for v, hv in enumerate(h) if hv >= 0 and (par[v] < 0 or h[par[v]] < 0)]


def partition_vector(tree):
    """Exponents of the saturated subtrees, weakly decreasing.

    The powers 2**m sum to the leaf count.  Requires a proper binary tree.
    """
    return tuple(sorted((m for _, m in saturated_vertices(tree)), reverse=True))
