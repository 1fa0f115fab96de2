"""Views: label-decorated walk trees.

The depth-k view from v is the tree of all k-step walks out of v, each node
decorated with the radius-1 label of the vertex reached and each tree edge
with its (outgoing port, incoming port) pair.  It is exactly what an agent
can know after exploring to distance k: vertex identities never appear.

Walk trees of interesting depth are exponentially large, so everything here
is memoized: trees are built with per-(vertex, remaining-depth) sharing (a
DAG in memory, a tree semantically), and the ViewInterner hash-conses
subtree shapes into small integer ids so whole-view equality is an integer
comparison.  Interned ids are only meaningful within one table and at equal
remaining depth; all code here respects that.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import DepthMismatch
from .graphs import Label, PortGraph

# children entries are (out_port, in_port, child)
ChildTuple = tuple[tuple[int, int, "ViewNode"], ...]


@dataclass(frozen=True, eq=False)
class ViewNode:
    """One walk-tree node.  Identity equality; compare views with view_eq.

    Structural == would recurse through the shared DAG and can go
    exponential across separately built trees, so it is disabled.
    """

    label: Label
    children: ChildTuple


@dataclass(frozen=True, eq=False)
class ViewTree:
    root: ViewNode
    depth: int


def view(g: PortGraph, v: int, depth: int) -> ViewTree:
    """Depth-``depth`` view from v, with subtree sharing."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for a {g.n}-vertex graph")
    if depth < 0:
        raise ValueError("negative view depth")
    memo: dict[tuple[int, int], ViewNode] = {}

    def rec(u: int, rem: int) -> ViewNode:
        got = memo.get((u, rem))
        if got is not None:
            return got
        lab = g.label(u)
        children: list[tuple[int, int, ViewNode]] = []
        if rem > 0:
            for p in range(lab[0]):
                children.append(
                    (p, g.back_port(u, p), rec(g.neighbor(u, p), rem - 1))
                )
        node = ViewNode(lab, tuple(children))
        memo[(u, rem)] = node
        return node

    return ViewTree(rec(v, depth), depth)


def view_eq(a: ViewTree, b: ViewTree) -> bool:
    """Structural equality of two views of equal depth.

    Pairwise memo keeps this polynomial in the DAG sizes even though the
    trees themselves are exponential.
    """
    if a.depth != b.depth:
        raise DepthMismatch(f"comparing views of depth {a.depth} and {b.depth}")
    done: set[tuple[int, int]] = set()
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in done:
            continue
        if x.label != y.label or len(x.children) != len(y.children):
            return False
        done.add((id(x), id(y)))
        for (px, ix, cx), (py, iy, cy) in zip(x.children, y.children):
            if px != py or ix != iy:
                return False
            stack.append((cx, cy))
    return True


def truncate(t: ViewTree, depth: int) -> ViewTree:
    """The depth-``depth`` prefix of t (depth <= t.depth)."""
    if depth > t.depth:
        raise DepthMismatch(f"cannot extend a depth-{t.depth} view to {depth}")
    if depth == t.depth:
        return t
    memo: dict[tuple[int, int], ViewNode] = {}

    def rec(node: ViewNode, rem: int) -> ViewNode:
        got = memo.get((id(node), rem))
        if got is not None:
            return got
        if rem == 0:
            out = ViewNode(node.label, ())
        else:
            out = ViewNode(
                node.label,
                tuple((p, q, rec(c, rem - 1)) for p, q, c in node.children),
            )
        memo[(id(node), rem)] = out
        return out

    return ViewTree(rec(t.root, depth), depth)


def node_count(t: ViewTree) -> int:
    """Number of walk-tree nodes, with tree multiplicities."""
    memo: dict[int, int] = {}

    def rec(node: ViewNode) -> int:
        got = memo.get(id(node))
        if got is not None:
            return got
        total = 1 + sum(rec(c) for _, _, c in node.children)
        memo[id(node)] = total
        return total

    return rec(t.root)


def format_view(t: ViewTree) -> str:
    """Deterministic indented text.  Tree-sized output: small depths only."""
    lines = [f"view depth={t.depth}"]

    def rec(node: ViewNode, level: int, arc: str) -> None:
        lines.append("  " * level + f"{arc} {node.label}")
        for p, q, c in node.children:
            rec(c, level + 1, f"[{p}|{q}]")

    rec(t.root, 0, "[]")
    return "\n".join(lines) + "\n"


# -- hash-consing ----------------------------------------------------------------


class ViewInterner:
    """Assigns dense integer ids to view-subtree shapes.

    A shape key is (label, ((out_port, in_port, child_id), ...)).  Equal
    subtrees (at equal remaining depth) receive equal ids.
    """

    __slots__ = ("_ids", "_keys", "_hash", "_hashed")

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        self._hash = None  # created by the first digest() call
        self._hashed = 0

    def intern(self, key: tuple) -> int:
        got = self._ids.get(key)
        if got is not None:
            return got
        ident = len(self._keys)
        self._ids[key] = ident
        self._keys.append(key)
        return ident

    def key(self, ident: int) -> tuple:
        return self._keys[ident]

    def digest(self) -> str:
        """sha256 over the insertion-ordered keys, one repr line per key.

        The keys are the table's full observable state and are append-only,
        so a running hash advanced over the keys added since the previous
        call equals a hash of the whole table.  ``intern`` never touches it.
        """
        if self._hash is None:
            self._hash = hashlib.sha256()
        h = self._hash
        for key in self._keys[self._hashed:]:
            h.update(repr(key).encode())
            h.update(b"\n")
        self._hashed = len(self._keys)
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self._keys)


def fold_graph(g: PortGraph, v: int, depth: int, table: ViewInterner,
               nonbacktracking: bool = False) -> int:
    """Interned id of the depth-``depth`` (non-)backtracking walk tree at v.

    Full mode folds the complete walk tree.  Non-backtracking mode skips the
    entry port at every non-root node; by the free-reduction argument the two
    modes induce the same equality relation on (vertex, depth) pairs.
    """
    memo: dict[tuple, int] = {}

    def rec(u: int, entry: int | None, rem: int) -> int:
        mk = (u, entry, rem) if nonbacktracking else (u, rem)
        got = memo.get(mk)
        if got is not None:
            return got
        lab = g.label(u)
        children: list[tuple[int, int, int]] = []
        if rem > 0:
            for p in range(lab[0]):
                if nonbacktracking and entry is not None and p == entry:
                    continue
                bp = g.back_port(u, p)
                children.append((p, bp, rec(g.neighbor(u, p), bp, rem - 1)))
        ident = table.intern((lab, tuple(children)))
        memo[mk] = ident
        return ident

    return rec(v, None, depth)


def fold_tree(t: ViewTree, table: ViewInterner) -> int:
    """Interned id of an explicit view tree (full mode by construction)."""
    memo: dict[int, int] = {}

    def rec(node: ViewNode) -> int:
        got = memo.get(id(node))
        if got is not None:
            return got
        ident = table.intern(
            (node.label, tuple((p, q, rec(c)) for p, q, c in node.children))
        )
        memo[id(node)] = ident
        return ident

    return rec(t.root)


def reintern(src: ViewInterner, ident: int, dst: ViewInterner) -> int:
    """Re-fold an interned shape into another table; id in dst's numbering."""
    memo: dict[int, int] = {}

    def rec(i: int) -> int:
        got = memo.get(i)
        if got is not None:
            return got
        lab, children = src.key(i)
        out = dst.intern((lab, tuple((p, q, rec(c)) for p, q, c in children)))
        memo[i] = out
        return out

    return rec(ident)


@dataclass(frozen=True)
class ViewKey:
    """A folded view plus the metadata candidate search needs.

    ``ident`` is meaningful only together with the table that produced it.
    ``child_labels`` are the root's depth-1 child labels in port order
    (empty when depth is 0); they drive cheap candidate prefilters.
    """

    ident: int
    depth: int
    nonbacktracking: bool
    root_label: Label
    child_labels: tuple[Label, ...] = field(default=())


def view_key(table: ViewInterner, ident: int, depth: int,
             nonbacktracking: bool = False) -> ViewKey:
    lab, children = table.key(ident)
    child_labels = tuple(table.key(c)[0] for _, _, c in children)
    return ViewKey(ident, depth, nonbacktracking, lab, child_labels)


def same_view(g1: PortGraph, v1: int, g2: PortGraph, v2: int, depth: int,
              nonbacktracking: bool = False) -> bool:
    """Do v1 in g1 and v2 in g2 have equal depth-``depth`` views?"""
    table = ViewInterner()
    a = fold_graph(g1, v1, depth, table, nonbacktracking)
    b = fold_graph(g2, v2, depth, table, nonbacktracking)
    return a == b
