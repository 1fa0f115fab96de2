"""Views: label-decorated walk trees.

The depth-k view from v is the tree of all k-step walks out of v, each node
decorated with the radius-1 label of the vertex reached and each tree edge
with its (outgoing port, incoming port) pair.  It is exactly what an agent
can know after exploring to distance k: vertex identities never appear.

Walk trees of interesting depth are exponentially large, so a view is only
ever held folded: the ViewInterner hash-conses subtree shapes into small
integer ids (per-(vertex, remaining-depth) memo while folding), so a view
is a ``ViewKey`` (table, id, depth, walk) and whole-view equality is an
integer comparison.  Interned ids are only meaningful within one table and
at equal remaining depth; all code here respects that.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import PortGraph


class ViewInterner:
    """Assigns dense integer ids to view-subtree shapes.

    A shape key is (label, ((out_port, in_port, child_id), ...)).  Equal
    subtrees (at equal remaining depth) receive equal ids.
    """

    __slots__ = ("_ids", "_keys", "_hash", "_hashed", "size")

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self._keys: list[tuple] = []
        # size() is len(table) without a Python-level call, for callers
        # that read the length once per step
        self.size = self._keys.__len__
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

    def find(self, key: tuple) -> int:
        """The id of an interned key; KeyError when the table lacks it.
        Never writes, so a fold that looks shapes up with it only reads."""
        return self._ids[key]

    def digest(self) -> str:
        """sha256 over the insertion-ordered keys, one repr line per key.

        The keys are the table's full observable state and are append-only,
        so a running hash advanced over the keys added since the previous
        call equals a hash of the whole table.  ``intern`` never touches it.
        """
        if self._hash is None:
            import hashlib  # here, not at the top: folds never hash
            self._hash = hashlib.sha256()
        h = self._hash
        for key in self._keys[self._hashed:]:
            h.update(repr(key).encode())
            h.update(b"\n")
        self._hashed = len(self._keys)
        return h.hexdigest()

    def __len__(self) -> int:
        return len(self._keys)


def format_view(table: ViewInterner, ident: int, depth: int) -> str:
    """Deterministic indented text of a folded full-mode view.

    The walk tree is unfolded from the table's keys, so the output is
    tree-sized: small depths only.
    """
    lines = [f"view depth={depth}"]
    stack = [(ident, 0, "[]")]  # pre-order: a node, then its subtrees
    while stack:
        i, level, arc = stack.pop()
        lab, children = table.key(i)
        lines.append("  " * level + f"{arc} {lab}")
        stack.extend((c, level + 1, f"[{p}|{q}]")
                     for p, q, c in reversed(children))
    return "\n".join(lines) + "\n"


def fold_graph(g: PortGraph, v: int, depth: int, table: ViewInterner,
               nonbacktracking: bool = False) -> int:
    """Interned id of the depth-``depth`` (non-)backtracking walk tree at v.

    Full mode folds the complete walk tree.  Non-backtracking mode skips the
    entry port at every non-root node; by the free-reduction argument the two
    modes induce the same equality relation on (vertex, depth) pairs.
    ValueError when v is not a vertex of g or depth is not an int >= 0 (a
    bool or a float is neither).

    Subtrees are memoized per (vertex, remaining depth), plus the entry port
    in non-backtracking mode, and interned children first in port order.
    The fold keeps its own stack of open nodes, so any depth folds.
    """
    if type(v) is not int or not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for a {g.n}-vertex graph")
    if type(depth) is not int or depth < 0:
        raise ValueError(f"view depth must be an int >= 0, got {depth!r}")
    return _fold(g, v, None, depth, table.intern, nonbacktracking, {})


def _fold(g: PortGraph, v: int, entry: int | None, depth: int,
          intern, nb: bool, memo: dict):
    """What ``intern`` returns for the key of the walk subtree at v
    entered through port ``entry`` (None at a root), ``depth`` levels deep;
    the entry port is skipped in non-backtracking mode.

    A key is (label, ((out port, in port, value), ...)), each value what
    ``intern`` returned for that child: ``table.intern`` gives its id,
    ``table.find`` its id without writing (KeyError stops the fold at a
    shape the table lacks), and an interner returning 1 + the sum of the
    child values counts nodes.
    ``memo`` maps (vertex, entry, depth) in non-backtracking mode, else
    (vertex, depth), to the values of the subtrees folded so far; a caller
    may share it between folds with the same ``intern``.  Each node the
    fold enters, its root included, leaves an entry keyed by its vertex; a
    memo hit enters nothing.  Keys reach ``intern`` in the post-order of
    the walk, one per memo entry made.
    """
    adj, back, label = g._adj, g._back, g.label
    mk = (v, entry, depth) if nb else (v, depth)
    got = memo.get(mk)
    if got is not None:
        return got
    # the open node is held in locals: its memo key, vertex, entry port,
    # its children's remaining depth, label, folded children, next port and
    # port count; its ancestors wait on the stack
    stack: list[tuple] = []
    u, r = v, depth - 1
    lab = label(v)
    children: list[tuple[int, int, int]] = []
    p, deg = 0, lab[0] if depth else 0
    while True:
        if p < deg:
            if nb and p == entry:  # None only at the walk tree's root
                p += 1
                continue
            w, bp = adj[u][p], back[u][p]
            ck = (w, bp, r) if nb else (w, r)
            got = memo.get(ck)
            if got is not None:
                children.append((p, bp, got))
                p += 1
                continue
            stack.append((mk, u, entry, r, lab, children, p, deg, bp))
            mk, u, entry, r = ck, w, bp, r - 1
            lab = label(w)
            children = []
            p, deg = 0, lab[0] if r >= 0 else 0
            continue
        ident = intern((lab, tuple(children)))
        memo[mk] = ident
        if not stack:
            return ident
        mk, u, entry, r, lab, children, p, deg, bp = stack.pop()
        children.append((p, bp, ident))
        p += 1


@dataclass(frozen=True)
class ViewKey:
    """A folded view: the depth-``depth`` walk tree (non-backtracking or
    full) whose shape ``table`` interned as ``ident``.

    Candidate search reads the table (``ViewInterner.find``) and never
    interns into it.
    """

    table: ViewInterner
    ident: int
    depth: int
    nonbacktracking: bool


def view_key(table: ViewInterner, ident: int, depth: int,
             nonbacktracking: bool = False) -> ViewKey:
    return ViewKey(table, ident, depth, nonbacktracking)
