"""Port-numbered graphs: the terrain an agent walks on.

A port graph is a finite, simple, connected, undirected graph in which every
vertex privately numbers its incident edges 0..deg(v)-1.  Vertex ids are
bookkeeping only; nothing an agent can observe depends on them.

The radius-1 sensor reading at a vertex (its *binocular label*) packs the
degree, the back-port of each incident edge, and the port-numbered edges
among the neighbors.  Two vertices get equal labels exactly when their
port-labeled closed neighborhoods are isomorphic over the identity on ports.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable, Iterator

from .errors import GraphFormatError, UndefinedPort

Edge = tuple[int, int, int, int]  # (u, v, port at u, port at v)
Label = tuple[int, tuple[int, ...], tuple[tuple[int, int, int, int], ...]]


class PortGraph:
    """Immutable port-numbered graph.

    ``edges`` holds (u, v, pu, pv) tuples: an edge between u and v, numbered
    pu at u and pv at v.  Construction validates vertex ranges, simplicity,
    port contiguity (exactly 0..deg-1 at every vertex) and connectivity.
    """

    __slots__ = ("n", "_adj", "_back", "_port_of", "_labels", "_enc")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        edges = list(edges)
        if n > len(edges) + 1:  # before allocating n per-vertex tables
            raise GraphFormatError(
                f"graph is disconnected ({len(edges)} edges cannot connect "
                f"{n} vertices)"
            )
        half: list[dict[int, tuple[int, int]]] = [dict() for _ in range(n)]
        seen_pairs: set[tuple[int, int]] = set()
        for u, v, pu, pv in edges:
            for x in (u, v):
                if not 0 <= x < n:
                    raise GraphFormatError(f"vertex {x} out of range 0..{n - 1}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            pair = (min(u, v), max(u, v))
            if pair in seen_pairs:
                raise GraphFormatError(f"duplicate edge {pair[0]}-{pair[1]}")
            seen_pairs.add(pair)
            for x, p, y, q in ((u, pu, v, pv), (v, pv, u, pu)):
                if p < 0:
                    raise GraphFormatError(f"negative port {p} at vertex {x}")
                if p in half[x]:
                    raise GraphFormatError(f"port {p} reused at vertex {x}")
                half[x][p] = (y, q)
        for x, ports in enumerate(half):
            if sorted(ports) != list(range(len(ports))):
                raise GraphFormatError(
                    f"ports at vertex {x} are {sorted(ports)}, "
                    f"expected 0..{len(ports) - 1}"
                )
        self.n = n
        self._adj = tuple(
            tuple(half[x][p][0] for p in range(len(half[x]))) for x in range(n)
        )
        self._back = tuple(
            tuple(half[x][p][1] for p in range(len(half[x]))) for x in range(n)
        )
        self._port_of = tuple(
            {half[x][p][0]: p for p in range(len(half[x]))} for x in range(n)
        )
        self._labels: list[Label | None] = [None] * n
        self._enc: tuple | None = None
        self._check_connected()

    def _check_connected(self) -> None:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != self.n:
            raise GraphFormatError(
                f"graph is disconnected ({len(seen)} of {self.n} reachable)"
            )

    # -- basic accessors ---------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbor(self, v: int, p: int) -> int:
        """Endpoint of the edge numbered p at v."""
        if not 0 <= p < len(self._adj[v]):
            raise UndefinedPort(f"vertex {v} has no port {p} (degree {len(self._adj[v])})")
        return self._adj[v][p]

    def back_port(self, v: int, p: int) -> int:
        """The other endpoint's number for the edge numbered p at v."""
        if not 0 <= p < len(self._back[v]):
            raise UndefinedPort(f"vertex {v} has no port {p} (degree {len(self._back[v])})")
        return self._back[v][p]

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors in port order."""
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._port_of[u]

    def port_to(self, u: int, v: int) -> int:
        """The number u gives to the edge toward v; raises if not adjacent."""
        try:
            return self._port_of[u][v]
        except KeyError:
            raise UndefinedPort(f"vertices {u} and {v} are not adjacent") from None

    def edges(self) -> Iterator[Edge]:
        """Each undirected edge once, as (u, v, pu, pv) with u < v, sorted."""
        for u in range(self.n):
            for p, v in enumerate(self._adj[u]):
                if u < v:
                    yield (u, v, p, self._back[u][p])

    def edge_count(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    # -- labels ------------------------------------------------------------

    def label(self, v: int) -> Label:
        """Radius-1 sensor reading at v.

        (degree, back ports by port, sorted tuple of neighbor-neighbor edges
        (i, j, port w_i gives w_j, port w_j gives w_i) over port pairs i < j).
        """
        cached = self._labels[v]
        if cached is not None:
            return cached
        deg = len(self._adj[v])
        back = self._back[v]
        nn = []
        for i, j in combinations(range(deg), 2):
            wi, wj = self._adj[v][i], self._adj[v][j]
            p = self._port_of[wi].get(wj)
            if p is not None:
                nn.append((i, j, p, self._port_of[wj][wi]))
        lab: Label = (deg, back, tuple(sorted(nn)))
        self._labels[v] = lab
        return lab

    # -- identity ----------------------------------------------------------

    def encoding(self) -> tuple:
        """(n, sorted edge tuple): total identity of the labeled structure."""
        if self._enc is None:
            self._enc = (self.n, tuple(sorted(self.edges())))
        return self._enc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortGraph):
            return NotImplemented
        return self.encoding() == other.encoding()

    def __hash__(self) -> int:
        return hash(self.encoding())

    def __repr__(self) -> str:
        return f"PortGraph(n={self.n}, m={self.edge_count()})"


# -- port-propagated maps ----------------------------------------------------


def port_map(src: PortGraph, a: int, dst: PortGraph,
             b: int) -> dict[int, int] | None:
    """The map V(src) -> V(dst) with a -> b that commutes with ports.

    Propagates port by port from a: the port-p neighbor of u goes to the
    port-p neighbor of u's image.  Returns None if two walks to one src
    vertex land on different dst vertices (the map would be path-dependent)
    or ports run out (a vertex and its image differ in degree).  Back ports
    and labels are not compared; a covering check does that.  The keys
    come in breadth-first order from a, neighbors in port order.
    """
    f = {a: b}
    queue = [a]
    for u in queue:  # grows while iterated: breadth-first order
        here, there = src._adj[u], dst._adj[f[u]]
        if len(here) != len(there):
            return None
        for w, img in zip(here, there):
            if w in f:
                if f[w] != img:
                    return None
            else:
                f[w] = img
                queue.append(w)
    return f


# -- text format ----------------------------------------------------------------
#
# Graph files:   "v N" header, then one "e U V PU PV" line per edge.
# Map files:     one "m A B" line per source vertex (A in source, B in target).
# '#' starts a comment; blank lines ignored.


def parse_graph(text: str) -> PortGraph:
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if n is not None:
                raise GraphFormatError("repeated vertex-count line", lineno)
            if len(parts) != 2:
                raise GraphFormatError("vertex line must be 'v N'", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"bad vertex count {parts[1]!r}", lineno)
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError("edge before vertex-count line", lineno)
            if len(parts) != 5:
                raise GraphFormatError("edge line must be 'e U V PU PV'", lineno)
            try:
                edges.append(tuple(int(x) for x in parts[1:]))  # type: ignore[arg-type]
            except ValueError:
                raise GraphFormatError(f"non-integer field in {line!r}", lineno)
        else:
            raise GraphFormatError(f"unknown record {parts[0]!r}", lineno)
    if n is None:
        raise GraphFormatError("missing vertex-count line")
    return PortGraph(n, edges)


def format_graph(g: PortGraph) -> str:
    lines = [f"v {g.n}"]
    lines.extend(f"e {u} {v} {pu} {pv}" for u, v, pu, pv in g.edges())
    return "\n".join(lines) + "\n"


def read_text(path: str) -> str:
    """A file's contents; GraphFormatError naming the file if not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(
            f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_graph(path: str) -> PortGraph:
    return parse_graph(read_text(path))


def save_graph(g: PortGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def parse_vertex_map(text: str, src: PortGraph, dst: PortGraph) -> dict[int, int]:
    """Parse 'm A B' lines into a total map V(src) -> V(dst)."""
    f: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "m" or len(parts) != 3:
            raise GraphFormatError("map line must be 'm A B'", lineno)
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(f"non-integer field in {line!r}", lineno)
        if not 0 <= a < src.n:
            raise GraphFormatError(f"source vertex {a} out of range", lineno)
        if not 0 <= b < dst.n:
            raise GraphFormatError(f"target vertex {b} out of range", lineno)
        if a in f:
            raise GraphFormatError(f"vertex {a} mapped twice", lineno)
        f[a] = b
    missing = [a for a in src.vertices if a not in f]
    if missing:
        raise GraphFormatError(f"map is not total: missing {missing}")
    return f


def format_vertex_map(f: dict[int, int]) -> str:
    return "\n".join(f"m {a} {f[a]}" for a in sorted(f)) + "\n"


def load_vertex_map(path: str, src: PortGraph, dst: PortGraph) -> dict[int, int]:
    return parse_vertex_map(read_text(path), src, dst)
