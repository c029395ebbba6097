"""Geometric duals, dual girth, pairwise dual distances, and cut/cycle
translation.

The dual of an embedded graph has one vertex per face and one edge per primal
edge, under the same edge id.  ``left_face`` is the face containing dart
``2e`` and ``right_face`` the face containing dart ``2e+1``; a dual loop
(both sides the same face) is allowed and counts as a cycle of length 1.

The girth search contracts every maximal chain of faces with exactly two
edge-ends (each parallel bundle of an amplified graph is one) into a single
edge weighted by the chain's length.  It runs one Dijkstra search per chain
over that contracted dual and one breadth-first search over the full dual,
which reads back the cycle it picked.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import EdgeAbsentError, NoCycleError, ParityViolationError


@dataclass(frozen=True)
class Cut:
    """One side of a vertex cut.  Must be a nonempty proper subset."""

    side: frozenset

    def validate(self, vertex_count: int) -> None:
        if not 0 < len(self.side) < vertex_count:
            raise ValueError(
                f"cut side of size {len(self.side)} invalid for {vertex_count} vertices")
        if any(not 0 <= v < vertex_count for v in self.side):
            raise ValueError("cut side contains unknown vertices")


class DualGraph:
    """Abstract dual: faces as vertices, primal edge ids reused.

    Attributes:
        face_count: number of dual vertices.
        dual_edges: sorted list of (edge_id, left_face, right_face).
    """

    def __init__(self, face_count, dual_edges):
        self.face_count = face_count
        self.dual_edges = sorted(dual_edges)
        self._by_id = {e: (l, r) for e, l, r in self.dual_edges}
        self._adj = None

    def faces_of(self, e: int) -> tuple[int, int]:
        try:
            return self._by_id[e]
        except KeyError:
            raise EdgeAbsentError(f"dual edge {e} absent") from None

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-face sorted list of (edge_id, other_face); loops appear once."""
        if self._adj is None:
            adj = [[] for _ in range(self.face_count)]
            for e, l, r in self.dual_edges:
                adj[l].append((e, r))
                if r != l:
                    adj[r].append((e, l))
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj


def geometric_dual(g: EmbeddedGraph) -> DualGraph:
    """Construct the geometric dual of g."""
    face_of = g.face_of_dart()
    dual_edges = [(e, face_of[2 * e], face_of[2 * e + 1]) for e in g.edges()]
    return DualGraph(len(g.faces()), dual_edges)


def _bfs_levels(adj, sources, reached_by, avoid_edge=None):
    """Breadth-first search over the dual, one level at a time.

    Yields (distance, faces first reached at that distance), starting with
    the sources at 0, and records in ``reached_by`` the edge that first
    reached each face (None for a source).  Neighbours are visited in
    ``adj`` order and ``avoid_edge`` is never crossed.  A level is expanded
    only when the caller asks for the next one, so stopping after a level
    costs nothing beyond it.
    """
    frontier = []
    for s in sources:
        if s not in reached_by:
            reached_by[s] = None
            frontier.append(s)
    dist = 0
    while frontier:
        yield dist, frontier
        dist += 1
        nxt = []
        for u in frontier:
            for e, w in adj[u]:
                if e != avoid_edge and w not in reached_by:
                    reached_by[w] = e
                    nxt.append(w)
        frontier = nxt


def _chains(adj):
    """Maximal chains of faces with exactly two edge-ends, each contracted to
    (smallest edge id, length, end, end), sorted.

    The ends are the chain's branch faces (faces with other than two
    edge-ends), possibly one face twice; both are None for a component that
    is one closed chain.  ``adj`` must have no loops, so a face's edge-ends
    are its ``adj`` entries.
    """
    seen = set()  # edges already in a chain
    chains = []

    def walk(start, e, at):
        key = last = e
        length = 1
        seen.add(e)
        while at != start and len(adj[at]) == 2:
            (e1, f1), (e2, f2) = adj[at]
            last, at = (e2, f2) if e1 == last else (e1, f1)
            seen.add(last)
            if last < key:
                key = last
            length += 1
        return key, length, at

    for f, ends in enumerate(adj):
        if len(ends) != 2:
            for e, at in ends:
                if e not in seen:
                    key, length, end = walk(f, e, at)
                    chains.append((key, length, f, end))
    for f, ends in enumerate(adj):
        if len(ends) == 2 and ends[0][0] not in seen:
            key, length, _ = walk(f, *ends[0])
            chains.append((key, length, None, None))
    chains.sort()
    return chains


def _chain_distance(links, source, target, skip, bound):
    """Dijkstra distance from source to target over the contracted chains in
    ``links``, never using chain ``skip``; None when target is unreachable
    or only at ``bound`` or more."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if u == target:
            return du
        if du > dist[u]:
            continue
        for length, key, v in links[u]:
            dv = du + length
            if key != skip and dv < dist.get(v, bound):
                dist[v] = dv
                heapq.heappush(heap, (dv, v))
    return None


def shortest_dual_cycle(d: DualGraph):
    """Shortest simple cycle as (length, edge id list), or None if acyclic.

    The shortest cycle through edge e = (a, b) is e plus a shortest a-b path
    avoiding e; minimizing over all edges is exact on multigraphs (loops give
    length 1, parallel pairs length 2).  Deterministic: the anchor is the
    smallest edge id on some shortest cycle.

    A face with exactly two edge-ends links its two edges into a chain, and
    every cycle through one edge of a chain runs along the whole chain.  So
    the search runs on the dual with each chain contracted to one edge
    weighted by its length: the shortest cycle through a chain is the chain
    plus a Dijkstra path between its two ends that avoids it.  Chains are
    taken in order of their smallest edge, and only a strictly shorter cycle
    replaces the best, so the anchor is that of searching from every edge.
    One breadth-first search from the anchor then reads the cycle back.
    """
    for e, l, r in d.dual_edges:
        if l == r:
            return 1, [e]
    adj = d.adjacency()
    chains = _chains(adj)
    links = {}  # branch face -> (length, key, other end) of its two-ended chains
    for key, length, a, b in chains:
        if a is not None and a != b:
            links.setdefault(a, []).append((length, key, b))
            links.setdefault(b, []).append((length, key, a))
    best_len, best_key = len(d.dual_edges) + 1, None  # longer than any cycle
    for key, length, a, b in chains:
        if a is None or a == b:
            found = length
        else:
            rest = _chain_distance(links, a, b, key, best_len - length)
            if rest is None:
                continue
            found = length + rest
        if found < best_len:
            best_len, best_key = found, key
    if best_key is None:
        return None
    l, r = d.faces_of(best_key)
    reached_by = {}
    for _ in _bfs_levels(adj, [l], reached_by, avoid_edge=best_key):
        if r in reached_by:
            break
    path = []
    at = r
    while reached_by[at] is not None:
        step = reached_by[at]
        path.append(step)
        a, b = d.faces_of(step)
        at = a if b == at else b
    path.reverse()
    return best_len, path + [best_key]


def dual_girth(d: DualGraph) -> int:
    """Length of the shortest cycle in the dual.

    A loop counts as 1 and a parallel pair as 2.  Raises NoCycleError when
    the dual is a forest.
    """
    found = shortest_dual_cycle(d)
    if found is None:
        raise NoCycleError("dual graph is a forest")
    return found[0]


def min_pairwise_distance(d: DualGraph, edge_ids) -> int | None:
    """Minimum distance over pairs of distinct edges in edge_ids.

    The distance of two dual edges is the closest distance between their
    endpoints, so adjacent edges are at distance 0.  None for fewer than
    two edges or when no two lie in one component.
    """
    ids = sorted(edge_ids)
    if len(ids) < 2:
        return None
    adj = d.adjacency()
    edges_at = {}
    for e in ids:
        for f in d.faces_of(e):
            edges_at.setdefault(f, []).append(e)
    best = None
    # each pair is found from its smaller edge
    for e in ids:
        for dist, faces in _bfs_levels(adj, d.faces_of(e), {}):
            if best is not None and dist >= best:
                break
            if any(other > e for f in faces for other in edges_at.get(f, ())):
                best = dist
                break
        if best == 0:
            break
    return best


def cut_edges(g: EmbeddedGraph, cut: Cut) -> list[int]:
    """Edge ids crossing the cut (loops never cross)."""
    side = cut.side
    out = []
    for e in g.edges():
        u, v = g.endpoints(e)
        if (u in side) != (v in side):
            out.append(e)
    return out


def cut_to_dual_cycles(g: EmbeddedGraph, d: DualGraph, cut: Cut) -> list[list[int]]:
    """Decompose the dual of the cut (U, V-U) into edge-disjoint cycles.

    Returns a list of cycles, each a list of edge ids in walk order; their
    union is exactly the cut's dual edge set.  Every face must meet that set
    an even number of times (ParityViolationError otherwise).
    """
    cut.validate(g.vertex_count)
    s_star = cut_edges(g, cut)
    if not s_star:
        return []

    incident = {}
    for e in s_star:
        l, r = d.faces_of(e)
        incident.setdefault(l, []).append((e, r))
        if r != l:
            incident.setdefault(r, []).append((e, l))
    for f, lst in incident.items():
        deg = sum(2 if other == f else 1 for _, other in lst)
        if deg % 2:
            raise ParityViolationError(
                f"face {f} meets the cut's dual edges {deg} times")
        lst.sort(reverse=True)  # pop() yields the smallest edge first

    # One stack walk that always takes the smallest unused edge.  Every face
    # has even unused degree, so the walk can only get stuck at its start.
    # Revisiting a face on the walk closes a cycle; it is popped off and the
    # walk resumes from that face.  Used edges only accumulate, so they are
    # dropped from ``incident`` for good, and the start only moves forward.
    used = set()
    cycles = []
    for start in sorted(incident):
        walk_faces = [start]
        walk_edges = []
        index_of = {start: 0}
        while True:
            pending = incident[walk_faces[-1]]
            while pending and pending[-1][0] in used:
                pending.pop()
            if not pending:
                break
            e, nxt = pending.pop()
            used.add(e)
            walk_edges.append(e)
            if nxt in index_of:
                j = index_of[nxt]
                cycles.append(walk_edges[j:])
                for f in walk_faces[j + 1:]:
                    del index_of[f]
                del walk_faces[j + 1:]
                del walk_edges[j:]
            else:
                index_of[nxt] = len(walk_faces)
                walk_faces.append(nxt)
    return sorted(cycles, key=min)
