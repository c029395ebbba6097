"""Geometric duals, their threads, dual girth, pairwise dual distances, and
cut/cycle translation.

The dual of an embedded graph has one vertex per face and one edge per primal
edge, under the same edge id.  ``left_face`` is the face containing dart
``2e`` and ``right_face`` the face containing dart ``2e+1``; a dual loop
(both sides the same face) is allowed and counts as a cycle of length 1.

A thread is a maximal chain of degree-2 faces (each parallel bundle of an
amplified graph is one).  ``find_threads`` is the one chain decomposition,
and ``DualGraph`` the one representation it reads: the threads of a dual's
2-core are found once per ``DualGraph`` (``core_threads`` peels the pendant
trees on a count of degrees and decomposes the dual itself, or a
``DualGraph`` of its 2-core when it peeled something), and everything after
works on whole threads.  The girth search contracts each thread into one
edge weighted by its length, runs one Dijkstra search per thread, and reads
the cycle it picked back along the same contracted threads; its answer is
also kept once per ``DualGraph``, so a dual that surgery hands on to the
spanning step carries the girth surgery measured on it.  The far-set
selection in ``spanning`` keeps the threads as a graph on their branch
faces.  ``min_pairwise_distance`` runs one Dijkstra search over the same
contracted threads, cut only at the ends of the queried edges and where a
pruned edge hangs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import (
    DegreeOneVertexError,
    EdgeAbsentError,
    NoCycleError,
    ParityViolationError,
)


_UNSEARCHED = object()


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
        loops: (edge_id, face) of each loop, in edge-id order.
    """

    def __init__(self, face_count, dual_edges):
        self.face_count = face_count
        self.dual_edges = sorted(dual_edges)
        self._by_id = {e: (l, r) for e, l, r in self.dual_edges}
        self.loops = [(e, l) for e, l, r in self.dual_edges if l == r]
        self._neighbors = None
        self._threads = None
        self._pendant = None  # the edges pruned off the 2-core
        self._places = None
        self._shortest = _UNSEARCHED  # shortest_dual_cycle's answer

    def faces_of(self, e: int) -> tuple[int, int]:
        try:
            return self._by_id[e]
        except KeyError:
            raise EdgeAbsentError(f"dual edge {e} absent") from None

    def neighbors(self) -> list[dict[int, int]]:
        """Per-face {edge_id: other_face} in edge-id order, loops omitted.

        Built once and shared: callers must not mutate it.
        """
        if self._neighbors is None:
            adj = [{} for _ in range(self.face_count)]
            for e, l, r in self.dual_edges:
                if l != r:
                    adj[l][e] = r
                    adj[r][e] = l
            self._neighbors = adj
        return self._neighbors

    def core_threads(self) -> tuple[Thread, ...]:
        """The threads of the dual's 2-core (every degree-1 face peeled
        away, repeatedly), found once."""
        if self._threads is None:
            neighbors = self.neighbors()
            degree = [len(m) for m in neighbors]
            for _, f in self.loops:
                degree[f] += 2
            stack = [f for f, deg in enumerate(degree) if deg == 1]
            pendant = []
            while stack:
                f = stack.pop()
                if degree[f] != 1:
                    continue
                # f has no loop, and its edges peeled so far lead to peeled
                # faces, of degree 0; the one left leads to a face that is not
                e, other = next((e, o) for e, o in neighbors[f].items() if degree[o])
                pendant.append(e)
                degree[f] = 0
                degree[other] -= 1
                if degree[other] == 1:
                    stack.append(other)
            self._pendant = pendant
            core = self
            if pendant:
                gone = set(pendant)
                core = DualGraph(self.face_count,
                                 [x for x in self.dual_edges if x[0] not in gone])
            self._threads = tuple(find_threads(core))
        return self._threads

    def _thread_places(self):
        """Where the 2-core's edges sit on ``core_threads()``, found once.

        Returns (edge id -> (thread index, offset), thread index -> offsets
        of the thread's faces that a pruned edge hangs from).  Edge
        ``t.edges[o]`` joins ``t.vertices[o]`` and ``t.vertices[o + 1]``.
        """
        if self._places is None:
            threads = self.core_threads()
            places = {e: (i, o) for i, t in enumerate(threads)
                      for o, e in enumerate(t.edges)}
            hangs = {}
            if self._pendant:
                feet = {f for e in self._pendant for f in self._by_id[e]}
                for i, t in enumerate(threads):
                    offsets = [o for o, f in enumerate(t.vertices) if f in feet]
                    if offsets:
                        hangs[i] = offsets
            self._places = places, hangs
        return self._places


def geometric_dual(g: EmbeddedGraph) -> DualGraph:
    """Construct the geometric dual of g."""
    face_of = g.face_of_dart()
    dual_edges = [(e, face_of[2 * e], face_of[2 * e + 1]) for e in g.edges()]
    return DualGraph(len(g.faces()), dual_edges)


@dataclass(frozen=True)
class Thread:
    """Maximal chain of degree-2 dual vertices.

    ``vertices`` is the walk (one longer than ``edges`` for paths; first ==
    last for cycles).  A cycle thread is either a whole component in which
    every vertex has degree 2, or a closed chain attached to one branch
    vertex.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]

    @property
    def kind(self) -> str:
        return "cycle" if self.vertices[0] == self.vertices[-1] else "path"

    @property
    def length(self) -> int:
        return len(self.edges)


def find_threads(d: DualGraph) -> list[Thread]:
    """Decompose a dual graph of minimum degree 2 into maximal threads.

    Every edge belongs to exactly one returned thread, walked in its
    canonical direction: a path runs from its end with the smaller id; a
    cycle starts at its branch vertex, or else at its smallest vertex, and
    leaves along the smaller of its two end edges.  Faces of degree 0 are
    skipped.  Raises DegreeOneVertexError when the precondition is violated.
    """
    neighbors = d.neighbors()
    degree = [len(m) for m in neighbors]  # a loop counts twice
    loops = {}
    for e, f in d.loops:
        loops.setdefault(f, []).append(e)
        degree[f] += 2

    def walk(start, edge, other):
        # Follow the chain from start along the non-loop edge through
        # degree-2 faces, up to a face of another degree or back at start.
        # A face entered by a non-loop edge that has degree 2 has no loop,
        # so its two neighbour entries are the way in and the way on.
        edges, verts = [edge], [start, other]
        add_edge, add_vert = edges.append, verts.append
        cur = other
        while cur != start and degree[cur] == 2:
            ends = neighbors[cur]
            e1, e2 = ends
            edge = e2 if e1 == edge else e1
            cur = ends[edge]
            add_edge(edge)
            add_vert(cur)
        return edges, verts

    threads = []
    used = set()
    for b, deg in enumerate(degree):
        if deg == 2 or deg == 0:
            continue
        if deg == 1:
            raise DegreeOneVertexError(f"vertex {b} has degree 1")
        incident = neighbors[b].items()  # in edge-id order
        if b in loops:
            incident = sorted([(e, b) for e in loops[b]] + list(incident))
        for e, other in incident:
            if e in used:
                continue
            if other == b:  # loop at a branch vertex: cycle of length 1
                used.add(e)
                threads.append(Thread((e,), (b, b)))
                continue
            edges, verts = walk(b, e, other)
            used.update(edges)
            threads.append(Thread(tuple(edges), tuple(verts)))

    # the edges left over form components where every vertex has degree 2,
    # single cycles; the first vertex met of each is its smallest, and the
    # cycle leaves it along its first (smaller) edge, or is its loop
    if len(used) < sum(degree) // 2:
        for f, deg in enumerate(degree):
            if deg == 2 and min(neighbors[f] or loops[f]) not in used:
                edges, verts = (walk(f, *next(iter(neighbors[f].items())))
                                if neighbors[f] else (loops[f], (f, f)))
                used.update(edges)
                threads.append(Thread(tuple(edges), tuple(verts)))
    return threads


def _chain_distance(links, source, target, skip, bound):
    """Dijkstra distances from source over the contracted path threads in
    ``links``, never using thread ``skip`` and recording only distances
    below ``bound``; the search stops once target is settled.  Returns the
    distance map, which holds target (at its distance) only when reached."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if u == target:
            break
        if du > dist[u]:
            continue
        for length, key, v, _ in links[u]:
            dv = du + length
            if key != skip and dv < dist.get(v, bound):
                dist[v] = dv
                heapq.heappush(heap, (dv, v))
    return dist


def shortest_dual_cycle(d: DualGraph):
    """Shortest simple cycle as (length, edge id list), or None if acyclic.

    Searched once per ``DualGraph``: later calls, ``dual_girth`` among
    them, read the memo, and each call returns a list of its own.

    The shortest cycle through edge e = (l, r) is e plus a shortest l-r path
    avoiding e; minimizing over all edges is exact on multigraphs (loops give
    length 1, parallel pairs length 2).  Deterministic: the anchor is the
    smallest edge id on some shortest cycle, and the cycle is the least
    shortest l-r path, compared as edge-id sequences from l, then the anchor.

    Pendant trees carry no cycle, so the search runs on the 2-core, whose
    threads ``core_threads`` gives.  Every cycle through one edge of a
    thread runs along the whole thread.  A cycle thread is a cycle of its
    own length; a path thread is contracted to one edge weighted by its
    length, and the shortest cycle through it is the thread plus a Dijkstra
    path between its two ends that avoids it.  Threads are taken in order of
    their smallest edge, and only a strictly shorter cycle replaces the
    best, so the anchor is that of searching from every edge.

    The least path runs along the anchor's thread from l to its end x, from
    x to the other end y, and along the thread to r.  Only the middle has a
    choice: one Dijkstra search from y, stopped at x, gives the distances,
    and at each branch face the path takes the link with the smallest first
    edge among those on a shortest path to y.  On a cycle thread x is y.
    """
    if d._shortest is _UNSEARCHED:
        d._shortest = _shortest_cycle(d)
    found = d._shortest
    return None if found is None else (found[0], list(found[1]))


def _shortest_cycle(d: DualGraph):
    """``shortest_dual_cycle``'s search, with the cycle as a tuple."""
    if d.loops:
        return 1, (d.loops[0][0],)
    chains = sorted((min(t.edges), t.vertices[0], t.vertices[-1], t)
                    for t in d.core_threads())
    links = {}  # branch face -> (length, key, other end, thread) of its path threads
    for key, a, b, t in chains:
        if a != b:
            links.setdefault(a, []).append((t.length, key, b, t))
            links.setdefault(b, []).append((t.length, key, a, t))
    best_len, best = len(d.dual_edges) + 1, None  # longer than any cycle
    for key, a, b, t in chains:
        if a == b:
            found = t.length
        else:
            rest = _chain_distance(links, a, b, key, best_len - t.length).get(b)
            if rest is None:
                continue
            found = t.length + rest
        if found < best_len:
            best_len, best = found, (key, t)
    if best is None:
        return None

    key, t = best
    edges, verts = t.edges, t.vertices
    o = edges.index(key)
    if verts[o] == d.faces_of(key)[0]:  # l lies before the anchor: turn round
        edges, verts, o = edges[::-1], verts[::-1], len(edges) - 1 - o
    # the anchor now runs from r = verts[o] to l = verts[o + 1]
    x, y = verts[-1], verts[0]
    dist = _chain_distance(links, y, x, key, best_len)
    middle = []
    while x != y:
        first, x, run = min(
            (th.edges[0] if th.vertices[0] == x else th.edges[-1], v, th.edges)
            for length, k, v, th in links[x]
            if k != key and dist.get(v, best_len) + length == dist[x])
        middle += run if run[0] == first else run[::-1]
    return best_len, (*edges[o + 1:], *middle, *edges[:o], key)


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

    One Dijkstra search runs from the ends of every edge at once and labels
    each face with the edge it was reached from.  The answer is the least
    dist(u) + length + dist(v) over the links whose ends carry different
    labels: along a shortest path between the closest pair, the labels
    change on some link, and every such sum is the length of a walk between
    two edges of the set.  The links are the 2-core's threads, each one
    link between its ends, cut at the ends of every queried edge on it and
    at every face a pruned edge hangs from; each pruned edge is a link of
    length 1.  Faces of degree 2 have no other edge, so these links keep
    every distance between the faces they join.
    """
    ids = sorted(edge_ids)
    if len(ids) < 2:
        return None
    threads = d.core_threads()
    places, hangs = d._thread_places()
    label = {}  # face -> the edge of the set it was reached from
    cuts = {}   # thread index -> offsets of queried edges on it
    for e in ids:
        for f in d.faces_of(e):
            if label.setdefault(f, e) != e:
                return 0
        place = places.get(e)
        if place is not None:
            cuts.setdefault(place[0], []).append(place[1])

    links = {}  # face -> (length, other end) of each link at it

    def link(u, v, length):
        links.setdefault(u, []).append((length, v))
        links.setdefault(v, []).append((length, u))

    for i, t in enumerate(threads):
        verts = t.vertices
        if i not in cuts and i not in hangs:
            if verts[0] != verts[-1]:
                link(verts[0], verts[-1], t.length)
            continue
        points = {0, t.length, *hangs.get(i, ())}
        for o in cuts.get(i, ()):
            points.update((o, o + 1))
        points = sorted(points)
        for p, q in zip(points, points[1:]):
            link(verts[p], verts[q], q - p)
    for e in d._pendant:
        link(*d.faces_of(e), 1)

    heap = [(0, f, e) for f, e in label.items()]
    heapq.heapify(heap)
    dist = {}
    best = None
    while heap:
        du, u, eu = heapq.heappop(heap)
        if u in dist:
            continue
        # a link met later joins u's successors to faces settled before
        # them, no nearer than their distance minus its length, so every
        # sum still to come is at least 2 * du
        if best is not None and 2 * du >= best:
            break
        dist[u] = du
        label[u] = eu
        for length, v in links.get(u, ()):
            dv = dist.get(v)
            if dv is None:
                heapq.heappush(heap, (du + length, v, eu))
            elif label[v] != eu and (best is None or du + length + dv < best):
                best = du + length + dv
    return best


def cut_edges(g: EmbeddedGraph, cut: Cut) -> list[int]:
    """Sorted ids of the edges crossing the cut (loops never cross).

    Walks only the darts at the cut side: an edge crosses when exactly
    one of its darts sits there, so each crossing edge is seen once.
    """
    side = cut.side
    owner = g.dart_owner
    return sorted(d >> 1 for v in side for d in g.darts_at(v)
                  if owner[d ^ 1] not in side)


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

    # s_star is sorted, so walking it backwards leaves each list in pop
    # order: pop() yields the smallest edge first.  A face's degree is its
    # list's length plus its loops, which are listed once but meet it twice.
    faces_of = d.faces_of
    incident = {}
    loops = {}
    for e in reversed(s_star):
        l, r = faces_of(e)
        incident.setdefault(l, []).append((e, r))
        if r != l:
            incident.setdefault(r, []).append((e, l))
        else:
            loops[l] = loops.get(l, 0) + 1
    for f, lst in incident.items():
        deg = len(lst) + loops.get(f, 0)
        if deg % 2:
            raise ParityViolationError(
                f"face {f} meets the cut's dual edges {deg} times")

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
