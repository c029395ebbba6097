"""Thin spanning trees from far-apart dual edge sets.

The driver picks one "middle" edge out of a long thread of the dual graph,
deletes it, prunes dangling vertices, and repeats until the dual is empty.
The primal edges of the selected set hit every dual cycle, hence cross every
cut, hence span; and because the selected dual edges end up far apart, the
set crosses no cut too often.  The emitted certificate is the measured
minimum pairwise dual distance m (capped at the dual girth), which makes the
selected set 1/m-thin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count

from .dual import DualGraph, dual_girth, geometric_dual, min_pairwise_distance
from .embedding import EmbeddedGraph
from .errors import (
    DegreeOneVertexError,
    DisconnectedError,
    NoLongThreadError,
)


def alpha(genus: int) -> int:
    """Cycle-length constant for a given genus: 4 + floor(2*log2(genus + 3/2)).

    Computed exactly: floor(2*log2(g + 3/2)) = floor(log2((2g+3)^2 / 4)),
    and the largest power of two below an integer is its bit length minus
    one.  alpha(0) = 5, alpha(1) = 6, alpha(3) = 8.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return ((2 * genus + 3) ** 2).bit_length() + 1


@dataclass(frozen=True)
class Thread(object):
    """Maximal chain of degree-2 dual vertices.

    ``vertices`` is the walk (one longer than ``edges`` for paths; first ==
    last for cycles).  A cycle thread is either a whole component in which
    every vertex has degree 2, or a closed chain attached to one branch
    vertex.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    kind: str  # "path" | "cycle"

    @property
    def length(self) -> int:
        return len(self.edges)


class DualView:
    """Mutable working copy of a dual graph for the selection loop."""

    def __init__(self, d: DualGraph):
        self.neighbors = {}  # face -> dict edge_id -> other face
        self.loops = {}      # face -> set of loop edge ids
        self.degree = {}
        for e, l, r in d.dual_edges:
            for f in (l, r):
                if f not in self.neighbors:
                    self.neighbors[f] = {}
                    self.loops[f] = set()
                    self.degree[f] = 0
            if l == r:
                self.loops[l].add(e)
                self.degree[l] += 2
            else:
                self.neighbors[l][e] = r
                self.neighbors[r][e] = l
                self.degree[l] += 1
                self.degree[r] += 1

    def live_vertices(self) -> list[int]:
        return sorted(f for f, deg in self.degree.items() if deg > 0)

    def incident(self, f: int) -> list[tuple[int, int]]:
        """Sorted (edge, other) pairs at f; loops appear once."""
        out = [(e, f) for e in self.loops[f]]
        out.extend(self.neighbors[f].items())
        out.sort()
        return out

    def remove_edge(self, e: int, l: int, r: int) -> None:
        if l == r:
            self.loops[l].discard(e)
            self.degree[l] -= 2
        else:
            del self.neighbors[l][e]
            del self.neighbors[r][e]
            self.degree[l] -= 1
            self.degree[r] -= 1

    def prune_degree_one(self, faces=None) -> list[int]:
        """Iteratively delete degree-1 vertices with their incident edge;
        return the deleted edges.

        The search starts from ``faces`` (default: every face).  The 2-core
        is unique, so after one edge removal from a pruned view its two
        faces are enough to start from.
        """
        stack = [f for f in (self.degree if faces is None else faces)
                 if self.degree[f] == 1]
        pruned = []
        while stack:
            f = stack.pop()
            if self.degree[f] != 1:
                continue
            e, other = next(iter(self.neighbors[f].items()))
            self.remove_edge(e, f, other)
            pruned.append(e)
            if self.degree[other] == 1:
                stack.append(other)
        return pruned

    def walk(self, start: int, edge: int, other: int):
        """Follow the chain from ``start`` along ``edge`` through degree-2
        vertices; stop at a vertex of another degree or back at ``start``.
        Returns the walked (edges, vertices)."""
        edges = [edge]
        verts = [start, other]
        cur = other
        while cur != start and self.degree[cur] == 2 and not self.loops[cur]:
            # two neighbour entries, one of them the edge just walked
            first, second = self.neighbors[cur].items()
            edge, cur = second if first[0] == edge else first
            edges.append(edge)
            verts.append(cur)
        return edges, verts

    def thread_through(self, f: int) -> Thread:
        """The thread through the degree-2 vertex f.

        A component that is one cycle is anchored at its smallest vertex and
        starts with the smaller edge there, as find_threads anchors it.
        """
        if self.loops[f]:
            (e,) = self.loops[f]
            return Thread((e,), (f, f), "cycle")
        (e1, w1), (e2, w2) = sorted(self.neighbors[f].items())
        edges, verts = self.walk(f, e1, w1)
        if verts[-1] == f:
            i = verts.index(min(verts))
            if i:
                edges = edges[i:] + edges[:i]
                verts = verts[i:-1] + verts[:i + 1]
            return Thread(tuple(edges), tuple(verts), "cycle")
        back_edges, back_verts = self.walk(f, e2, w2)
        edges = back_edges[::-1] + edges
        verts = back_verts[::-1] + verts[1:]
        kind = "cycle" if verts[0] == verts[-1] else "path"
        return Thread(tuple(edges), tuple(verts), kind)


def find_threads(view) -> list[Thread]:
    """Decompose a min-degree-2 dual view into maximal threads.

    Every live edge belongs to exactly one returned thread.  Raises
    DegreeOneVertexError when the precondition is violated.
    """
    if isinstance(view, DualGraph):
        view = DualView(view)
    live = view.live_vertices()
    degree = view.degree
    for f in live:
        if degree[f] == 1:
            raise DegreeOneVertexError(f"vertex {f} has degree 1")

    threads = []
    used = set()
    for b in live:
        if degree[b] == 2:
            continue
        for e, other in view.incident(b):
            if e in used:
                continue
            if other == b:  # loop at a branch vertex: cycle of length 1
                used.add(e)
                threads.append(Thread((e,), (b, b), "cycle"))
                continue
            edges, verts = view.walk(b, e, other)
            used.update(edges)
            kind = "cycle" if verts[-1] == b else "path"
            threads.append(Thread(tuple(edges), tuple(verts), kind))

    # components where every vertex has degree 2 are single cycles; the
    # first vertex met of each is its smallest
    for f in live:
        if degree[f] == 2 and min(view.neighbors[f] or view.loops[f]) not in used:
            t = view.thread_through(f)
            used.update(t.edges)
            threads.append(t)
    return threads


def _canonical(thread: Thread) -> Thread:
    """Fix a walk direction so the middle edge is reproducible.

    Paths run from the endpoint with the smaller vertex id.  Cycles start at
    the unique vertex of degree != 2 if there is one (else the smallest
    vertex, which is how find_threads already anchors them) and take the
    direction whose first edge id is smaller.
    """
    if thread.kind == "path":
        if thread.vertices[0] > thread.vertices[-1]:
            return Thread(tuple(reversed(thread.edges)),
                          tuple(reversed(thread.vertices)), "path")
        return thread
    if thread.length >= 2 and thread.edges[-1] < thread.edges[0]:
        inner = tuple(reversed(thread.vertices))
        return Thread(tuple(reversed(thread.edges)), inner, "cycle")
    return thread


def middle_edge(thread: Thread) -> int:
    """Edge at position ceil(L/2) along the canonical walk (1-based)."""
    t = _canonical(thread)
    return t.edges[(t.length + 1) // 2 - 1]


class LiveThreads:
    """The threads of a pruned dual, kept up to date as edges are deleted.

    ``find_threads`` runs once, on the pruned view.  After that a deletion
    prunes from the deleted edge's two faces only, drops every thread that
    lost an edge (the pruning takes all of its edges), and walks the thread
    again through each touched vertex whose degree is now 2, merging its
    neighbouring threads.  The live threads then equal
    ``find_threads(self.view)`` up to walk direction.  Threads share no
    edge, so the heap key ``(-length, min edge id)`` of a live thread is
    unique; stale heap entries are skipped when they reach the top.
    """

    def __init__(self, d: DualGraph):
        self.faces_of = d.faces_of
        self.view = DualView(d)
        self.view.prune_degree_one()
        self.thread_of = {}  # live edge -> its live thread
        self.heap = []
        self.pushed = count()  # heap tie-break between stale and live copies
        for t in find_threads(self.view):
            self._add(t)

    def _add(self, t: Thread) -> None:
        for e in t.edges:
            self.thread_of[e] = t
        heappush(self.heap, (-t.length, min(t.edges), next(self.pushed), t))

    def longest(self) -> Thread | None:
        """Live thread of greatest length, ties by smallest minimum edge id;
        None once the view is empty."""
        heap = self.heap
        while heap:
            t = heap[0][-1]
            if self.thread_of.get(t.edges[0]) is t:
                return t
            heappop(heap)
        return None

    def delete_edge(self, e: int) -> None:
        view = self.view
        l, r = self.faces_of(e)
        view.remove_edge(e, l, r)
        touched = set()
        for gone in [e, *view.prune_degree_one((l, r))]:
            del self.thread_of[gone]
            touched.update(self.faces_of(gone))
        walked = set()
        for f in touched:
            if view.degree[f] == 2 and f not in walked:
                t = view.thread_through(f)
                walked.update(t.vertices)
                self._add(t)


def select_far_edge_set(d: DualGraph, g_star: int, alpha_value: int) -> list[int]:
    """Run the middle-edge selection loop on the dual; return sorted F*.

    Each iteration picks the longest thread (ties: smallest minimum edge id),
    takes its middle edge, removes it, and prunes dangling vertices.  A
    thread of length L qualifies when L * alpha >= g_star; by the long-thread
    guarantee one always exists, so a shortfall raises NoLongThreadError.
    """
    live = LiveThreads(d)
    selected = []
    while (best := live.longest()) is not None:
        if best.length * alpha_value < g_star:
            raise NoLongThreadError(
                f"longest thread has length {best.length} < {g_star}/{alpha_value}")
        mid = middle_edge(best)
        live.delete_edge(mid)
        selected.append(mid)
    return sorted(selected)


@dataclass
class ThinTreeResult:
    """Spanning tree with its thinness certificate.

    thinness_bound is 2*alpha/g*; certificate_distance is the measured
    minimum pairwise dual distance m of the far set (capped into [1, g*]),
    which certifies that far_set is 1/m-thin.
    """

    tree_edges: tuple[int, ...]
    far_set: tuple[int, ...]
    thinness_bound: Fraction
    certificate_distance: int
    g_star: int
    alpha: int


def tree_cost_ratio(g: EmbeddedGraph, tree_edges) -> Fraction | None:
    """c(T)/c(G), or None when g is unweighted or its total cost is not
    positive."""
    if g.edge_cost is None:
        return None
    total = g.total_cost()
    if total <= 0:
        return None
    return sum((g.edge_cost[e] for e in tree_edges), Fraction(0)) / total


def _bfs_spanning_tree(g: EmbeddedGraph, allowed) -> list[int]:
    """BFS tree over (V, allowed) rooted at 0, ties by smallest edge id."""
    incident = {v: [] for v in range(g.vertex_count)}
    for e in sorted(allowed):
        u, v = g.endpoints(e)
        if u == v:
            continue
        incident[u].append((e, v))
        incident[v].append((e, u))
    seen = {0}
    tree = []
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for e, w in incident[u]:
            if w not in seen:
                seen.add(w)
                tree.append(e)
                queue.append(w)
    if len(seen) != g.vertex_count:
        raise DisconnectedError(
            f"edge set spans only {len(seen)} of {g.vertex_count} vertices")
    return sorted(tree)


def thin_spanning_tree(g: EmbeddedGraph) -> ThinTreeResult:
    """Spanning tree with thinness bound 2*alpha/g*.

    For g* <= 2*alpha the bound is at least 1, so any spanning tree does and
    the whole edge set is reported as the far set with certificate 1.
    Otherwise the selection loop runs and the certificate is the measured
    minimum pairwise dual distance of the selected dual edges.
    """
    if not g.is_connected():
        raise DisconnectedError("thin_spanning_tree needs a connected graph")
    if g.vertex_count <= 1:
        return ThinTreeResult((), tuple(g.edges()), Fraction(0), 1, 1, alpha(g.genus()))
    d = geometric_dual(g)
    g_star = dual_girth(d)
    a = alpha(g.genus())

    if g_star <= 2 * a:
        far = g.edges()
        certificate = 1
    else:
        far = select_far_edge_set(d, g_star, a)
        measured = min_pairwise_distance(d, far)
        certificate = g_star if measured is None else max(1, min(measured, g_star))

    tree = _bfs_spanning_tree(g, far)
    return ThinTreeResult(
        tree_edges=tuple(tree),
        far_set=tuple(far),
        thinness_bound=Fraction(2 * a, g_star),
        certificate_distance=certificate,
        g_star=g_star,
        alpha=a,
    )
