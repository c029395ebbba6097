"""Thin spanning trees from far-apart dual edge sets.

The driver picks one "middle" edge out of a long thread of the dual graph,
deletes it, prunes dangling vertices, and repeats until the dual is empty.
It starts from ``DualGraph.core_threads()``, which the girth search has
already found, and keeps the threads up to date.  The primal edges of the
selected set hit every dual cycle, hence cross every cut, hence span; and
because the selected dual edges end up far apart, the set crosses no cut
too often.  The emitted certificate is the measured minimum pairwise dual
distance m (capped at the dual girth), which makes the selected set
1/m-thin.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count

from .dual import (
    DualGraph,
    DualView,
    Thread,
    dual_girth,
    find_threads,  # noqa: F401  (the benchmark traces it under this name)
    geometric_dual,
    min_pairwise_distance,
)
from .embedding import EmbeddedGraph
from .errors import DisconnectedError, NoLongThreadError


def alpha(genus: int) -> int:
    """Cycle-length constant for a given genus: 4 + floor(2*log2(genus + 3/2)).

    Computed exactly: floor(2*log2(g + 3/2)) = floor(log2((2g+3)^2 / 4)),
    and the largest power of two below an integer is its bit length minus
    one.  alpha(0) = 5, alpha(1) = 6, alpha(3) = 8.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return ((2 * genus + 3) ** 2).bit_length() + 1


def middle_edge(thread: Thread) -> int:
    """Edge at position ceil(L/2) along the thread's walk (1-based); every
    thread is walked in its canonical direction (see ``find_threads``)."""
    return thread.edges[(thread.length + 1) // 2 - 1]


class LiveThreads:
    """The threads of a pruned dual, kept up to date as edges are deleted.

    They start as ``d.core_threads()``, which the girth search has usually
    found already, on ``self.view``, a pruned copy of ``d``.  After that a
    deletion prunes from the deleted edge's two faces only, drops every
    thread that lost an edge (the pruning takes all of its edges), and walks
    the thread again through each touched vertex whose degree is now 2,
    merging its neighbouring threads.  The live threads then equal
    ``find_threads(self.view)``, walk direction included.  Threads share no
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
        for t in d.core_threads():
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
