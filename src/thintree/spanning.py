"""Thin spanning trees from far-apart dual edge sets.

The driver picks one "middle" edge out of a long thread of the dual graph,
deletes it, prunes dangling vertices, and repeats until the dual is empty.
Deleting one edge of a thread prunes the whole thread, so the selection
works on whole threads: ``ThreadGraph`` keeps the threads of
``DualGraph.core_threads()``, which the girth search has already found, as
a graph on their branch faces, and each step touches only thread ends.  The
primal edges of the selected set hit every dual cycle, hence cross every
cut, hence span; and because the selected dual edges end up far apart, the
set crosses no cut too often.  The emitted certificate is the measured
minimum pairwise dual distance m (capped at the dual girth), which makes the
selected set 1/m-thin; it is measured only when read.

The dual is ``geometric_dual`` of the graph: its faces as they are, one
dart -> face map, and threads walked on the darts.  On a planar graph the
edge connectivity k is a proven floor on the dual girth (bond-cycle
duality).  When k is already measured on the graph, as ``pipeline`` does
first, the girth search stops at its first cycle of length k; that is
exact, because only a strictly shorter cycle replaces the best, and none
is shorter than k.  k is not measured here: its n-1 max flows can cost
more than the search they cut.  The dual is built here, except on the genus
branch when surgery leaves the graph connected: the tree is then built on
surgery's result and on the working dual, girth searched, that
``increase_dual_girth`` hands over.  Its threads are the graph's, but its
face ids are not canonical, and the one place the selection reads face ids
in order, ``ThreadGraph.walk``, compares them by their canonical rank
(``DualGraph.rank``, each face's first dart).  So the girth, the threads,
the far set and the certificate are those a fresh build would give.  A
handed dual must match the graph's face and edge counts (the working dual
counts its live faces), which a dual from before surgery's last deletion
does not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from itertools import count

from .dual import (
    DualGraph,
    Thread,
    dual_girth,
    find_threads,  # noqa: F401  (the benchmark traces it under this name)
    geometric_dual,
    min_pairwise_distance,
)
from .embedding import EmbeddedGraph
from .errors import (
    DisconnectedError,
    DualMismatchError,
    InvalidInputError,
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


def middle_edge(thread: Thread) -> int:
    """Edge at position ceil(L/2) along the thread's walk (1-based); every
    thread is walked in its canonical direction (see ``find_threads``)."""
    return thread.edges[(thread.length + 1) // 2 - 1]


def _reversed(chain):
    return [(i, not forward) for i, forward in reversed(chain)]


class ThreadGraph:
    """The threads of a pruned dual as a multigraph on its branch faces.

    It starts as ``d.core_threads()``, which the girth search has usually
    found already.  A live thread t is a chain of whole core threads:
    ``chain[t]`` lists (core index, forward) from end ``ends[t][0]`` to end
    ``ends[t][1]``, and ``at[f]`` holds one entry per thread end at face f.
    Deleting a thread prunes all of it, as deleting any one of its edges
    would.  A face left with one thread end then loses that thread too, and
    a face left with the ends of two threads joins them into one.  So each
    step touches only thread ends, and the live threads always equal
    ``find_threads`` of the pruned rest of the dual.

    Their walk direction is fixed only when one is read (``walk``), by the
    rules of ``find_threads``: a path runs from its end face with the
    smaller id; a cycle at a branch face leaves it along the smaller of its
    two end edges; a cycle that is a whole component starts at its
    smallest face and leaves along that face's smaller edge.  Faces are
    compared by their canonical rank: the id itself, or on a dual whose ids
    are not canonical (surgery's working dual) the face's first dart, its
    smallest, by which a fresh trace sorts the faces.  Threads share no
    edge, so the heap key (-length, smallest edge id) of a live thread is
    unique; stale heap entries are skipped when they reach the top.
    """

    def __init__(self, d: DualGraph):
        self.core = d.core_threads()
        self.rank = d.rank
        self.ends = {}
        self.chain = {}
        self.size = {}  # live thread -> (length, smallest edge id)
        self.at = {}
        self.heap = []
        self.ids = count()
        for i, t in enumerate(self.core):
            self._add(t.vertices[0], t.vertices[-1], [(i, True)], t.length, t.low)

    def _add(self, a, b, chain, length, low) -> None:
        t = next(self.ids)
        self.ends[t] = a, b
        self.chain[t] = chain
        self.size[t] = length, low
        self.at.setdefault(a, []).append(t)
        self.at.setdefault(b, []).append(t)
        heappush(self.heap, (-length, low, t))

    def _drop(self, t):
        a, b = self.ends.pop(t)
        del self.chain[t], self.size[t]
        self.at[a].remove(t)
        self.at[b].remove(t)
        return a, b

    def longest(self) -> int | None:
        """Live thread of greatest length, ties by smallest minimum edge id;
        None once no thread is left."""
        heap = self.heap
        while heap:
            t = heap[0][2]
            if t in self.ends:
                return t
            heappop(heap)
        return None

    def delete(self, t: int) -> None:
        """Delete live thread t, prune, and join the threads that meet at a
        face left with two ends."""
        at = self.at
        touched = list(self._drop(t))
        while touched:
            f = touched.pop()
            ends = at.get(f)
            if ends is None:
                continue
            if not ends:
                del at[f]
            elif len(ends) == 1:
                touched += self._drop(ends[0])
            elif len(ends) == 2 and ends[0] != ends[1]:
                self._join(f, *ends)

    def _join(self, f, p, q) -> None:
        """Replace the threads p and q, which meet at f, by one thread."""
        (a, b), (c, e) = self.ends[p], self.ends[q]
        head = self.chain[p] if b == f else _reversed(self.chain[p])
        tail = self.chain[q] if c == f else _reversed(self.chain[q])
        (lp, mp), (lq, mq) = self.size[p], self.size[q]
        self._drop(p)
        self._drop(q)
        del self.at[f]
        self._add(a if b == f else b, e if c == f else c, head + tail,
                  lp + lq, min(mp, mq))

    def _edge(self, chain, i: int) -> int:
        """The i-th edge along ``chain`` (0-based)."""
        for c, forward in chain:
            edges = self.core[c].edges
            if i < len(edges):
                return edges[i] if forward else edges[-1 - i]
            i -= len(edges)
        raise IndexError(i)

    def walk(self, t: int):
        """Live thread t in its walk direction, as (chain, start): the walk
        starts ``start`` edges into the chain, and wraps round for a
        cycle."""
        (a, b), chain = self.ends[t], self.chain[t]
        length, rank = self.size[t][0], self.rank
        if a != b:
            if a < b if rank is None else rank(a) < rank(b):
                return chain, 0
            return _reversed(chain), 0
        if len(self.at[a]) > 2:  # a cycle at a branch face
            forward = self._edge(chain, 0) < self._edge(chain, length - 1)
            return (chain, 0) if forward else (_reversed(chain), 0)
        # a whole component: start at its smallest face, at offset j
        pos, low, j = 0, None, 0
        for c, forward in chain:
            verts = self.core[c].vertices
            verts = verts[:-1] if forward else verts[:0:-1]
            m = min(verts, key=rank)
            r = m if rank is None else rank(m)
            if low is None or r < low:
                low, j = r, pos + verts.index(m)
            pos += len(verts)
        if self._edge(chain, j) < self._edge(chain, j - 1 if j else length - 1):
            return chain, j
        return _reversed(chain), (length - j) % length

    def middle(self, t: int) -> int:
        """``middle_edge`` of live thread t, found on its chain."""
        chain, start = self.walk(t)
        length = self.size[t][0]
        return self._edge(chain, (start + (length + 1) // 2 - 1) % length)


def select_far_edge_set(d: DualGraph, g_star: int, alpha_value: int) -> list[int]:
    """Run the middle-edge selection loop on the dual; return sorted F*.

    Each iteration picks the longest thread (ties: smallest minimum edge id),
    takes its middle edge, removes it, and prunes dangling vertices, which
    takes the rest of the thread.  A thread of length L qualifies when
    L * alpha >= g_star; by the long-thread guarantee one always exists, so a
    shortfall raises NoLongThreadError.
    """
    live = ThreadGraph(d)
    selected = []
    while (best := live.longest()) is not None:
        length = live.size[best][0]
        if length * alpha_value < g_star:
            raise NoLongThreadError(
                f"longest thread has length {length} < {g_star}/{alpha_value}")
        selected.append(live.middle(best))
        live.delete(best)
    return sorted(selected)


@dataclass
class ThinTreeResult:
    """Spanning tree with its thinness certificate.

    thinness_bound is 2*alpha/g*; certificate_distance is the measured
    minimum pairwise dual distance m of the far set (capped into [1, g*]),
    which certifies that far_set is 1/m-thin.  It is measured on its first
    read (``certificate`` holds the value or the function that measures
    it), so a caller that reads only the tree never pays for it.
    """

    tree_edges: tuple[int, ...]
    far_set: tuple[int, ...]
    thinness_bound: Fraction
    g_star: int
    alpha: int
    certificate: InitVar[object] = 1

    def __post_init__(self, certificate):
        self._certificate = certificate

    @property
    def certificate_distance(self) -> int:
        if callable(self._certificate):
            self._certificate = self._certificate()
        return self._certificate


def tree_cost_ratio(g: EmbeddedGraph, tree_edges) -> Fraction | None:
    """c(T)/c(G), or None when g is unweighted or its total cost is not
    positive."""
    if g.edge_cost is None:
        return None
    total = g.total_cost()
    if total <= 0:
        return None
    return Fraction(sum(g.edge_cost[e] for e in tree_edges), total)


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


def thin_spanning_tree(g: EmbeddedGraph,
                       dual: DualGraph | None = None) -> ThinTreeResult:
    """Spanning tree with thinness bound 2*alpha/g*.

    For g* <= 2*alpha the bound is at least 1, so any spanning tree does and
    the whole edge set is reported as the far set with certificate 1.
    Otherwise the selection loop runs and the certificate is the measured
    minimum pairwise dual distance of the selected dual edges, measured
    when it is first read.  Raises
    InvalidInputError on fewer than 2 vertices: no cut to be thin on.

    ``dual`` is g's dual when the caller holds it already (the working
    dual that surgery hands on); it is built here otherwise, and when g is
    planar and its edge connectivity is already measured, the girth search
    stops at it, a proven floor (see ``shortest_dual_cycle``).  A dual
    whose face or edge count differs from g's raises DualMismatchError.
    """
    if g.vertex_count < 2:
        raise InvalidInputError("thin_spanning_tree needs at least 2 vertices")
    if not g.is_connected():
        raise DisconnectedError("thin_spanning_tree needs a connected graph")
    genus = g.genus()
    if dual is None:
        d = geometric_dual(g)
        floor = 1 if genus else g._connectivity or 1  # k, if measured
    elif dual.face_count != len(g.faces()) or dual.edge_count != g.edge_count:
        raise DualMismatchError(
            f"dual has {dual.face_count} faces and {dual.edge_count} edges, "
            f"the graph {len(g.faces())} faces and {g.edge_count} edges")
    else:
        d, floor = dual, 1
    g_star = dual_girth(d, floor)
    a = alpha(genus)

    if g_star <= 2 * a:
        far = g.edges()
        certificate = 1
    else:
        far = select_far_edge_set(d, g_star, a)
        certificate = partial(_certificate, d, far, g_star)

    tree = _bfs_spanning_tree(g, far)
    return ThinTreeResult(
        tree_edges=tuple(tree),
        far_set=tuple(far),
        thinness_bound=Fraction(2 * a, g_star),
        g_star=g_star,
        alpha=a,
        certificate=certificate,
    )


def _certificate(d: DualGraph, far, g_star: int) -> int:
    """The measured minimum pairwise dual distance of ``far``, capped into
    [1, g_star]."""
    measured = min_pairwise_distance(d, far)
    return g_star if measured is None else max(1, min(measured, g_star))
