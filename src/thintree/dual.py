"""Geometric duals, their threads, dual girth and pairwise dual distances.

The dual of an embedded graph has one vertex per face and one edge per primal
edge, under the same edge id.  Its one representation is the primal's own
face walks: ``DualGraph`` keeps ``g.faces()`` as they are, each face a tuple
of darts, plus one dart -> face map.  Dual edge e joins the face of dart
``2e`` (its left face) and that of dart ``2e+1`` (its right face); a dual
loop (both darts on one face) is allowed and counts as a cycle of length 1.
The degree of a face is its dart count.  An abstract dual given as
``(edge_id, left_face, right_face)`` triples is put on darts 2e and 2e+1
the same way.  The edge list ``dual_edges`` is built only when read.

A thread is a maximal chain of degree-2 faces (each parallel bundle of an
amplified graph is one).  ``find_threads`` is the one chain decomposition:
it walks darts, going on at a face of degree 2 through its other dart.  The
threads of a dual's 2-core are found once per ``DualGraph``
(``core_threads`` peels the pendant trees on dart counts and decomposes the
dual itself, or the dual of its 2-core when it peeled something), and
everything after works on whole threads; a loop is a thread of length 1.
The girth search contracts each thread into one edge weighted by its
length, runs one Dijkstra search per thread until it meets a cycle as short
as a proven floor (on a planar primal, the edge connectivity k), and reads
the cycle it picked back along the same contracted threads; its answer is
also kept once per ``DualGraph``, so a dual that surgery hands on to the
spanning step carries the girth surgery measured on it.  The far-set
selection in ``spanning`` keeps the threads as a graph on their branch
faces.  ``min_pairwise_distance`` runs one Dijkstra search over the same
contracted threads, cut only at the ends of the queried edges and where a
pruned edge hangs; it looks into only the threads that hold a queried edge.

The dual of a multigraph of parallel copies (``bundles.BundledGraph``) is a
``bundles.BundledDual``: the same faces, face ids and core threads, read
off the support's dual, with each thread's edges and faces held as ranges
of ids (``bundles.Ranges``) rather than tuples.  The girth search reads a
thread through its length, its ends and ``Thread.low``, and reads out in
full only the threads on the cycle it returns; the far-set selection reads
one position of a thread per step, and reads out a whole-component cycle
once, when it walks it.  So both run on the support's few threads, however
many copies the bundles hold.

Surgery edits one ``DualGraph`` across its deletions (``WorkingDual``).
A dual cycle runs along whole threads, so a deletion drops the threads
that end in its darts, peels a new face of degree 1, walks again as one
the threads that meet at a new face of degree 2, and gives every other
thread that ends on a new face the new ids of its end faces.  Its face
ids are not canonical, and need not be: the girth search's answer does
not depend on how the faces are numbered (see ``WorkingDual``).  It is
handed on as the dual of surgery's result.  The far-set selection reads
face ids in order only to fix a thread's walk direction, and there it
ranks faces by their first dart (``WorkingDual.rank``): each face starts
at its smallest dart, and canonical ids are sorted by it.  Its
``face_count`` counts its live faces.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .embedding import EmbeddedGraph
from .errors import (
    DegreeOneVertexError,
    EdgeAbsentError,
    InvalidInputError,
    NoCycleError,
)


_UNSEARCHED = object()


@dataclass(frozen=True)
class Cut:
    """One side of a vertex cut.  Must be a nonempty proper subset."""

    side: frozenset


class DualGraph:
    """Dual on darts: faces as vertices, primal edge ids reused.

    Face f is the tuple ``faces[f]`` of darts, and ``face_of[x]`` is the
    face of dart x (None where x is no dart); dual edge e joins the faces
    of darts 2e and 2e+1.  Both are shared with the primal
    (``geometric_dual``) or built here from ``(edge_id, left_face,
    right_face)`` triples, dart 2e on the left face and 2e+1 on the right;
    callers must not mutate them.

    Attributes:
        face_count: number of dual vertices.
        edge_count: number of dual edges.
        faces: per face, the tuple of its darts; its length is the degree.
        face_of: list dart -> face.
        rank: None when the face ids are canonical, ranked as a fresh
            trace ranks the faces, by each face's first (smallest) dart;
            on surgery's ``WorkingDual``, whose ids are not, the method
            face -> that dart.
    """

    rank = None

    def __init__(self, face_count, dual_edges):
        dual_edges = list(dual_edges)
        faces = [[] for _ in range(face_count)]
        face_of = [None] * (2 * max((e for e, _, _ in dual_edges), default=-1) + 2)
        for e, l, r in dual_edges:
            if e < 0 or face_of[2 * e] is not None:
                raise InvalidInputError(f"dual edge id {e} is negative or repeated")
            if not (0 <= l < face_count and 0 <= r < face_count):
                raise InvalidInputError(
                    f"dual edge {e} joins faces {l} and {r}, not in [0, {face_count})")
            faces[l].append(2 * e)
            faces[r].append(2 * e + 1)
            face_of[2 * e], face_of[2 * e + 1] = l, r
        self._attach(list(map(tuple, faces)), face_of, len(dual_edges))

    @classmethod
    def on_darts(cls, faces, face_of, edge_count) -> DualGraph:
        """The dual whose face f is the dart tuple ``faces[f]``."""
        d = cls.__new__(cls)
        d._attach(faces, face_of, edge_count)
        return d

    def _attach(self, faces, face_of, edge_count):
        self.faces = faces
        self.face_of = face_of
        self.face_count = len(faces)
        self.edge_count = edge_count
        self._unmeasured()

    def _unmeasured(self):
        """Empty every memo; each is filled on its first read."""
        self._dual_edges = None
        self._threads = None
        self._pendant = None  # the edges pruned off the 2-core
        self._hung = None  # _hangs' answer
        self._shortest = _UNSEARCHED  # shortest_dual_cycle's answer

    @property
    def dual_edges(self) -> list[tuple[int, int, int]]:
        """Sorted list of (edge_id, left_face, right_face), built on the
        first read."""
        if self._dual_edges is None:
            face_of = self.face_of
            self._dual_edges = [(x >> 1, face_of[x], face_of[x + 1])
                                for x in range(0, len(face_of), 2)
                                if face_of[x] is not None]
        return self._dual_edges

    @property
    def loops(self) -> list[tuple[int, int]]:
        """(edge_id, face) of each loop, in edge-id order.  No loop is ever
        peeled, and each is a thread of length 1 of its own."""
        return sorted((t.edges[0], t.vertices[0]) for t in self.core_threads()
                      if len(t.edges) == 1 and t.vertices[0] == t.vertices[1])

    def faces_of(self, e: int) -> tuple[int, int]:
        face_of = self.face_of
        if 0 <= 2 * e < len(face_of) and face_of[2 * e] is not None:
            return face_of[2 * e], face_of[2 * e + 1]
        raise EdgeAbsentError(f"dual edge {e} absent")

    def core_threads(self) -> tuple[Thread, ...]:
        """The threads of the dual's 2-core (every degree-1 face peeled
        away, repeatedly), found once."""
        if self._threads is None:
            faces, face_of = self.faces, self.face_of
            degree = list(map(len, faces))
            stack = [f for f, deg in enumerate(degree) if deg == 1] if 1 in degree else []
            pendant = _peel(faces, face_of, degree, stack)
            self._pendant = pendant
            core = self
            if pendant:
                # the 2-core keeps the dart map, of which find_threads reads
                # only the darts it meets on the 2-core's faces
                core = DualGraph.on_darts(_core_faces(faces, face_of, set(pendant)),
                                          face_of, self.edge_count - len(pendant))
            self._threads = tuple(find_threads(core))
        return self._threads

    def _hangs(self):
        """Thread index -> offsets of the faces of that thread of
        ``core_threads()`` that a pruned edge hangs from, found once.  On
        Ranges a face at both ends of a cycle thread is found at its start
        only; every thread is cut at both its ends anyway."""
        if self._hung is None:
            hangs = {}
            if self._pendant:
                feet = {f for e in self._pendant for f in self.faces_of(e)}
                for i, t in enumerate(self.core_threads()):
                    offsets = _offsets(t.vertices, feet)
                    if offsets:
                        hangs[i] = offsets
            self._hung = hangs
        return self._hung


def _offsets(items, wanted) -> list[int]:
    """The offsets in ``items``, a tuple or a ``bundles.Ranges``, of the
    members of the set ``wanted`` that it holds: one pass over a tuple,
    one ``in`` and one ``index`` per wanted member over Ranges, which
    cost one step per range, so a thread of many copies is not walked."""
    if items.__class__ is tuple:
        return [o for o, x in enumerate(items) if x in wanted]
    return [items.index(x) for x in wanted if x in items]


def _core_faces(faces, face_of, pendant):
    """A copy of ``faces`` without the darts of the pruned edges
    ``pendant``: the faces of the 2-core."""
    core = list(faces)
    for f in {face_of[x] for e in pendant for x in (2 * e, 2 * e + 1)}:
        core[f] = tuple(x for x in faces[f] if x >> 1 not in pendant)
    return core


def _peel(faces, face_of, degree, stack):
    """Peel the faces of degree 1 on ``stack`` off the 2-core, and every
    face that falls to degree 1 after them.  ``degree`` holds each face's
    darts in the 2-core and is updated; returns the peeled edges."""
    pendant = []
    while stack:
        f = stack.pop()
        if degree[f] != 1:
            continue
        # f has no loop, and its darts peeled so far lead to peeled faces,
        # of degree 0; the one left leads to a face that is not
        x = next(x for x in faces[f] if degree[face_of[x ^ 1]])
        other = face_of[x ^ 1]
        pendant.append(x >> 1)
        degree[f] = 0
        degree[other] -= 1
        if degree[other] == 1:
            stack.append(other)
    return pendant


def geometric_dual(g: EmbeddedGraph) -> DualGraph:
    """The dual of g on g's memoised faces and dart -> face map, shared; a
    ``bundles.BundledDual``, read off the support's, when g is bundled."""
    if hasattr(g, "bundles"):  # a bundles.BundledGraph
        from .bundles import BundledDual  # bundles builds on this module

        return BundledDual(g)
    return DualGraph.on_darts(g.faces(), g.face_of_dart(), g.edge_count)


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
    def length(self) -> int:
        return len(self.edges)

    @property
    def low(self) -> int:
        """The smallest edge id: ``min`` of an edge tuple, else the edges'
        own ``low`` (``bundles.Ranges``, found one range at a time)."""
        edges = self.edges
        return min(edges) if edges.__class__ is tuple else edges.low


def find_threads(d: DualGraph) -> list[Thread]:
    """Decompose a dual graph of minimum degree 2 into maximal threads.

    Every edge belongs to exactly one returned thread, walked in its
    canonical direction: a path runs from its end with the smaller id; a
    cycle starts at its branch vertex, or else at its smallest vertex, and
    leaves along the smaller of its two end edges.  Faces of degree 0 are
    skipped.  Raises DegreeOneVertexError when the precondition is violated.

    The walk reads darts only: a thread enters a face through the twin of
    the dart it left by, and a face of degree 2 sends it on through its
    other dart.  A branch face's darts, sorted, give its edges in edge-id
    order, a loop's two darts next to each other.
    """
    faces, face_of = d.faces, d.face_of
    degree = list(map(len, faces))
    threads = []
    ends = set()  # the last edge of each thread, met again at its end face
    walked = 0
    for b, deg in enumerate(degree):
        if deg == 2 or deg == 0:
            continue
        if deg == 1:
            raise DegreeOneVertexError(f"vertex {b} has degree 1")
        for x in sorted(faces[b]):
            e = x >> 1
            if e in ends:
                continue
            edges, verts = _walk(faces, face_of, b, x)
            ends.add(edges[-1])
            walked += len(edges)
            threads.append(Thread(tuple(edges), tuple(verts)))

    # the edges left over form components where every vertex has degree 2,
    # single cycles; the first vertex met of each is its smallest, and the
    # cycle leaves it along its first (smaller) edge, or is its loop
    if 2 * walked < sum(degree):
        seen = {f for t in threads for f in t.vertices}
        for f, deg in enumerate(degree):
            if deg == 2 and f not in seen:
                edges, verts = _walk(faces, face_of, f, min(faces[f]))
                seen.update(verts)
                threads.append(Thread(tuple(edges), tuple(verts)))
    return threads


def _walk(faces, face_of, start, x):
    """The chain from face ``start`` along its dart x, on through faces of
    degree 2 up to a face of another degree or back at start, as (edge
    list, face list); a loop's dart gives ``([e], [start, start])``.  A
    face of degree 2 entered through dart y from another face has no loop,
    so its other dart is the way on."""
    y = x ^ 1
    cur = face_of[y]
    edges, verts = [x >> 1], [start, cur]
    add_edge, add_vert = edges.append, verts.append
    while cur != start:
        here = faces[cur]
        if len(here) != 2:
            break
        a, b = here
        y = (b if a == y else a) ^ 1
        cur = face_of[y]
        add_edge(y >> 1)
        add_vert(cur)
    return edges, verts


class WorkingDual(DualGraph):
    """The dual of a graph under surgery, edited in place.

    It holds its own copies of a dual's face list and dart -> face list,
    the darts of each face in the 2-core (``core``), the pruned edges, and
    the 2-core's threads.  A thread is known by its two end darts, the
    darts by which it leaves its first face and enters its last: a thread
    is keyed by the first, and ``ends`` maps each end dart to the pair.
    ``replace`` changes only what one deletion touched, then empties the
    memos, so the girth search reads the dual as it stands.

    A dual cycle through one edge of a thread runs along the whole thread,
    so the threads a cycle deletes are those that end in its darts
    (``threads_of``), and every other thread keeps its edges.

    Face ids do not stay canonical: a new face, the longest first, takes
    the id of the dead face its first dart lay on while that id is free,
    or else a new id at the end, and a dead face left over becomes an
    empty tuple (``face_count`` counts the others).  So most threads that
    end on a split or merged face keep their end faces' ids.  That is exact
    for the girth search, whose answer does not depend on how the faces
    are numbered: its anchor is the smallest edge id on a shortest cycle,
    its read-back compares edge ids, and the links at a face have distinct
    first edges.  Threads are kept as maximal chains, but a closed chain
    may start at another face and a path may run the other way than
    ``find_threads`` would walk them; the search orients each thread by
    its anchor, and the far-set selection by the faces' ``rank``.
    """

    def __init__(self, d: DualGraph):
        threads = d.core_threads()
        self._attach(list(d.faces), list(d.face_of), d.edge_count)
        self.pendant = set(d._pendant)
        self.core = _core_faces(self.faces, self.face_of, self.pendant)
        self.threads = {}
        self.ends = {}
        for t in threads:
            self._add(t)

    def rank(self, f):
        """Face f's first dart, its smallest: its rank in a fresh trace."""
        return self.faces[f][0]

    def _add(self, t):
        face_of = self.face_of
        first, last = 2 * t.edges[0], 2 * t.edges[-1]
        # a thread's end edges are loops only when it is one loop, whose
        # darts 2e and 2e + 1 are then its two ends
        x = first if face_of[first] == t.vertices[0] else first + 1
        z = last + 1 if face_of[last + 1] == t.vertices[-1] else last
        self.threads[x] = t
        self.ends[x] = self.ends[z] = (x, z)

    def threads_of(self, cycle) -> set:
        """The keys of the threads that make up the edges ``cycle``.
        Raises InvalidInputError when the edges are not whole threads of
        the 2-core, as no dual cycle's are."""
        ends, threads = self.ends, self.threads
        keys = {ends[x][0] for e in cycle for x in (2 * e, 2 * e + 1) if x in ends}
        edges = {e for key in keys for e in threads[key].edges}
        if len(edges) != len(cycle) or not edges.issuperset(cycle):
            raise InvalidInputError(
                f"edges {sorted(cycle)} are not whole threads of the dual: "
                f"not a dual cycle")
        return keys

    def replace(self, cycle, hit, dead, born):
        """Delete the edges ``cycle``, made of the threads ``hit``
        (``threads_of``), whose darts lay on the faces ``dead``, and append
        the faces ``born`` traced from those faces' surviving darts.

        The old pruned edges stay pruned: the faces of a pendant tree hold
        no deleted dart, so the tree still hangs from one face.  A new face
        of degree 1 is peeled, and the peel may go on into faces that kept
        their darts; it too takes whole threads.  The threads of the cycle
        and of the peel are dropped, and so is a thread that ends on a new
        or peeled face now of degree 2.  Every other thread ending on a new
        face is still a maximal chain and takes the faces its end darts now
        lie on.  The dropped threads' surviving edges are walked again,
        from the branch faces among the new faces, the peeled faces and the
        ends of the dropped threads; what is left of them forms closed
        chains of degree-2 faces.
        """
        faces, face_of, core = self.faces, self.face_of, self.core
        pendant, threads, ends = self.pendant, self.threads, self.ends
        free = set(dead)
        new = [None] * len(born)
        for i in sorted(range(len(born)), key=lambda i: -len(born[i])):
            f = face_of[born[i][0]]
            if f in free:
                free.discard(f)
            else:
                f = len(faces)
                faces.append(())
                core.append(())
            new[i] = f
        for f in free:
            faces[f] = core[f] = ()
        self.face_count += len(born) - len(dead)
        for e in cycle:
            face_of[2 * e] = face_of[2 * e + 1] = None
        for f, walk in zip(new, born):
            faces[f] = walk
            for x in walk:
                face_of[x] = f
            core[f] = (tuple(x for x in walk if x >> 1 not in pendant)
                       if pendant else walk)
        self.edge_count -= len(cycle)

        touched = set(new)
        peeled = ()
        stack = [f for f in new if len(core[f]) == 1]
        if stack:
            peeled = _peel(faces, face_of, list(map(len, core)), stack)
            pendant.update(peeled)
            darts = [x for e in peeled for x in (2 * e, 2 * e + 1)]
            hit.update(ends[x][0] for x in darts if x in ends)
            for f in {face_of[x] for x in darts}:
                core[f] = tuple(x for x in core[f] if x >> 1 not in pendant)
                touched.add(f)

        for f in touched:
            for y in core[f]:
                pair = ends.get(y)
                if pair is None or pair[0] in hit:
                    continue
                x, z = pair
                a, b = face_of[x], face_of[z]
                if len(core[a]) == 2 or len(core[b]) == 2:
                    hit.add(x)
                    continue
                t = threads[x]
                if a != t.vertices[0] or b != t.vertices[-1]:
                    threads[x] = Thread(t.edges, (a, *t.vertices[1:-1], b))
        loose = set()
        for key in hit:
            t = threads.pop(key)
            del ends[ends.pop(key)[1]]
            loose.update(t.edges)
            touched.update((t.vertices[0], t.vertices[-1]))
        loose.difference_update(cycle, peeled)
        for b in sorted(touched):
            if len(core[b]) < 3:
                continue
            for x in sorted(core[b]):
                if x >> 1 in loose:
                    self._walk_from(b, x, loose)
        while loose:
            x = 2 * min(loose)
            self._walk_from(face_of[x], x, loose)
        self._unmeasured()
        self._threads = tuple(threads.values())
        self._pendant = pendant

    def _walk_from(self, f, x, loose):
        """Add the thread that leaves face f along dart x; its edges are
        no longer loose."""
        edges, verts = _walk(self.core, self.face_of, f, x)
        self._add(Thread(tuple(edges), tuple(verts)))
        loose.difference_update(edges)


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


def shortest_dual_cycle(d: DualGraph, floor: int = 1):
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

    ``floor`` is a proven lower bound on the girth, such as the edge
    connectivity of a planar primal (bond-cycle duality, Whitney 1932).
    The search stops at its first cycle of that length: no later thread
    can give a strictly shorter one, so the anchor, the cycle and the memo
    are those of the full search.  A floor above the girth gives a wrong
    answer.  A dual without a loop has girth at least 2, so once the loops
    are known the floor is at least 2; this cuts the searches that
    surgery makes after it has deleted the loops.

    The least path runs along the anchor's thread from l to its end x, from
    x to the other end y, and along the thread to r.  Only the middle has a
    choice: one Dijkstra search from y, stopped at x, gives the distances,
    and at each branch face the path takes the link with the smallest first
    edge among those on a shortest path to y.  On a cycle thread x is y.
    """
    if d._shortest is _UNSEARCHED:
        d._shortest = _shortest_cycle(d, floor)
    found = d._shortest
    return None if found is None else (found[0], list(found[1]))


def _shortest_cycle(d: DualGraph, floor):
    """``shortest_dual_cycle``'s search, with the cycle as a tuple."""
    loops = d.loops
    if loops:
        return 1, (loops[0][0],)
    floor = max(floor, 2)  # only a loop is a cycle of length 1
    chains = sorted((t.low, t.vertices[0], t.vertices[-1], t)
                    for t in d.core_threads())
    links = {}  # branch face -> (length, key, other end, thread) of its path threads
    for key, a, b, t in chains:
        if a != b:
            n = len(t.edges)
            links.setdefault(a, []).append((n, key, b, t))
            links.setdefault(b, []).append((n, key, a, t))
    best_len, best = d.edge_count + 1, None  # longer than any cycle
    for key, a, b, t in chains:
        n = len(t.edges)
        if a == b:
            found = n
        elif n + 1 >= best_len:
            continue  # a path between two faces has length 1 or more
        else:
            rest = _chain_distance(links, a, b, key, best_len - n).get(b)
            if rest is None:
                continue
            found = n + rest
        if found < best_len:
            best_len, best = found, (key, t)
            if found == floor:
                break
    if best is None:
        return None

    key, t = best
    # the cycle holds the anchor's whole thread: reading it costs no more
    # than the answer
    edges, verts = tuple(t.edges), tuple(t.vertices)
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
        middle += run if run[0] == first else reversed(run)
    return best_len, (*edges[o + 1:], *middle, *edges[:o], key)


def dual_girth(d: DualGraph, floor: int = 1) -> int:
    """Length of the shortest cycle in the dual.

    A loop counts as 1 and a parallel pair as 2.  ``floor`` is passed on to
    ``shortest_dual_cycle``.  Raises NoCycleError when the dual is a forest.
    """
    found = shortest_dual_cycle(d, floor)
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
    hangs = d._hangs()
    label = {}  # face -> the edge of the set it was reached from
    for e in ids:
        for f in d.faces_of(e):
            if label.setdefault(f, e) != e:
                return 0
    # only the threads that hold a queried edge are cut at it; pruned
    # edges lie on no thread
    queried = set(ids)
    cuts = {}
    for i, t in enumerate(threads):
        offsets = _offsets(t.edges, queried)
        if offsets:
            cuts[i] = offsets

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
