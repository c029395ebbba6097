"""Multigraphs of parallel copies, held as their support plus copy ranges.

The multigraph ``embedding.expand_parallel`` builds is a ``BundledGraph``:
its support, an EmbeddedGraph, and per support edge e the ascending ids of
its copies c_0 < ... < c_(q-1) as a few ranges (a bundle, ``Ranges``).
The copies sit side by side, so support dart 2e stands for dart 2c_0 and
2e+1 for 2c_(q-1)+1: each support face is a face with its darts so mapped,
and every other face is the bigon (2c_i + 1, 2c_(i+1)) of two consecutive
copies.  The dart map is increasing, so the faces, sorted by their smallest
darts, keep the support's order, and the q - 1 bigons of e follow the
faces whose smallest dart is at most 2e.  A bundle joins the ends of its
edge and adds one face per copy past the first, so it changes neither the
components nor, by the Euler formula, the genus.  Edge ids, endpoints,
costs, the copy -> support edge map, pair counts, components and genus are
therefore arithmetic on the bundles and the support's traced faces.  The
dart maps, rotations and faces are built only when read, by ``explicit``,
and equal those of the copies drawn one by one; ``explicit`` measures the
drawn genus on its own faces and checks it against the support's.
Deleting copies takes them out of their bundles (which is what the
rotation splice does); a bundle left empty deletes its support edge.

In the dual a bundle is a path of q dual edges through its q - 1 bigons,
so ``BundledDual`` reads the faces and threads off the support's dual: a
support face moves up by the bigons of the bundles before its smallest
dart, the bigons of a bundle take consecutive ids, and each core thread is
a support thread with every edge replaced by its copies and the bigons
between, as Ranges.  Only a cycle that is a whole component is turned to
start at its smallest face, as ``find_threads`` walks it.  So the girth
search, the far-set selection and the spanning tree run on the support's
few threads, and their answers are those on the copies drawn one by one.
Surgery splices single darts and works on ``explicit()``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import chain

from .dual import DualGraph, Thread
from .embedding import EmbeddedGraph
from .errors import EdgeAbsentError, OddEulerDefectError


class Ranges(Sequence):
    """A sequence of ints held as the concatenation of a few ranges.

    Length, indexing, ``index`` and ``low`` (the minimum) cost one step
    per range; a slice with step 1 or -1 and ``+`` give Ranges again.  It
    equals (and hashes as) any sequence of the same ints, a tuple among
    them.
    """

    __slots__ = ("ranges", "_starts", "_n")

    def __init__(self, ranges=()):
        self.ranges = rs = tuple(filter(None, ranges))
        self._starts = starts = [0]  # the position of each range's first item
        n = 0
        for r in rs:
            n += len(r)
            starts.append(n)
        self._n = starts.pop()

    def __len__(self):
        return self._n

    def __iter__(self):
        return chain.from_iterable(self.ranges)

    def __reversed__(self):
        return chain.from_iterable(r[::-1] for r in reversed(self.ranges))

    def __contains__(self, x):
        rs = self.ranges
        return x in rs[0] if len(rs) == 1 else any(x in r for r in rs)

    def __getitem__(self, i):
        rs = self.ranges
        if len(rs) == 1 and isinstance(i, int):
            return rs[0][i]
        if i == 0:  # a thread's ends are read most
            return rs[0][0]
        if i == -1:
            return rs[-1][-1]
        if not isinstance(i, int):
            start, stop, step = i.indices(self._n)
            if step == 1:
                return self._cut(start, stop)
            if step == -1:
                return self._cut(stop + 1, start + 1)._turned()
            return tuple(self)[i]
        if i < 0:
            i += self._n
            if i < 0:
                raise IndexError(i - self._n)
        k = bisect_right(self._starts, i) - 1
        return rs[k][i - self._starts[k]]

    @property
    def low(self) -> int:
        """The smallest item, found one range at a time."""
        rs = self.ranges
        if len(rs) == 1:
            return rs[0][0] if rs[0].step > 0 else rs[0][-1]
        return min(r[0] if r.step > 0 else r[-1] for r in rs)

    def index(self, x):
        for r, start in zip(self.ranges, self._starts):
            if x in r:
                return start + r.index(x)
        raise ValueError(f"{x} is not in the sequence")

    def __add__(self, other):
        return Ranges(self.ranges + other.ranges)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Ranges({list(self.ranges)!r})"

    def _cut(self, lo, hi):
        """The items at positions lo..hi-1."""
        out = []
        for r, begin in zip(self.ranges, self._starts):
            a, b = max(lo, begin), min(hi, begin + len(r))
            if a < b:
                out.append(r[a - begin:b - begin])
        return Ranges(out)

    def _turned(self):
        return Ranges(r[::-1] for r in reversed(self.ranges))

    def without(self, ids):
        """These ascending ids less ``ids``, a sorted list of some of them."""
        out = []
        i = 0
        for r in self.ranges:
            start = r.start
            while i < len(ids) and ids[i] < r.stop:
                out.append(range(start, ids[i]))
                start = ids[i] + 1
                i += 1
            out.append(range(start, r.stop))
        return Ranges(out)


class Origin(Mapping):
    """Copy id -> the support edge it copies, for the copies of
    ``expand_parallel``: ids 0, 1, ... handed out in support-edge order, a
    range per edge, so one bisection finds the edge of an id."""

    def __init__(self, ids):
        self._edges = list(ids)
        self._starts = [r.start for r in ids.values()]
        self._count = sum(map(len, ids.values()))

    def __getitem__(self, c):
        if not isinstance(c, int) or not 0 <= c < self._count:
            raise KeyError(c)
        return self._edges[bisect_right(self._starts, c) - 1]

    def __iter__(self):
        return iter(range(self._count))

    def __len__(self):
        return self._count


class CopyCosts(Mapping):
    """Edge costs of a BundledGraph: each copy in ``bundles`` carries the
    cost ``unit`` gives its support edge.  It holds the graph's bundles and
    origin, not the graph, which holds it, so that no reference cycle waits
    for the collector."""

    def __init__(self, bundles, origin, unit):
        self.bundles = bundles
        self.origin = origin
        self.unit = unit

    def __getitem__(self, c):
        e = self.origin[c]
        if c not in self.bundles.get(e, ()):
            raise KeyError(c)
        return self.unit[e]

    def __iter__(self):
        return chain.from_iterable(chain.from_iterable(
            copies.ranges for copies in self.bundles.values()))

    def __len__(self):
        return sum(map(len, self.bundles.values()))


class BundledGraph(EmbeddedGraph):
    """A multigraph of parallel copies, held as its support and bundles.

    Attributes:
        support: the EmbeddedGraph of the support edges (each has a copy).
        bundles: dict support edge -> Ranges of its surviving copy ids,
            ascending, in support-edge order.
        origin: copy id -> support edge, for every copy ever made.
        edge_cost: CopyCosts when made with costs, None without; a caller
            may assign a dict copy id -> cost instead, at scale 1.

    See the module docstring for the face structure.  The dart maps
    ``dart_owner`` and ``rotation_next``, the rotations, the faces and the
    dart -> face map are those of ``explicit()``, built on the first read.
    """

    def __init__(self, support, bundles, origin, unit_cost=None):
        self.vertex_count = support.vertex_count
        self.support = support
        self.bundles = bundles
        self.origin = origin
        self.edge_cost = (None if unit_cost is None
                          else CopyCosts(bundles, origin, unit_cost))
        self._unmeasured()
        self._edges = Ranges(r for copies in bundles.values() for r in copies.ranges)
        self._genus = support.genus()
        self._explicit = None

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, c: int) -> bool:
        return c in self.bundles.get(self.origin.get(c), ())

    def endpoints(self, c: int) -> tuple[int, int]:
        """Endpoints of copy c: those of its support edge.  KeyError when c
        is no copy of this graph, as for a plain graph's absent edge."""
        e = self.origin[c]
        if c not in self.bundles.get(e, ()):
            raise KeyError(c)
        return self.support.endpoints(e)

    @cached_property
    def dart_owner(self):
        return self.explicit().dart_owner

    @cached_property
    def rotation_next(self):
        return self.explicit().rotation_next

    def darts_at(self, v: int) -> list[int]:
        return self.explicit().darts_at(v)

    def faces(self) -> list[tuple[int, ...]]:
        if self._faces is None:
            self._faces = self.explicit().faces()
        return self._faces

    def face_of_dart(self) -> list:
        return self.explicit().face_of_dart()

    def explicit(self) -> EmbeddedGraph:
        """The same multigraph as a plain EmbeddedGraph, every copy drawn
        with its two darts (as the rotation splice of ``delete_edges``
        leaves them), built once; it carries the current ``edge_cost`` and
        the memos that need no faces, and its genus is measured on its own
        traced faces, which must give the support's."""
        h = self._explicit
        if h is None:
            owner, rot = {}, {}
            for v in range(self.vertex_count):
                cycle = []
                for d in self.support.darts_at(v):
                    runs = self.bundles[d >> 1].ranges
                    if d & 1:
                        for r in reversed(runs):
                            cycle.extend(range(2 * r.stop - 1, 2 * r.start, -2))
                    else:
                        for r in runs:
                            cycle.extend(range(2 * r.start, 2 * r.stop, 2))
                owner.update(dict.fromkeys(cycle, v))
                rot.update(zip(cycle, cycle[1:] + cycle[:1]))
            h = EmbeddedGraph(self.vertex_count, owner, rot)
            h._edges = self.edges()
            h._components, h._pairs = self._components, self._pairs
            h._total_cost, h._connectivity = self._total_cost, self._connectivity
            if h.genus() != self._genus:  # measured on the drawn faces
                raise OddEulerDefectError("parallel copies changed the genus")
            self._explicit = h
        h.edge_cost = self.edge_cost
        return h

    def _without(self, doomed) -> "BundledGraph":
        """The copies ``doomed`` taken out of their bundles; the support
        loses the edges whose bundles they empty."""
        taken = {}
        for c in sorted(doomed):
            taken.setdefault(self.origin[c], []).append(c)
        bundles = dict(self.bundles)
        emptied = []
        for e, ids in taken.items():
            left = bundles[e].without(ids)
            if left:
                bundles[e] = left
            else:
                del bundles[e]
                emptied.append(e)
        support = self.support.delete_edges(emptied) if emptied else self.support
        cost = self.edge_cost
        if isinstance(cost, CopyCosts):
            h = BundledGraph(support, bundles, self.origin, cost.unit)
        else:
            h = BundledGraph(support, bundles, self.origin)
            if cost is not None:
                h.edge_cost = {c: w for c, w in cost.items() if c not in doomed}
        if self._explicit is not None:
            # copies once drawn stay drawn, spliced as a plain graph's are
            h._explicit = self._explicit.delete_edges(doomed)
            h._faces = h._explicit._faces
        return h


class BundledDual(DualGraph):
    """The dual of a BundledGraph, read off the dual of its support.

    A bundle of q copies is a path of q dual edges through its q - 1
    bigons, so the dual's faces and threads are the support dual's with
    each support edge replaced by its bundle.  Faces keep the canonical ids
    of the copies drawn one by one, which follow from the support's face
    order (see the module docstring): a support face moves up by the
    bigons of the bundles before its smallest dart, and the bigons of a
    bundle take consecutive ids.  ``core_threads`` are the support dual's
    core threads with each edge replaced by its copies and each bundle's
    bigons inserted, as Ranges; only a cycle that is a whole component is
    turned to start at its smallest face.  ``faces``, ``face_of`` and
    ``dual_edges`` are those of the copies drawn one by one, built on the
    first read.
    """

    def __init__(self, g: BundledGraph):
        s = g.support
        base = DualGraph.on_darts(s.faces(), s.face_of_dart(), s.edge_count)
        index = [0] * base.face_count  # support face -> its id here
        first = {}  # support edge -> id of its first bigon
        f = shift = 0
        for e, copies in g.bundles.items():
            while f < base.face_count and base.faces[f][0] <= 2 * e:
                index[f] = f + shift
                f += 1
            first[e] = f + shift
            shift += len(copies) - 1
        for f in range(f, base.face_count):
            index[f] = f + shift
        self._graph = g
        self._base = base
        self._index = index
        self._first = first
        self.face_count = base.face_count + shift
        self.edge_count = g.edge_count
        self._face_of = None
        self._unmeasured()

    @property
    def faces(self):
        return self._graph.faces()

    @property
    def face_of(self):
        if self._face_of is None:
            self._face_of = self._graph.face_of_dart()
        return self._face_of

    @property
    def dual_edges(self) -> list[tuple[int, int, int]]:
        if self._dual_edges is None:
            out = []
            for e, copies in self._graph.bundles.items():
                left, right, b = self._ends(e)
                last = len(copies) - 1
                out += ((c, left if i == 0 else b + i - 1,
                         right if i == last else b + i) for i, c in enumerate(copies))
            self._dual_edges = out
        return self._dual_edges

    def _ends(self, e):
        """(face of dart 2e, face of dart 2e + 1, first bigon) of bundle e."""
        face_of, index = self._base.face_of, self._index
        return index[face_of[2 * e]], index[face_of[2 * e + 1]], self._first[e]

    def faces_of(self, c: int) -> tuple[int, int]:
        """The faces of copy c, found from its place in its bundle."""
        g = self._graph
        try:
            e = g.origin[c]
            copies = g.bundles[e]
            i = copies.index(c)
        except (KeyError, ValueError):
            raise EdgeAbsentError(f"dual edge {c} absent") from None
        left, right, b = self._ends(e)
        return (left if i == 0 else b + i - 1,
                right if i == len(copies) - 1 else b + i)

    def core_threads(self) -> tuple[Thread, ...]:
        if self._threads is None:
            base, bundles = self._base, self._graph.bundles
            threads = base.core_threads()
            pendant = set(base._pendant)
            self._pendant = [c for e in base._pendant for c in bundles[e]]
            out, whole = [], []
            for t in threads:
                f = t.vertices[0]
                # a cycle at a face of degree 2 in the 2-core is a whole
                # component, which find_threads walks after the others
                if f == t.vertices[-1] and 2 == sum(
                        x >> 1 not in pendant for x in base.faces[f]):
                    whole.append(_from_smallest(self._bundled(t)))
                else:
                    out.append(self._bundled(t))
            whole.sort(key=lambda t: t.vertices[0])
            self._threads = tuple(out + whole)
        return self._threads

    def _bundled(self, t: Thread) -> Thread:
        """Support thread t with each edge replaced by its copies, in the
        direction t crosses it, and each bundle's bigons between."""
        face_of, index, first = self._base.face_of, self._index, self._first
        bundles = self._graph.bundles
        f = index[t.vertices[0]]
        edges, verts = [], [range(f, f + 1)]
        for e, here, there in zip(t.edges, t.vertices, t.vertices[1:]):
            copies = bundles[e]
            b, q = first[e], len(copies)
            # the copies ascend from the face of dart 2e to that of 2e + 1
            if face_of[2 * e] == here:
                edges += copies.ranges
                verts.append(range(b, b + q - 1))
            else:
                edges += [r[::-1] for r in reversed(copies.ranges)]
                verts.append(range(b + q - 2, b - 1, -1))
            f = index[there]
            verts.append(range(f, f + 1))
        return Thread(Ranges(edges), Ranges(verts))


def _from_smallest(t: Thread) -> Thread:
    """Cycle thread t, a whole component, walked as ``find_threads`` walks
    it: from its smallest face, along the smaller of that face's edges."""
    edges = t.edges
    ring = t.vertices[:len(edges)]
    j = ring.index(min(ring))
    if edges[j] < edges[j - 1]:
        return Thread(edges[j:] + edges[:j], ring[j:] + ring[:j + 1])
    return Thread(edges[:j][::-1] + edges[j:][::-1],
                  ring[:j + 1][::-1] + ring[j:][::-1])
