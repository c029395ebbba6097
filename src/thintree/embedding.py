"""Combinatorial embeddings of multigraphs on orientable surfaces.

An embedding is stored as a rotation system.  Edge ``e`` owns the two darts
(half-edges) ``2e`` and ``2e+1``; the twin involution is therefore just
``d ^ 1`` and edge ids stay stable when other edges are deleted.  Each dart
belongs to one vertex, and ``rotation_next`` maps a dart to the next dart in
counterclockwise order around its vertex.  Faces are the cycles of the
permutation

    phi(d) = rotation_next[twin(d)]

i.e. advance to the twin, then rotate.  Either composition order is a valid
convention; this one is fixed so that face ids are reproducible.

Loops and parallel edges are first class: a loop contributes two darts at the
same vertex.  The total genus of a (possibly disconnected) embedding follows
from the Euler formula

    V - E + F = 2*kappa - 2*genus

where an isolated vertex counts one (empty) face.  Graphs are immutable after
construction; edge deletion returns a new graph.  Edge costs are in units of
1/``scale``: ``build_embedding`` holds them as ints over the lcm of their
denominators, and they leave the package as Fraction(c, scale).

Global measurements are memoised per graph: faces with their dart -> face
map (one trace fills both), components, genus, the parallel copies of each
vertex pair (``pair_counts``), the total cost (for the cost map it was
taken on) and the edge connectivity (``flows``).

``delete_edges`` copies the maps whole and splices out the deleted darts
(``_splice``, on the face walks that hold them).  It seeds the result's
edge ids (the parent's minus the deleted ones), pair counts (``_drop_pairs``)
and faces from whichever of those the parent has measured (the dart ->
face map is built from seeded faces on its first read).  The faces are
exact: on a face that holds no deleted dart, phi'(d) = phi(d), because
twin(d) survives and its old successor phi(d) lies on the same face, so it
survives too and the splice leaves it in place.  Such a face is kept as
the same tuple; only the surviving darts of the walked faces are traced
again, and merged into the kept list in the order of a cold trace.
Components are the union of the vertex pairs with a positive count, so
they follow from the seeded pair counts, and the genus is still measured
by the Euler formula on these faces and components.

Surgery (``surgery.SurgeryState``) makes the same splice and pair-count
drop on one mutable copy of the rotations across many deletions, and
builds a graph only at the end, with ``delete_edges``.

``expand_parallel`` returns its multigraph of parallel copies as a
``bundles.BundledGraph``, which holds the support and a range of copy ids
per support edge, and draws the copies' darts only when they are read.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import lcm

from .errors import (
    BadTwinError,
    DisconnectedError,
    EdgeAbsentError,
    InvalidInputError,
    MalformedRotationError,
    OddEulerDefectError,
)


class EmbeddedGraph:
    """A multigraph with a rotation system and optional edge costs.

    Attributes:
        vertex_count: number of vertices (ids 0..vertex_count-1).
        dart_owner: dict dart id -> vertex id.
        rotation_next: dict dart id -> successor dart at the same vertex.
        edge_cost: dict edge id -> cost in units of 1/scale, or None.
        scale: int, 1 unless ``build_embedding`` scaled the costs.
    """

    scale = 1

    def __init__(self, vertex_count, dart_owner, rotation_next, edge_cost=None):
        self.vertex_count = vertex_count
        self.dart_owner = dart_owner
        self.rotation_next = rotation_next
        self.edge_cost = edge_cost
        self._unmeasured()

    def _unmeasured(self):
        self._faces = None
        self._face_of = None  # dart -> index in _faces, traced with them
        self._components = None
        self._edges = None
        self._rotations = None  # vertex -> its darts in rotation order
        self._genus = None
        self._pairs = None  # (u, v) -> parallel copies, u < v
        self._total_cost = None  # (the cost map it was taken on, the total)
        self._connectivity = None  # memo of flows.edge_connectivity

    # -- basic queries ------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.dart_owner) // 2

    def edges(self) -> list[int]:
        """Sorted ids of the surviving edges."""
        if self._edges is None:
            self._edges = sorted({d >> 1 for d in self.dart_owner})
        return list(self._edges)

    def has_edge(self, e: int) -> bool:
        return 2 * e in self.dart_owner

    def endpoints(self, e: int) -> tuple[int, int]:
        """Endpoints of edge e, in dart order (owner of 2e, owner of 2e+1)."""
        return self.dart_owner[2 * e], self.dart_owner[2 * e + 1]

    def darts_at(self, v: int) -> list[int]:
        """Darts at v in rotation order, starting from the smallest dart.

        Every rotation is walked once, on the first call, and kept as a
        tuple; each call returns a fresh list.
        """
        if self._rotations is None:
            owner, nxt = self.dart_owner, self.rotation_next
            rotations = {}
            for start in sorted(owner):
                if owner[start] not in rotations:
                    darts = [start]
                    d = nxt[start]
                    while d != start:
                        darts.append(d)
                        d = nxt[d]
                    rotations[owner[start]] = tuple(darts)
            self._rotations = rotations
        return list(self._rotations.get(v, ()))

    def total_cost(self):
        """Sum of the edge costs (units of 1/scale), memoised for the
        current ``edge_cost`` map: assigning a new map measures again."""
        memo = self._total_cost
        if memo is None or memo[0] is not self.edge_cost:
            cost = self.edge_cost
            memo = (cost, sum(cost[e] for e in self.edges()))
            self._total_cost = memo
        return memo[1]

    def pair_counts(self) -> dict:
        """Parallel copies of each vertex pair, keyed (u, v) with u < v, as
        a fresh dict.  Loops cross no cut and are left out."""
        if self._pairs is None:
            self._pairs = _pair_counts(self)
        return dict(self._pairs)

    # -- faces, genus, components --------------------------------------

    def faces(self) -> list[tuple[int, ...]]:
        """Cycles of phi, each rotated to start at its smallest dart and
        sorted by that dart.  Isolated vertices contribute no cycle here but
        are accounted for in genus()."""
        if self._faces is None:
            face_of = [None] * ((max(self.dart_owner, default=-1) | 1) + 1)
            self._faces = _trace(self.dart_owner, self.rotation_next, face_of)
            self._face_of = face_of
        return self._faces

    def face_of_dart(self) -> list:
        """List indexed by dart: the index of its face in faces(), None at
        the ids below the largest dart that are no dart (deleted edges).

        The list is the graph's own memo, shared with every caller (a dual
        holds it as its ``face_of``), so callers must not mutate it.  It is
        traced with the faces, or built from them once where they were
        seeded (``delete_edges``).
        """
        faces = self.faces()
        if self._face_of is None:
            edges = self.edges()
            owner = [None] * (2 * edges[-1] + 2 if edges else 0)
            for i, walk in enumerate(faces):
                for d in walk:
                    owner[d] = i
            self._face_of = owner
        return self._face_of

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by minimum."""
        if self._components is None:
            self._components = _components(self.vertex_count, self.pair_counts())
        return self._components

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def genus(self) -> int:
        """Total genus over components, via V - E + F = 2*kappa - 2*genus."""
        if self._genus is not None:
            return self._genus
        touched = set(self.dart_owner.values())
        isolated = self.vertex_count - len(touched)
        f = len(self.faces()) + isolated
        kappa = len(self.components())
        defect = 2 * kappa - (self.vertex_count - self.edge_count + f)
        if defect % 2:
            raise OddEulerDefectError(
                f"V-E+F-2k = {-defect} is odd: corrupted rotation system")
        g = defect // 2
        if g < 0:
            raise OddEulerDefectError(f"negative genus {g}: corrupted rotation system")
        self._genus = g
        return g

    # -- derived graphs -------------------------------------------------

    def explicit(self) -> "EmbeddedGraph":
        """This graph with a dart pair for every edge: self."""
        return self

    def delete_edges(self, edge_ids) -> "EmbeddedGraph":
        """New graph with the given edges removed (rotation splicing).

        Surviving edges keep their ids and darts; repeated ids count once.
        Raises EdgeAbsentError, before anything is copied, when an id is not
        an edge of self.  The memos of self that are filled seed those of
        the result (see the module docstring).
        """
        doomed = set(edge_ids)
        absent = sorted(e for e in doomed if not self.has_edge(e))
        if absent:
            raise EdgeAbsentError(f"edges not present: {absent}")
        h = self._without(doomed)
        if self._pairs is not None:
            h._pairs = dict(self._pairs)
            _drop_pairs(h._pairs, self.endpoints, doomed)
        return h

    def _without(self, doomed) -> "EmbeddedGraph":
        """``delete_edges`` of the edges ``doomed``, all present, but for
        the pair counts: each face that holds a deleted dart is walked once
        and handed to ``_splice``."""
        gone = {d for e in doomed for d in (2 * e, 2 * e + 1)}
        nxt = self.rotation_next
        walks = []
        seen = set()
        for d0 in gone:
            if d0 in seen:
                continue
            walk = [d0]
            d = nxt[d0 ^ 1]
            while d != d0:
                walk.append(d)
                d = nxt[d ^ 1]
            seen.update(walk)
            walks.append(walk)
        rot = dict(nxt)
        survivors, _ = _splice(rot, gone, walks)
        owner = dict(self.dart_owner)
        for d in gone:
            del owner[d]
        h = EmbeddedGraph(self.vertex_count, owner, rot)
        h.scale = self.scale
        if self.edge_cost is not None:
            h.edge_cost = cost = dict(self.edge_cost)
            for e in doomed:
                del cost[e]
        if self._edges is not None:
            edges = list(self._edges)
            for e in sorted(doomed, reverse=True):
                del edges[bisect_left(edges, e)]
            h._edges = edges
        faces = self._faces
        if faces is not None:
            # the faces with no deleted dart are kept; each walked face
            # starts at its smallest dart in faces
            kept = list(faces)
            for i in sorted((bisect_left(faces, (min(w),)) for w in walks),
                            reverse=True):
                del kept[i]
            for f in _trace(survivors, rot):
                insort(kept, f)
            h._faces = kept
        return h

    def restrict_to_component(self, vertices) -> "EmbeddedGraph":
        """Standalone embedding of one component.

        ``vertices`` must be a full component.  Vertices are renumbered in
        sorted order; edges, darts and costs keep their ids in self.  The
        whole vertex set returns self: the renumbering is then the identity
        and graphs are immutable.  The result keeps self's ``scale``.
        """
        kept = sorted(set(vertices))
        if kept == list(range(self.vertex_count)):
            return self
        vmap = {v: i for i, v in enumerate(kept)}
        edges = [e for e in self.edges() if self.dart_owner[2 * e] in vmap]
        owner = {}
        for e in edges:
            for d in (2 * e, 2 * e + 1):
                if self.dart_owner[d] not in vmap:
                    raise DisconnectedError("vertex set is not a full component")
                owner[d] = vmap[self.dart_owner[d]]
        rot = {d: self.rotation_next[d] for d in owner}
        h = EmbeddedGraph(len(vmap), owner, rot)
        h.scale = self.scale
        if self.edge_cost is not None:
            h.edge_cost = {e: self.edge_cost[e] for e in edges}
        return h


def expand_parallel(g: EmbeddedGraph, multiplicity, cost=None):
    """Replace each edge e by ``multiplicity[e]`` adjacent parallel copies.

    Copies are inserted in one order at the side of dart 2e and in reverse
    order at the side of dart 2e+1, so consecutive copies bound bigon faces
    and the genus is unchanged.  Edges with multiplicity 0 (or none given)
    are deleted first.  Returns (expanded graph, map new edge id -> old
    edge id); new ids are contiguous, assigned in old-id order.

    The expanded graph is a BundledGraph on the support that is left: no
    copy is drawn until its darts are read (see ``bundles``).
    ``cost`` optionally maps an old edge id to the cost, at scale 1, that
    each of its copies carries.  Raises InvalidInputError, before anything
    is built, when a key of ``multiplicity`` is not an edge of g or its
    value is not a non-negative int (a bool is neither), or when ``cost``
    gives no cost or a negative one for an edge of positive multiplicity.
    """
    for e, m in multiplicity.items():
        if not (type(e) is int and g.has_edge(e)):
            raise InvalidInputError(f"multiplicity given for {e!r}, not an edge")
        if type(m) is not int or m < 0:
            raise InvalidInputError(
                f"multiplicity {m!r} of edge {e} is not a non-negative integer")
        if cost is not None and m:
            if e not in cost:
                raise InvalidInputError(f"no cost given for edge {e}")
            if cost[e] < 0:
                raise InvalidInputError(f"negative cost {cost[e]} on edge {e}")
    from .bundles import BundledGraph, Origin, Ranges  # bundles builds on this module

    g = g.explicit()
    zero = [e for e in g.edges() if multiplicity.get(e, 0) == 0]
    base = g.delete_edges(zero) if zero else g

    ids = {}
    counter = 0
    for e in base.edges():
        ids[e] = range(counter, counter + multiplicity[e])
        counter = ids[e].stop
    origin = Origin(ids)
    bundles = {e: Ranges((r,)) for e, r in ids.items()}
    unit = None if cost is None else {e: cost[e] for e in ids}
    expanded = BundledGraph(base, bundles, origin, unit)
    expanded._components = base.components()
    expanded._pairs = _pair_counts(base, multiplicity)
    if unit is not None:
        expanded._total_cost = (expanded.edge_cost,
                                sum(multiplicity[e] * c for e, c in unit.items()))
    return expanded, origin


def _components(vertex_count, pairs) -> list[list[int]]:
    """Components of the vertices 0..vertex_count-1 joined by the vertex
    pairs ``pairs``, as sorted vertex lists sorted by minimum."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        a, b = find(u), find(v)
        if a != b:
            parent[a] = b
    groups = {}
    for v in range(vertex_count):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def _splice(rot, gone, walks):
    """Drop the darts ``gone`` from the rotations ``rot``, in place.

    ``walks`` holds, once each, the face walks of ``rot`` that contain a
    deleted dart.  The dart before a deleted dart d in its rotation is the
    twin of the dart before d on its face, since phi(y) = rot[y ^ 1], so
    one pass over the walks links each surviving predecessor to its next
    survivor, and no vertex is walked round.  Only survivors are re-linked,
    so the deleted darts' own successors are still read as they were.
    Returns the surviving darts of the walks, which are the darts to trace
    again, and the number of vertices left with no dart.
    """
    survivors = []
    linked = set()  # deleted darts that follow a survivor
    for walk in walks:
        y = walk[-1]  # the dart before d on the face
        for d in walk:
            if d not in gone:
                survivors.append(d)
            elif y ^ 1 not in gone:
                after = rot[d]
                linked.add(d)
                while after in gone:
                    linked.add(after)
                    after = rot[after]
                rot[y ^ 1] = after
            y = d
    # the others lie on vertices that lost every dart
    rest = gone - linked
    bare = 0
    while rest:
        d = rest.pop()
        bare += 1
        x = rot[d]
        while x != d:
            rest.discard(x)
            x = rot[x]
    for d in gone:
        del rot[d]
    return survivors, bare


def _drop_pairs(pairs, endpoints, edges) -> list:
    """Take the non-loop edges ``edges`` off the pair counts ``pairs``, in
    place, one copy each; ``endpoints`` maps an edge to its two ends.
    Returns the pairs that it emptied, which are dropped."""
    emptied = []
    for e in edges:
        u, v = endpoints(e)
        if u != v:
            key = (u, v) if u < v else (v, u)
            pairs[key] -= 1
            if not pairs[key]:
                del pairs[key]
                emptied.append(key)
    return emptied


def _pair_counts(g: EmbeddedGraph, copies=None) -> dict:
    """Copies of each non-loop vertex pair (u, v), u < v, of g, where edge
    e stands for ``copies[e]`` parallel copies (one when ``copies`` is
    None)."""
    counts = {}
    for e in g.edges():
        u, v = g.endpoints(e)
        if u != v:
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + (1 if copies is None else copies[e])
    return counts


def _trace(darts, rotation_next, face_of=None):
    """The cycles of phi through the darts ``darts`` (an iterable of dart
    ids closed under phi), each starting at its smallest dart and sorted by
    it.

    ``face_of``, when given, is a list of None indexed by dart, at least
    one longer than the largest dart; it is filled with dart -> index of
    its cycle (``EmbeddedGraph.faces`` keeps it and shares it through
    ``face_of_dart``).  A partial trace passes none, and its marks live in
    a dict over ``darts`` alone.
    """
    order = sorted(darts)
    owner = dict.fromkeys(order) if face_of is None else face_of
    faces = []
    for d0 in order:
        if owner[d0] is not None:
            continue
        i = len(faces)
        walk = []
        d = d0
        while True:
            walk.append(d)
            owner[d] = i
            d = rotation_next[d ^ 1]
            if d == d0:
                break
        faces.append(tuple(walk))
    return faces


def build_embedding(vertex_count, rotations, twin_pairs, costs=None) -> EmbeddedGraph:
    """Validate raw rotation data and construct an EmbeddedGraph.

    Parameters:
        vertex_count: number of vertices.
        rotations: one list of dart ids per vertex, in counterclockwise
            order.  Together they must list every dart exactly once.
        twin_pairs: iterable of (dart, dart) pairs covering all darts.  The
            canonical encoding pairs 2e with 2e+1; anything else is rejected.
        costs: optional dict edge id -> cost (int, str or Fraction), one
            for every edge; kept as ints over their lcm denominator, ``scale``.

    Raises:
        MalformedRotationError: a dart is repeated, missing, or rotations
            do not match vertex_count; or a cost is missing, negative or
            not a rational.
        BadTwinError: pairs are not the canonical involution.
    """
    if vertex_count < 0:
        raise MalformedRotationError("negative vertex count")
    if len(rotations) != vertex_count:
        raise MalformedRotationError(
            f"expected {vertex_count} rotation lists, got {len(rotations)}")
    dart_owner = {}
    for v, rotation in enumerate(rotations):
        for d in rotation:
            if d < 0:
                raise MalformedRotationError(f"negative dart id {d}")
            if d in dart_owner:
                raise MalformedRotationError(f"dart {d} listed twice")
            dart_owner[d] = v

    paired = {}
    for a, b in twin_pairs:
        if a == b:
            raise BadTwinError(f"dart {a} twinned with itself")
        for d in (a, b):
            if d in paired:
                raise BadTwinError(f"dart {d} appears in two twin pairs")
        lo, hi = min(a, b), max(a, b)
        if hi != lo + 1 or lo % 2:
            raise BadTwinError(
                f"pair ({a},{b}) violates the 2e/2e+1 dart encoding")
        paired[a] = b
        paired[b] = a
    if set(paired) != set(dart_owner):
        missing = set(dart_owner) ^ set(paired)
        raise BadTwinError(f"twin pairs and rotations disagree on darts {sorted(missing)}")
    if len(dart_owner) % 2:
        raise MalformedRotationError("odd number of darts")

    rot = {}
    for rotation in rotations:
        for i, d in enumerate(rotation):
            rot[d] = rotation[(i + 1) % len(rotation)]

    g = EmbeddedGraph(vertex_count, dart_owner, rot)
    if costs is not None:
        g.edge_cost = cost = {}
        for e, c in costs.items():
            if 2 * e not in dart_owner:
                raise MalformedRotationError(f"cost given for absent edge {e}")
            frac = c
            if not (type(c) is int or isinstance(c, Fraction)):
                try:
                    frac = Fraction(str(c))
                except (ValueError, ZeroDivisionError):
                    raise MalformedRotationError(f"bad cost {c!r} on edge {e}") from None
            if frac.numerator < 0:
                raise MalformedRotationError(f"negative cost on edge {e}")
            cost[e] = frac
        if len(cost) != len(dart_owner) // 2:
            raise MalformedRotationError(
                f"costs given for {len(cost)} of {len(dart_owner) // 2} edges")
        g.scale = scale = lcm(*(f.denominator for f in cost.values()))
        for e, f in cost.items():  # in place: a second map would raise the peak
            cost[e] = f.numerator * (scale // f.denominator)
    g.genus()  # validates Euler parity
    return g
