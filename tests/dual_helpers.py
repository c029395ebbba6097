"""Dual-graph helpers that only the tests use: the cut side of bond-cycle
duality, a thread's kind, and the neighbour-map thread decomposition that
``DualGraph``'s dart walk replaced, kept as its oracle."""

from __future__ import annotations

from thintree.dual import Cut, DualGraph, Thread
from thintree.embedding import EmbeddedGraph
from thintree.errors import DegreeOneVertexError, ThinTreeError


class ParityViolationError(ThinTreeError):
    """A dual vertex meets the cut's dual edge set an odd number of times."""


def kind(t: Thread) -> str:
    """"cycle" when the thread's walk ends where it starts, else "path"."""
    return "cycle" if t.vertices[0] == t.vertices[-1] else "path"


def validate_cut(cut: Cut, vertex_count: int) -> None:
    """A cut side must be a nonempty proper subset of the vertices."""
    if not 0 < len(cut.side) < vertex_count:
        raise ValueError(
            f"cut side of size {len(cut.side)} invalid for {vertex_count} vertices")
    if any(not 0 <= v < vertex_count for v in cut.side):
        raise ValueError("cut side contains unknown vertices")


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
    validate_cut(cut, g.vertex_count)
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


# --- the neighbour-map thread decomposition ---------------------------

def neighbor_maps(face_count, dual_edges):
    """Per-face {edge_id: other_face} in edge-id order, loops omitted, and
    the loops as (edge_id, face) in edge-id order."""
    adj = [{} for _ in range(face_count)]
    loops = []
    for e, l, r in sorted(dual_edges):
        if l == r:
            loops.append((e, l))
        else:
            adj[l][e] = r
            adj[r][e] = l
    return adj, loops


def neighbor_find_threads(face_count, dual_edges) -> list[Thread]:
    """``find_threads`` as it ran on a per-face neighbour map, before the
    dart walk: same threads, same order, same direction."""
    neighbors, loop_list = neighbor_maps(face_count, dual_edges)
    degree = [len(m) for m in neighbors]  # a loop counts twice
    loops = {}
    for e, f in loop_list:
        loops.setdefault(f, []).append(e)
        degree[f] += 2

    def walk(start, edge, other):
        edges, verts = [edge], [start, other]
        cur = other
        while cur != start and degree[cur] == 2:
            ends = neighbors[cur]
            e1, e2 = ends
            edge = e2 if e1 == edge else e1
            cur = ends[edge]
            edges.append(edge)
            verts.append(cur)
        return edges, verts

    threads = []
    used = set()
    for b, deg in enumerate(degree):
        if deg == 2 or deg == 0:
            continue
        if deg == 1:
            raise DegreeOneVertexError(f"vertex {b} has degree 1")
        incident = neighbors[b].items()
        if b in loops:
            incident = sorted([(e, b) for e in loops[b]] + list(incident))
        for e, other in incident:
            if e in used:
                continue
            if other == b:
                used.add(e)
                threads.append(Thread((e,), (b, b)))
                continue
            edges, verts = walk(b, e, other)
            used.update(edges)
            threads.append(Thread(tuple(edges), tuple(verts)))

    if len(used) < sum(degree) // 2:
        for f, deg in enumerate(degree):
            if deg == 2 and min(neighbors[f] or loops[f]) not in used:
                edges, verts = (walk(f, *next(iter(neighbors[f].items())))
                                if neighbors[f] else (loops[f], (f, f)))
                used.update(edges)
                threads.append(Thread(tuple(edges), tuple(verts)))
    return threads


def neighbor_core_threads(face_count, dual_edges):
    """(threads of the 2-core, pendant edges in peel order, loops) as the
    neighbour-map ``core_threads`` found them."""
    neighbors, loops = neighbor_maps(face_count, dual_edges)
    degree = [len(m) for m in neighbors]
    for _, f in loops:
        degree[f] += 2
    stack = [f for f, deg in enumerate(degree) if deg == 1]
    pendant = []
    while stack:
        f = stack.pop()
        if degree[f] != 1:
            continue
        e, other = next((e, o) for e, o in neighbors[f].items() if degree[o])
        pendant.append(e)
        degree[f] = 0
        degree[other] -= 1
        if degree[other] == 1:
            stack.append(other)
    gone = set(pendant)
    core = [x for x in dual_edges if x[0] not in gone]
    return neighbor_find_threads(face_count, core), pendant, loops
