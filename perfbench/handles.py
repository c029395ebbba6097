"""Handle instances: an amplified prism with h handle edges, genus h.

Each handle edge joins two corners that lie on different faces of the
current embedding, which merges those faces and so raises the genus by one
(V and E - F both go up by one in the Euler formula).  After all h handles
are in, every base edge is expanded into q parallel copies and handle edge
i into ``multiplicity[i]`` copies.  Copies of one edge bound bigons, so a
handle of multiplicity m carries a non-contractible dual cycle of length m,
far below the surgery threshold k / (3 sqrt h) for the q used here; the
base keeps dual girth 3q.  Surgery therefore has to delete every handle.

Only the public API is used: ``genlab.prism_graph``, ``EmbeddedGraph``,
``expand_parallel`` and ``prng.PCG32``.
"""

from __future__ import annotations

from fractions import Fraction


def add_handle(api, g, rng):
    """One new edge whose darts land on two different faces of g."""
    face_of = g.face_of_dart()
    while True:
        u = rng.randrange(g.vertex_count)
        v = rng.randrange(g.vertex_count)
        if u == v:
            continue
        darts_u = g.darts_at(u)
        darts_v = g.darts_at(v)
        du = darts_u[rng.randrange(len(darts_u))]
        dv = darts_v[rng.randrange(len(darts_v))]
        # the corner after dart d lies on the face that continues into
        # rotation_next[d]
        if face_of[g.rotation_next[du]] != face_of[g.rotation_next[dv]]:
            break
    e = max(g.edges()) + 1
    owner = dict(g.dart_owner)
    rot = dict(g.rotation_next)
    owner[2 * e], owner[2 * e + 1] = u, v
    rot[2 * e], rot[du] = rot[du], 2 * e
    rot[2 * e + 1], rot[dv] = rot[dv], 2 * e + 1
    return api.embedding.EmbeddedGraph(g.vertex_count, owner, rot), e


def handle_instance(api, m: int, q: int, h: int, seed: int):
    """Prism(m) x q with h handles; returns the weighted EmbeddedGraph.

    Handle multiplicities alternate 1, 2, 1, 2 (in an order the seed
    shuffles), so every instance of a given (m, q, h) does the same kind of
    surgery work; the seed places the handles and draws edge costs in
    50..150.  With one extraction round the tree is picked without regard
    to cost, so its cost ratio is close to a sample of V-1 edge costs; the
    narrow range keeps that ratio from swinging between seeds.  Raises
    ValueError when the measured genus is not h.
    """
    rng = api.prng.PCG32(seed)
    g = api.genlab.prism_graph(m)
    handles = []
    for _ in range(h):
        g, e = add_handle(api, g, rng)
        handles.append(e)
    if g.genus() != h:
        raise ValueError(f"handle instance has genus {g.genus()}, expected {h}")
    mults = [1 + i % 2 for i in range(h)]
    rng.shuffle(mults)
    handle_mult = dict(zip(handles, mults))
    multiplicity = {e: handle_mult.get(e, q) for e in g.edges()}
    expanded, origin = api.embedding.expand_parallel(g, multiplicity)
    expanded.edge_cost = {e: Fraction(rng.randint(50, 150)) for e in sorted(origin)}
    if expanded.genus() != h:
        raise ValueError(f"expanded instance has genus {expanded.genus()}, expected {h}")
    return expanded
