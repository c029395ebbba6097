"""Deterministic instance generators with known embeddings.

Planar families are built from plane drawings (cycles, wheels, prisms) and
amplified with adjacent parallel copies, so the stated genus and the
q-times-base connectivity hold by construction and are re-measured in tests.
Torus grids use the north/east/south/west rotation at every vertex.  All
randomness comes from the package PCG32 stream, so a (spec, seed) pair
always produces identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .embedding import EmbeddedGraph, build_embedding, expand_parallel
from .errors import BadParamsError
from .formats import write_atsp, write_emb
from .heldkarp import ATSPInstance
from .prng import PCG32

FAMILIES = ("planar-amplified", "torus-grid", "random-metric", "lp-support-instance")
COST_MODELS = ("unit", "uniform-range", "asymmetric-skew")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one generated instance.  ``cost_model`` None is the
    family's default: unit for embeddings, asymmetric-skew for random-metric;
    lp-support-instance draws its own costs and accepts none."""

    family: str
    params: dict = field(default_factory=dict)
    cost_model: str | None = None

    def seed(self) -> int:
        return int(self.params.get("seed", 0))


def _embedding_from_ends(vertex_count, rotations_by_ends, costs=None):
    """Build from per-vertex lists of (edge_id, end) with end in {0, 1}."""
    rotations = [[2 * e + end for e, end in rot] for rot in rotations_by_ends]
    n_edges = sum(len(r) for r in rotations) // 2
    twins = [(2 * e, 2 * e + 1) for e in range(n_edges)]
    return build_embedding(vertex_count, rotations, twins, costs)


def cycle_graph(n: int) -> EmbeddedGraph:
    """Cycle 0-1-...-(n-1)-0; edge i joins i and i+1 mod n.  Genus 0."""
    if n < 2:
        raise BadParamsError("cycle needs n >= 2")
    rotations = []
    for v in range(n):
        rotations.append([(v, 0), ((v - 1) % n, 1)])
    return _embedding_from_ends(n, rotations)


def wheel_graph(m: int) -> EmbeddedGraph:
    """Wheel: cycle 0..m-1 plus hub m.  Rim edge i = (i, i+1 mod m) has id i,
    spoke from i to the hub has id m + i.  Genus 0."""
    if m < 3:
        raise BadParamsError("wheel needs a rim of >= 3 vertices")
    rotations = []
    for v in range(m):
        # counterclockwise around a rim vertex: next rim, hub, previous rim
        rotations.append([(v, 0), (m + v, 0), ((v - 1) % m, 1)])
    rotations.append([(m + i, 1) for i in range(m)])
    return _embedding_from_ends(m + 1, rotations)


def prism_graph(m: int) -> EmbeddedGraph:
    """Prism: outer cycle 0..m-1, inner cycle m..2m-1, rungs between them.

    Edge ids: outer i (0..m-1), inner i (m..2m-1), rung i (2m..3m-1).
    The cube is prism_graph(4).  Genus 0.
    """
    if m < 3:
        raise BadParamsError("prism needs m >= 3")
    rotations = []
    for j in range(m):  # outer vertex j
        rotations.append([(j, 0), (2 * m + j, 0), ((j - 1) % m, 1)])
    for j in range(m):  # inner vertex m + j
        rotations.append([(2 * m + j, 1), (m + j, 0), (m + (j - 1) % m, 1)])
    return _embedding_from_ends(2 * m, rotations)


def torus_grid(rows: int, cols: int) -> EmbeddedGraph:
    """rows x cols grid with wraparound, rotation (N, E, S, W).  Genus 1.

    Vertex (i, j) has id i*cols + j; edge ids: right edge of (i, j) is
    i*cols + j, down edge is rows*cols + i*cols + j.
    """
    if rows < 3 or cols < 3:
        raise BadParamsError("torus grid needs rows, cols >= 3")
    n = rows * cols

    def right(i, j):
        return i * cols + j

    def down(i, j):
        return n + i * cols + j

    rotations = []
    for i in range(rows):
        for j in range(cols):
            north = (down((i - 1) % rows, j), 1)
            east = (right(i, j), 0)
            south = (down(i, j), 0)
            west = (right(i, (j - 1) % cols), 1)
            rotations.append([north, east, south, west])
    return _embedding_from_ends(n, rotations)


BASES = {"k4": lambda n: wheel_graph(3), "cube": lambda n: prism_graph(4),
         "cycle": cycle_graph, "wheel": wheel_graph, "prism": prism_graph}


def amplify(g: EmbeddedGraph, q: int, costs=None) -> EmbeddedGraph:
    """q adjacent parallel copies of every edge; genus is preserved.

    ``costs`` optionally maps each new edge id to a cost afterwards via a
    callable (new_id, old_id) -> value.
    """
    if q < 1:
        raise BadParamsError("multiplicity must be >= 1")
    expanded, origin = expand_parallel(g, {e: q for e in g.edges()})
    if costs is not None:
        expanded.edge_cost = {i: Fraction(costs(i, origin[i])) for i in origin}
    return expanded


def _edge_costs(g: EmbeddedGraph, model: str, rng: PCG32):
    if model == "unit":
        return dict.fromkeys(g.edges(), 1)
    if model == "uniform-range":
        return {e: rng.randint(1, 100) for e in g.edges()}
    raise BadParamsError(f"cost model {model!r} not valid for embeddings")


def random_metric(n: int, rng: PCG32, model: str = "asymmetric-skew"):
    """Raw asymmetric cost matrix with integer entries in 1..100.

    The instance loader completes the metric, so no triangle inequality is
    enforced here.  ``unit`` gives the all-ones matrix; ``uniform-range``
    symmetric draws; ``asymmetric-skew`` independent draws per direction.
    """
    if n < 3:
        raise BadParamsError("metric instance needs n >= 3")
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if model == "unit":
                a = b = 1
            elif model == "uniform-range":
                a = b = rng.randint(1, 100)
            elif model == "asymmetric-skew":
                a = rng.randint(1, 100)
                b = rng.randint(1, 100)
            else:
                raise BadParamsError(f"unknown cost model {model!r}")
            matrix[i][j] = Fraction(a)
            matrix[j][i] = Fraction(b)
    return matrix


def lp_support_instance(n: int, rng: PCG32):
    """Metric whose Held-Karp support stays on a planar prism.

    ``n`` must be even and >= 6.  Base arcs get independent direction costs
    in 10..19; any two-edge detour then costs at least 20, so optimal LP
    mass stays on base arcs.  Off-base entries are the exact shortest-path
    completion.  Returns (matrix, prism embedding with unit costs).
    """
    if n < 6 or n % 2:
        raise BadParamsError("lp-support-instance needs even n >= 6")
    base = prism_graph(n // 2)
    big = Fraction(10 ** 9)
    matrix = [[big] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = Fraction(0)
    for e in base.edges():
        u, v = base.endpoints(e)
        matrix[u][v] = Fraction(rng.randint(10, 19))
        matrix[v][u] = Fraction(rng.randint(10, 19))
    base.edge_cost = dict.fromkeys(base.edges(), 1)
    # the exact completion keeps entries integral
    return ATSPInstance.from_matrix(matrix).cost, base


def generate(spec: GenSpec) -> dict:
    """Render a GenSpec to its output files, name -> text."""
    if spec.family not in FAMILIES:
        raise BadParamsError(f"unknown family {spec.family!r}")
    params = spec.params
    rng = PCG32(spec.seed())
    model = spec.cost_model

    if spec.family == "planar-amplified":
        base_name = params.get("base", "cube")
        if base_name not in BASES:
            raise BadParamsError(f"unknown base {base_name!r}")
        base = BASES[base_name](int(params.get("n", 0)))
        q = int(params.get("mult", 1))
        g = amplify(base, q)
        if model not in (None, "unit") or params.get("weighted"):
            g.edge_cost = _edge_costs(g, model or "unit", rng)
        return {"graph.emb": write_emb(g)}

    if spec.family == "torus-grid":
        g = torus_grid(int(params.get("rows", 3)), int(params.get("cols", 3)))
        g = amplify(g, int(params.get("mult", 1)))
        if model not in (None, "unit") or params.get("weighted"):
            g.edge_cost = _edge_costs(g, model or "unit", rng)
        return {"graph.emb": write_emb(g)}

    if spec.family == "random-metric":
        matrix = random_metric(int(params.get("n", 6)), rng,
                               model or "asymmetric-skew")
        return {"instance.atsp": write_atsp(matrix)}

    if model is not None:
        raise BadParamsError(
            f"lp-support-instance has fixed costs; cost model {model!r} given")

    matrix, emb = lp_support_instance(int(params.get("n", 6)), rng)
    return {"instance.atsp": write_atsp(matrix), "support.emb": write_emb(emb)}
