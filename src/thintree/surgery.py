"""Raising dual girth by deleting short dual cycles.

Deleting the primal edges of a dual cycle cuts the surface along that cycle
and caps the two sides, so each deletion either lowers the genus or splits a
component.  Repeating while a dual cycle shorter than k/(3*sqrt(genus))
exists leaves at most 2*sqrt(genus) components.  The square root never needs
floating point: ``length < k / (3*sqrt(g))`` is evaluated as
``9*g*length^2 < k^2`` in integers.

The loop keeps one working state (``SurgeryState``) across its iterations:
one mutable copy of the rotations and of the dual (``dual.WorkingDual``),
and the pair counts.  Each deletion splices out only the deleted darts,
traces again only the faces that held them, and re-threads only what ends
on those faces; the genus after it follows by the Euler formula from the
new face count, and the components from the pair counts, counted again
only when a pair lost its last edge.  The splice and the pair-count drop
are those of ``delete_edges`` (``embedding._splice`` and ``_drop_pairs``).
The working dual is a ``DualGraph`` whose face ids are not canonical,
which the girth search does not see (see ``WorkingDual``), so the one
``shortest_dual_cycle`` searches it after each deletion.

A BundledGraph is drawn out once, before the loop (``explicit``), since
surgery splices single darts.  The loop ends on a dual whose girth meets
the threshold (or that has no cycle).  Only then is the graph built, once,
as g.delete_edges(every deleted edge).  The log hands on the working
dual, girth searched, as ``SurgeryLog.dual``; the spanning step reads it
for the returned graph, ranking its faces canonically (see
``spanning.ThreadGraph``), rather than building, walking and searching
that graph's dual again.  So surgery builds one dual, g's, however often
it iterates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .dual import DualGraph, WorkingDual, geometric_dual, shortest_dual_cycle
from .embedding import EmbeddedGraph, _components, _drop_pairs, _splice, _trace
from .errors import (
    DichotomyViolationError,
    EdgeAbsentError,
    InvalidInputError,
    NotEdgeConnectedError,
    OddEulerDefectError,
    ZeroGenusError,
)
from .flows import edge_connectivity


@dataclass
class SurgeryIteration:
    cycle_edges: tuple[int, ...]
    cycle_length: int
    genus_before: int
    genus_after: int
    components_before: int
    components_after: int


@dataclass
class SurgeryLog:
    """Per-iteration bookkeeping for one girth-raising run.

    ``dual`` is the dual of the returned graph, holding the loop's last
    girth search: g's own dual when the loop deleted nothing, else the
    working dual, whose face ids are not canonical (its ``rank`` orders
    them).  It is not part of the records.
    """

    k: int
    genus: int
    iterations: list = field(default_factory=list)
    dual: DualGraph | None = field(default=None, repr=False, compare=False)

    @property
    def total_deleted(self) -> int:
        return sum(it.cycle_length for it in self.iterations)

    def records(self) -> list[dict]:
        return [asdict(it) for it in self.iterations]


def below_threshold(length: int, k: int, genus: int) -> bool:
    """Exact integer form of length < k / (3 * sqrt(genus))."""
    return 9 * genus * length * length < k * k


class SurgeryState:
    """A graph under surgery: g less the dual cycles deleted so far.

    It holds one mutable copy of g's rotations and one of g's dual
    (``work``, a ``WorkingDual``), g's pair counts less the deleted edges,
    and the genus, the component count and V - E + F of the current graph
    (an isolated vertex counting one face).  ``delete_dual_cycle`` measures
    only what its cycle touched; ``graph`` builds the current graph.  ``d``
    is g's geometric dual when the caller holds it already.  A BundledGraph
    g works on its copies drawn one by one (``explicit``), since a deletion
    splices single darts.
    """

    def __init__(self, g: EmbeddedGraph, d: DualGraph | None = None):
        self.g = g
        g = g.explicit()
        self.rot = dict(g.rotation_next)
        self.work = WorkingDual(geometric_dual(g) if d is None else d)
        self.pairs = g.pair_counts()
        self.genus = g.genus()
        self.components = len(g.components())
        self.euler = 2 * self.components - 2 * self.genus
        self.deleted = []

    def delete_dual_cycle(self, cycle_edges) -> SurgeryIteration:
        """Delete the primal edges of a dual cycle and recheck the dichotomy.

        The rotations lose only the deleted darts (``_splice``, on the
        faces that held them), and only those faces are traced again.  The
        genus after follows by the Euler formula from the new face count,
        and the components from the pair counts, counted again only when a
        pair lost its last edge.  The new graph must have smaller genus or
        more components; a violation means the rotation-level surgery
        disagrees with the surface argument and is a fatal correctness bug.

        Raises, before anything changes, InvalidInputError when an edge id
        repeats or the edges are no dual cycle's, and EdgeAbsentError when
        one is not an edge of the current graph.
        """
        cycle = sorted(cycle_edges)
        if len(set(cycle)) < len(cycle):
            raise InvalidInputError(f"dual cycle {cycle} repeats an edge")
        work = self.work
        faces, face_of = work.faces, work.face_of
        absent = [e for e in cycle
                  if not (0 <= 2 * e < len(face_of) and face_of[2 * e] is not None)]
        if absent:
            raise EdgeAbsentError(f"edges not present: {absent}")
        hit = work.threads_of(cycle)

        gone = {x for e in cycle for x in (2 * e, 2 * e + 1)}
        dead = {face_of[x] for x in gone}
        survivors, bare = _splice(self.rot, gone, [faces[f] for f in dead])
        born = _trace(survivors, self.rot)
        work.replace(cycle, hit, dead, born)

        comps = self.components
        if _drop_pairs(self.pairs, self.g.endpoints, cycle):
            comps = len(_components(self.g.vertex_count, self.pairs))
        self.euler += len(cycle) + len(born) - len(dead) + bare
        defect = 2 * comps - self.euler
        if defect % 2 or defect < 0:
            raise OddEulerDefectError(
                f"V-E+F-2k = {-defect} after surgery: corrupted rotation system")
        step = SurgeryIteration(
            cycle_edges=tuple(cycle),
            cycle_length=len(cycle),
            genus_before=self.genus,
            genus_after=defect // 2,
            components_before=self.components,
            components_after=comps,
        )
        if not (step.genus_after < self.genus or comps > self.components):
            raise DichotomyViolationError(
                f"deleting dual cycle {cycle} kept genus "
                f"{self.genus} and components {self.components}")
        self.genus, self.components = step.genus_after, comps
        self.deleted += cycle
        return step

    def graph(self) -> EmbeddedGraph:
        """The current graph, built as g.delete_edges(every deleted edge)."""
        return self.g.delete_edges(self.deleted) if self.deleted else self.g


def increase_dual_girth(g: EmbeddedGraph, k: int):
    """Delete short dual cycles until girth(H*) >= k / (3*sqrt(genus)).

    The genus in the threshold is measured on g once and stays fixed across
    iterations.  Returns (H, SurgeryLog), the log holding the dual of H.

    Raises InvalidInputError for k < 1, ZeroGenusError for planar inputs
    (the caller should use the planar branch instead) and
    NotEdgeConnectedError when g is less than k-edge-connected.
    """
    if k < 1:
        raise InvalidInputError(f"surgery needs k >= 1, got k = {k}")
    genus = g.genus()
    if genus == 0:
        raise ZeroGenusError("input embedding has genus 0")
    measured = edge_connectivity(g)
    if measured < k:
        raise NotEdgeConnectedError(f"connectivity {measured} < k = {k}")

    log = SurgeryLog(k=k, genus=genus)
    g = g.explicit()  # surgery deletes single copies' darts
    d = geometric_dual(g)
    state = None
    while True:
        found = shortest_dual_cycle(d)
        if found is None or not below_threshold(found[0], k, genus):
            break
        if state is None:
            state = SurgeryState(g, d)
        log.iterations.append(state.delete_dual_cycle(found[1]))
        d = state.work
    h = g
    if state is not None:
        # the graph is built once, and its measured genus must be the
        # working one; its dual is the working dual, searched
        h = state.graph()
        assert h.genus() == state.genus, (
            f"working genus {state.genus}, measured {h.genus()}")
    log.dual = d

    kappa = len(h.components())
    assert kappa * kappa <= 4 * genus, (
        f"component bound violated: {kappa}^2 > 4*{genus}")
    return h, log
