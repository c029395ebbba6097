"""Raising dual girth by deleting short dual cycles.

Deleting the primal edges of a dual cycle cuts the surface along that cycle
and caps the two sides, so each deletion either lowers the genus or splits a
component.  Repeating while a dual cycle shorter than k/(3*sqrt(genus))
exists leaves at most 2*sqrt(genus) components.  The square root never needs
floating point: ``length < k / (3*sqrt(g))`` is evaluated as
``9*g*length^2 < k^2`` in integers.

Each iteration builds the dual of the current graph and searches it for its
shortest cycle.  The loop ends on a dual whose girth meets the threshold (or
that has no cycle), built from the very graph it returns; graphs are
immutable, so that dual stays exact.  The log hands it on as
``SurgeryLog.dual`` with its girth search, and the spanning step that builds
a tree on the returned graph reads both rather than building and searching
them again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .dual import DualGraph, geometric_dual, shortest_dual_cycle
from .embedding import EmbeddedGraph
from .errors import (
    DichotomyViolationError,
    InvalidInputError,
    NotEdgeConnectedError,
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

    ``dual`` is the dual of the returned graph, searched for its girth by
    the loop's last check; it is not part of the records.
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


def delete_dual_cycle(g: EmbeddedGraph, cycle_edges):
    """Delete the primal edges of a dual cycle and recheck the dichotomy.

    Returns (H, the SurgeryIteration measured on g and H).  The new graph
    must have smaller genus or more components; a violation means the
    rotation-level surgery disagrees with the surface argument and is a
    fatal correctness bug.
    """
    genus_before = g.genus()
    comps_before = len(g.components())
    h = g.delete_edges(cycle_edges)
    step = SurgeryIteration(
        cycle_edges=tuple(sorted(cycle_edges)),
        cycle_length=len(cycle_edges),
        genus_before=genus_before,
        genus_after=h.genus(),
        components_before=comps_before,
        components_after=len(h.components()),
    )
    if not (step.genus_after < genus_before or step.components_after > comps_before):
        raise DichotomyViolationError(
            f"deleting dual cycle {sorted(cycle_edges)} kept genus "
            f"{genus_before} and components {comps_before}")
    return h, step


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
    h = g
    while True:
        d = geometric_dual(h)
        found = shortest_dual_cycle(d)
        if found is None:
            break
        length, cycle = found
        if not below_threshold(length, k, genus):
            break
        h, step = delete_dual_cycle(h, cycle)
        log.iterations.append(step)
    log.dual = d

    kappa = len(h.components())
    assert kappa * kappa <= 4 * genus, (
        f"component bound violated: {kappa}^2 > 4*{genus}")
    return h, log
