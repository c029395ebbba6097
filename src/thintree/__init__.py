"""Thin spanning trees in embedded multigraphs and ATSP rounding.

Public surface re-exported here; see README for the command-line tools.
"""

from .atsp import (
    Tour,
    atsp_approx,
    discretize,
    expand_support_embedding,
    orient_tree,
    round_to_tour,
    symmetrize,
)
from .dual import (
    Cut,
    DualGraph,
    Thread,
    dual_girth,
    find_threads,
    geometric_dual,
)
from .embedding import EmbeddedGraph, build_embedding, expand_parallel
from .flows import edge_connectivity
from .formats import read_atsp, read_emb, write_atsp, write_emb
from .heldkarp import ATSPInstance, HKSolution, solve_held_karp
from .oracle import (
    ThinnessReport,
    brute_force_atsp,
    brute_force_edge_connectivity,
    brute_force_thinness,
    verify_hk_certificate,
    verify_tour,
)
from .pipeline import (
    WeightedThinTree,
    bounded_genus_thin_tree,
    genus_bound,
    weighted_thin_tree,
)
from .spanning import (
    ThinTreeResult,
    alpha,
    select_far_edge_set,
    thin_spanning_tree,
)
from .surgery import (
    SurgeryLog,
    SurgeryState,
    increase_dual_girth,
)

__all__ = [name for name in dir() if not name.startswith("_")]
