"""Shared builders for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import thintree
from thintree.embedding import EmbeddedGraph
from thintree.genlab import prism_graph


def add_edge(g: EmbeddedGraph, u: int, v: int, pos_u: int = 0, pos_v: int = 0):
    """New edge between u and v, darts spliced in after the rotation
    positions pos_u / pos_v.  Used to build handle instances by hand."""
    e = max(g.edges()) + 1
    owner = dict(g.dart_owner)
    owner[2 * e] = u
    owner[2 * e + 1] = v
    rot = dict(g.rotation_next)
    du = g.darts_at(u)[pos_u]
    dv = g.darts_at(v)[pos_v]
    rot[2 * e] = rot[du]
    rot[du] = 2 * e
    rot[2 * e + 1] = rot[dv]
    rot[dv] = 2 * e + 1
    cost = dict(g.edge_cost) if g.edge_cost else None
    if cost is not None:
        cost[e] = min(cost.values())
    return EmbeddedGraph(g.vertex_count, owner, rot, cost)


@pytest.fixture
def cube():
    return prism_graph(4)


@pytest.fixture
def cli_env():
    """Environment for a ``python -m thintree`` subprocess.

    ``os.environ`` with the absolute directory that holds the imported
    ``thintree`` package put first on ``PYTHONPATH`` (existing entries kept
    after it), so the child imports the same code whatever its working
    directory: a relative entry such as ``src`` does not resolve from a
    temp directory."""
    root = str(Path(thintree.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = root + os.pathsep + inherited if inherited else root
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def oracle_checked_held_karp(monkeypatch, request):
    """Check every Held-Karp solve of the test with the independent
    ``oracle.verify_hk_certificate``: the one ``atsp_approx`` calls, and the
    requesting module's ``solve_held_karp`` where it imports one, are
    wrapped.  Tier-1 modules that solve Held-Karp in-process use it."""
    from thintree import atsp, heldkarp, oracle

    def checked(inst):
        sol = heldkarp.solve_held_karp(inst)
        # the duals price the instance's integer costs, in units of 1/scale
        oracle.verify_hk_certificate(inst.cost, sol.x, sol.duals,
                                     sol.objective * inst.scale)
        return sol

    monkeypatch.setattr(atsp, "solve_held_karp", checked)
    if hasattr(request.module, "solve_held_karp"):
        monkeypatch.setattr(request.module, "solve_held_karp", checked)
