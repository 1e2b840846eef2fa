import sys
from pathlib import Path

import pytest

import curvecone.lp as lp
from curvecone import Surface, build_complex

sys.path.insert(0, str(Path(__file__).parent))

_CACHE = {}

# ROADMAP item 1's mesh-aligned instances on self-glued top orbits, as
# (genus, marked, orbit id, p, q): ``distance`` reads 2.0, 1.5 and 2.0
# where the grid reads 1.0, 1.0 and 1.5.  On the S(0,7) instance
# ``reference_search.reference_distance`` with one revisit reads 1.0 too.
SELF_GLUED_DEFECTS = [
    (0, 7, "d3-4108638419", (1, 5, 6, 3), (1, 1, 5, 4)),
    (2, 1, "d3-b6dd2e2085", (2, 5, 1, 2), (3, 3, 1, 5)),
    (2, 1, "d3-b6dd2e2085", (1, 1, 1, 2), (4, 5, 2, 2)),
]

# Entries of ``transits(X, X)`` with ``face_id != X``, summed over the
# top orbits X: the self-gluings that are no symmetry of X, which the
# defects above run through.  Surfaces left out have none.
SELF_GLUED_CENSUS = {(0, 7): 4, (2, 1): 20, (1, 4): 4}


def complex_for(genus, marked):
    key = (genus, marked)
    if key not in _CACHE:
        _CACHE[key] = build_complex(Surface(genus, marked))
    return _CACHE[key]


@pytest.fixture(scope="session")
def s12():
    return complex_for(1, 2)


@pytest.fixture(scope="session")
def s2():
    return complex_for(2, 0)


@pytest.fixture(scope="session")
def s05():
    return complex_for(0, 5)


@pytest.fixture(scope="session")
def s11():
    return complex_for(1, 1)


@pytest.fixture(scope="session")
def s04():
    return complex_for(0, 4)


@pytest.fixture
def empty_plan_store(monkeypatch):
    """An empty simplex replay store for one test, the process's store
    coming back afterwards, so that test order cannot decide whether a
    program is solved on the tableau or replayed."""
    monkeypatch.setattr(lp, "_STORE", lp._PlanStore())


def orbit_by_structure(cx, vertices, edges):
    """Find an orbit by its canonical decorated-graph content."""
    for o in cx.orbits:
        decs = tuple((d.piece_genus, d.piece_marked) for d in o.graph.vertices)
        if decs == tuple(vertices) and o.graph.edges == tuple(edges):
            return o
    raise AssertionError(f"no orbit with vertices {vertices} edges {edges}")
