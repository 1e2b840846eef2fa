import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvecone
import curvecone.lp as lp
from curvecone import Surface, build_complex, run_verification

sys.path.insert(0, str(Path(__file__).parent))

_SRC = str(Path(curvecone.__file__).resolve().parent.parent)

_CACHE = {}
_REPORTS = {}

# ROADMAP item 1's mesh-aligned instances on self-glued top orbits, as
# (genus, marked, orbit id, p, q): ``distance`` reads 2.0, 1.5 and 2.0
# where the grid reads 1.0, 1.0 and 1.5.  On the S(0,7) instance
# ``reference_search.reference_distance`` with one revisit reads 1.0 too.
SELF_GLUED_DEFECTS = [
    (0, 7, "d3-4108638419", (1, 5, 6, 3), (1, 1, 5, 4)),
    (2, 1, "d3-b6dd2e2085", (2, 5, 1, 2), (3, 3, 1, 5)),
    (2, 1, "d3-b6dd2e2085", (1, 1, 1, 2), (4, 5, 2, 2)),
]

# ROADMAP item 1's uniform instances on S(0,7), as (p, q), each an
# (orbit id, canonical coordinates) pair: pair 21 of ``default_rng([0, 7])``
# and pair 11 of ``default_rng([1, 0, 7])``.  ``distance`` reads
# 3.363913727352971 and 3.0627249899326943, where
# ``reference_search.reference_distance`` with one revisit reads
# 3.090114644091873 and 2.878163299974584.
UNIFORM_S07_DEFECTS = [
    (
        ("d3-4108638419",
         (1.397215614036771, 4.394872353150572, 7.225393651547176, 2.846981106736454)),
        ("d2-d5388589e7", (2.555523578306218, 1.0451643633634295, 3.8808463479694866)),
    ),
    (
        ("d3-4108638419",
         (0.4648207794807819, 2.88754505046299, 6.9164999304030506, 5.756326599949168)),
        ("d1-6c857cda53", (3.2603499864597527, 3.237904929402399)),
    ),
]

# Entries of ``transits(X, X)`` with ``face_id != X``, summed over the
# top orbits X: the self-gluings that are no symmetry of X, which the
# defects above run through.  Every surface of complexity 5 and 6 has
# some; the surfaces left out, all of complexity 4 or less, have none.
SELF_GLUED_CENSUS = {
    (0, 7): 4, (2, 1): 20, (1, 4): 4,
    (0, 8): 28, (1, 5): 27, (2, 2): 109, (3, 0): 668,
    (0, 9): 51, (1, 6): 137, (2, 3): 510,
}


def complex_for(genus, marked):
    key = (genus, marked)
    if key not in _CACHE:
        _CACHE[key] = build_complex(Surface(genus, marked))
    return _CACHE[key]


def report_for(genus, marked, mesh=None):
    """``run_verification(complex_for(genus, marked), seed=0, mesh=mesh)``,
    run once per session and shared by the tests that read it."""
    key = (genus, marked, mesh)
    if key not in _REPORTS:
        _REPORTS[key] = run_verification(complex_for(genus, marked), seed=0, mesh=mesh)
    return _REPORTS[key]


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


def run_python(args, timeout, *, address_space=None):
    """Run ``python *args`` in a child process that imports this
    checkout's ``curvecone``, so that a hang fails the test at
    ``timeout`` seconds instead of stalling the suite.  ``address_space``
    caps the child's virtual memory in bytes, so that a runaway
    allocation fails in the child instead of exhausting the host."""

    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=None if address_space is None else limit,
    )


def run_cli(argv, timeout, **kwargs):
    """``python -m curvecone.cli *argv`` through :func:`run_python`."""
    return run_python(["-m", "curvecone.cli", *argv], timeout, **kwargs)
