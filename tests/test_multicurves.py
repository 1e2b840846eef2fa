import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvecone import (
    InvalidMulticurve,
    MulticurveGraph,
    Surface,
    VertexDecoration,
    add_curve,
    build_complex,
    canonicalize,
    delete_curve,
    is_stable,
)
from graph_oracle import _connected

D = VertexDecoration


def graph(decs, edges):
    return MulticurveGraph(tuple(D(g, n) for g, n in decs), tuple(edges))


# -- stability ---------------------------------------------------------------


def test_stability_rejects_disk():
    assert not is_stable(D(0, 0), 1)


def test_stability_rejects_marked_disk():
    assert not is_stable(D(0, 1), 1)


def test_stability_accepts_nonseparating_complement():
    # Complement of a nonseparating curve on the twice-marked torus.
    assert is_stable(D(0, 2), 2)


@given(
    g=st.integers(0, 4), n=st.integers(0, 6), deg=st.integers(0, 8)
)
def test_stability_monotone_in_degree(g, n, deg):
    if is_stable(D(g, n), deg):
        assert is_stable(D(g, n), deg + 1)


# -- graph invariants --------------------------------------------------------


def test_surface_reconstruction():
    # Loop plus bridge on the twice-marked torus.
    g = graph([(0, 0), (0, 2)], [(0, 0), (0, 1)])
    assert g.validate() == ([3, 1], [1, 0])
    assert (g.genus, g.marked_points) == (1, 2)
    assert g.betti == 1


def test_validate_rejects_disconnected():
    g = graph([(0, 2), (0, 2), (1, 0)], [(0, 1), (2, 2)])
    with pytest.raises(InvalidMulticurve, match="connected"):
        g.validate()


def test_is_connected_matches_oracle():
    # Random multigraphs, loops, isolated vertices and disconnected ones
    # included, against the oracle's depth-first search.
    rng = random.Random(5)
    answers = set()
    for _ in range(600):
        nv = rng.randint(1, 7)
        edges = [
            tuple(sorted((rng.randrange(nv), rng.randrange(nv))))
            for _ in range(rng.randint(0, 9))
        ]
        expected = _connected(nv, edges)
        assert graph([(0, 0)] * nv, edges).is_connected() == expected
        answers.add(expected)
    assert answers == {True, False}


def test_validate_rejects_unstable_vertex():
    g = graph([(0, 0), (0, 2)], [(0, 1)])
    with pytest.raises(InvalidMulticurve, match="unstable"):
        g.validate()


def test_curve_count_bound_is_automatic():
    # Stability forces |edges| <= 3g - 3 + n for the derived surface:
    # summing 3g_v + n_v + deg_v >= 3 over vertices gives exactly that.
    g = graph([(0, 4)], [(0, 0), (0, 0)])
    g.validate()
    assert len(g.edges) <= Surface(g.genus, g.marked_points).complexity


# -- canonical forms ---------------------------------------------------------


def test_single_loop_trivial_automorphisms():
    cf = canonicalize(graph([(0, 2)], [(0, 0)]))
    assert cf.automorphisms == ((0,),)


def test_parallel_pair_swap_symmetry():
    cf = canonicalize(graph([(0, 1), (0, 1)], [(0, 1), (0, 1)]))
    assert cf.automorphisms == ((0, 1), (1, 0))


def test_theta_graph_symmetries():
    # Pants decomposition type of the closed genus-2 surface with two
    # pieces and three shared curves.  The full automorphism group has
    # order 12 (all edge shuffles times the vertex swap); its action on
    # edges is the symmetric group on the three parallel edges.
    cf = canonicalize(graph([(0, 0), (0, 0)], [(0, 1), (0, 1), (0, 1)]))
    assert len(cf.automorphism_pairs) == 12
    assert sorted(cf.automorphisms) == sorted(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    )


THETA = graph([(0, 0), (0, 0)], [(0, 1), (0, 1), (0, 1)])


@pytest.mark.parametrize(
    "surface", [None, (0, 7), (1, 4), (2, 1), (3, 0)], ids=["theta", "0-7", "1-4", "2-1", "3-0"]
)
def test_theta_pairs_verified_exhaustively(surface):
    # Independent check: every (vertex, edge) bijection pair that
    # preserves decorations and incidence, found by raw search, on the
    # theta graph alone or on every orbit graph of a surface; and a
    # shuffled relabelling gets the same label.
    graphs = [THETA] if surface is None else cut_graphs(*surface)[1:]
    rng = random.Random(0)
    for g in graphs:
        cf = canonicalize(g)
        rep = cf.graph
        nv, ne = len(rep.vertices), len(rep.edges)
        found = {
            (vp, ep)
            for vp in permutations(range(nv))
            if all(rep.vertices[vp[v]] == rep.vertices[v] for v in range(nv))
            for ep in permutations(range(ne))
            if all(
                tuple(sorted((vp[u], vp[w]))) == rep.edges[ep[i]]
                for i, (u, w) in enumerate(rep.edges)
            )
        }
        assert set(cf.automorphism_pairs) == found
        vp = list(range(nv))
        rng.shuffle(vp)
        order = rng.sample(range(ne), ne)
        shuffled = MulticurveGraph(
            tuple(rep.vertices[vp.index(v)] for v in range(nv)),
            tuple((vp[rep.edges[i][0]], vp[rep.edges[i][1]]) for i in order),
        )
        assert canonicalize(shuffled).label == cf.label
    if surface is None:
        assert len(found) == 12


def test_automorphisms_extend_to_isomorphisms():
    # Each stored edge permutation comes from a decoration-preserving
    # graph automorphism by construction of the pair list.
    for decs, edges in [
        ([(0, 0), (0, 0)], [(0, 0), (0, 1), (1, 1)]),
        ([(0, 1), (0, 1)], [(0, 1), (0, 1)]),
        ([(0, 0)], [(0, 0), (0, 0)]),
    ]:
        cf = canonicalize(graph(decs, edges))
        edge_perms = {ep for _vp, ep in cf.automorphism_pairs}
        assert set(cf.automorphisms) == edge_perms
        assert tuple(range(len(edges))) in edge_perms


@st.composite
def valid_graphs(draw):
    pool = [
        ([(0, 2)], [(0, 0)]),
        ([(0, 1), (0, 1)], [(0, 1), (0, 1)]),
        ([(0, 0), (0, 2)], [(0, 0), (0, 1)]),
        ([(0, 0), (0, 0)], [(0, 1), (0, 1), (0, 1)]),
        ([(0, 0), (0, 0)], [(0, 0), (0, 1), (1, 1)]),
        ([(0, 0)], [(0, 0), (0, 0)]),
        ([(0, 2), (0, 1), (0, 2)], [(0, 1), (1, 2)]),
        ([(1, 0), (0, 3)], [(0, 1), (0, 1)]),
    ]
    decs, edges = pool[draw(st.integers(0, len(pool) - 1))]
    nv = len(decs)
    vperm = draw(st.permutations(range(nv)))
    eperm = draw(st.permutations(range(len(edges))))
    relabeled = graph(
        [decs[vperm.index(v)] for v in range(nv)],
        [
            tuple(sorted((vperm[u], vperm[w])))
            for u, w in (edges[eperm[i]] for i in range(len(edges)))
        ],
    )
    return graph(decs, edges), relabeled


@given(valid_graphs())
@settings(max_examples=150)
def test_canonical_label_isomorphism_invariant(pair):
    original, relabeled = pair
    assert canonicalize(original).label == canonicalize(relabeled).label


# -- curve deletion ----------------------------------------------------------


def test_delete_bridge_merges_and_conserves():
    # Dumbbell on the closed genus-2 surface: drop the bridge.
    g = graph([(0, 0), (0, 0)], [(0, 0), (0, 1), (1, 1)])
    out = delete_curve(g, 1)
    out.validate()
    assert out.genus == 2 and out.marked_points == 0
    assert len(out.vertices) == 1 and out.betti == 2


def test_delete_last_curve_returns_empty():
    g = graph([(0, 2)], [(0, 0)])
    assert delete_curve(g, 0) is None


def test_delete_separating_curve_adds_genera():
    g = graph([(1, 0), (1, 0)], [(0, 1)])
    assert delete_curve(g, 0) is None  # single curve: empty system
    g2 = graph([(1, 0), (1, 0), (0, 0)], [(0, 2), (1, 2), (2, 2)])
    out = delete_curve(g2, 0)
    assert out.vertices[0].piece_genus == 1


def test_delete_loop_increments_genus():
    g = graph([(0, 0), (0, 2)], [(0, 0), (0, 1)])
    out = delete_curve(g, 0)
    out.validate()
    assert out.vertices == (VertexDecoration(1, 0), VertexDecoration(0, 2))
    assert out.edges == ((0, 1),)


@given(valid_graphs())
@settings(max_examples=100)
def test_delete_curve_preserves_accounting(pair):
    g, _ = pair
    for e in range(len(g.edges)):
        out = delete_curve(g, e)
        if out is None:
            continue
        out.validate()
        assert out.genus == g.genus
        assert out.marked_points == g.marked_points


# -- curve addition ------------------------------------------------------------

ADD_CURVE_SURFACES = [(0, 7), (1, 4), (2, 1), (3, 0)]


def bare(genus, marked):
    return graph([(genus, marked)], [])


def cut_graphs(genus, marked):
    """The bare surface and the canonical graph of every orbit."""
    return [bare(genus, marked)] + [
        o.graph for o in build_complex(Surface(genus, marked)).orbits
    ]


@pytest.mark.parametrize("genus,marked", ADD_CURVE_SURFACES)
def test_add_curve_outputs_validate_and_delete_back(genus, marked):
    for g in cut_graphs(genus, marked):
        for v in range(len(g.vertices)):
            for h in add_curve(g, v):
                h.validate()
                assert (h.genus, h.marked_points) == (genus, marked)
                back = delete_curve(h, len(h.edges) - 1)
                if not g.edges:
                    assert back is None
                    continue
                assert back == g
                assert canonicalize(back).label == canonicalize(g).label


@pytest.mark.parametrize("genus,marked", ADD_CURVE_SURFACES)
def test_add_curve_inverts_every_deletion(genus, marked):
    # Every curve system is one curve added to each of its faces.
    for g in cut_graphs(genus, marked)[1:]:
        label = canonicalize(g).label
        for e in range(len(g.edges)):
            face = delete_curve(g, e) or bare(genus, marked)
            grown = {
                canonicalize(h).label
                for v in range(len(face.vertices))
                for h in add_curve(face, v)
            }
            assert label in grown


def test_add_curve_splits_loop_ends():
    # The loop on S(1,2) becomes two parallel curves when a separating
    # curve takes one marked point and one loop end to each side.
    grown = add_curve(graph([(0, 2)], [(0, 0)]), 0)
    shapes = {
        (tuple((d.piece_genus, d.piece_marked) for d in h.vertices), h.edges)
        for h in grown
    }
    assert (((0, 1), (0, 1)), ((0, 1), (0, 1))) in shapes
    assert len(grown) == len(shapes)


def test_add_curve_on_pants_is_empty():
    # A pair of pants holds no essential curve.
    theta = graph([(0, 0), (0, 0)], [(0, 1), (0, 1), (0, 1)])
    assert add_curve(theta, 0) == [] and add_curve(theta, 1) == []


# A top graph of S(1,2): two pants joined by two curves.
TWO_PANTS = graph([(0, 1), (0, 1)], [(0, 1), (0, 1)])


@pytest.mark.parametrize("v", [-1, 2, True, 0.0])
def test_add_curve_rejects_out_of_range_vertex(v):
    # True must not be read as vertex 1, nor 0.0 as vertex 0.
    with pytest.raises(InvalidMulticurve, match="no vertex|vertex must be an integer"):
        add_curve(TWO_PANTS, v)


@pytest.mark.parametrize("edge", [-1, 2, True, 1.0, None])
def test_delete_curve_rejects_a_bad_edge(edge):
    with pytest.raises(InvalidMulticurve, match="no edge|edge must be an integer"):
        delete_curve(TWO_PANTS, edge)


def test_decoration_fields_must_be_integers():
    with pytest.raises(InvalidMulticurve, match="must be an integer"):
        D(1.0, 2)
    dec = D(np.int64(1), np.int32(2))
    assert type(dec.piece_genus) is int and dec == D(1, 2)
