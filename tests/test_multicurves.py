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
    g.validate()
    assert (g.genus, g.marked_points) == (1, 2)
    assert g.betti == 1
    assert g.degrees() == (3, 1)


def test_validate_rejects_disconnected():
    g = graph([(0, 2), (0, 2), (1, 0)], [(0, 1), (2, 2)])
    with pytest.raises(InvalidMulticurve, match="connected"):
        g.validate()


def test_validate_rejects_unstable_vertex():
    g = graph([(0, 0), (0, 2)], [(0, 1)])
    with pytest.raises(InvalidMulticurve, match="unstable"):
        g.validate()


def test_curve_count_bound_is_automatic():
    # Stability forces |edges| <= 3g - 3 + n for the derived surface:
    # summing 3g_v + n_v + deg_v >= 3 over vertices gives exactly that.
    g = graph([(0, 4)], [(0, 0), (0, 0)])
    g.validate()
    assert len(g.edges) <= g.surface().complexity


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


def test_theta_pairs_verified_exhaustively():
    # Independent check: every (vertex, edge) bijection pair that
    # preserves decorations and incidence, found by raw search.
    from itertools import permutations

    g = graph([(0, 0), (0, 0)], [(0, 1), (0, 1), (0, 1)])
    found = set()
    for vp in permutations(range(2)):
        for ep in permutations(range(3)):
            ok = all(
                tuple(sorted((vp[u], vp[w]))) == g.edges[ep[i]]
                for i, (u, w) in enumerate(g.edges)
            )
            if ok:
                found.add((vp, ep))
    cf = canonicalize(g)
    assert set(cf.automorphism_pairs) == found
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
                assert h.surface() == Surface(genus, marked)
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
