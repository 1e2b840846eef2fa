import functools
import hashlib
import json
from itertools import combinations

import numpy as np
import pytest

import curvecone.multicurves as multicurves
import curvecone.quotient as quotient
from conftest import complex_for, orbit_by_structure
from curvecone import (
    InvalidMulticurve,
    Surface,
    build_complex,
    complex_from_json,
    complex_to_dot,
    complex_to_json,
)
from curvecone.multicurves import canonicalize, delete_curve
from curvecone.quotient import FaceMap, QuotientComplex, orbit_from_canonical
from graph_oracle import count_classes
from test_acceptance import SUPPORTED


# -- enumeration against documented examples ----------------------------------


def test_orbits_of_dim_takes_an_integer():
    # orbits_of_dim(True) used to list the one-curve orbits.
    cx = complex_for(1, 2)
    assert cx.orbits_of_dim(np.int64(1)) == cx.orbits_of_dim(1)
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="dim must be an integer"):
            cx.orbits_of_dim(bad)


def test_vertex_orbit_count_matches_the_first_level():
    # The count a complex file's dimension-0 entries must meet before the
    # build starts: the single curves add_curve makes on the bare surface,
    # up to canonical form, and the built complex's vertex orbits.
    for genus in range(12):
        for marked in range(12):
            if 3 * genus - 3 + marked < 1:
                continue
            surface = Surface(genus, marked)
            bare = multicurves.MulticurveGraph(
                (multicurves.VertexDecoration(genus, marked),), ()
            )
            labels = {canonicalize(g).label for g in multicurves.add_curve(bare, 0)}
            assert quotient._vertex_orbit_count(surface) == len(labels), surface
    for genus, marked in [*SUPPORTED, (3, 0), (2, 2), (1, 5), (0, 8)]:
        cx = complex_for(genus, marked)
        assert quotient._vertex_orbit_count(cx.surface) == len(cx.orbits_of_dim(0))


def test_build_without_a_payload_counts_nothing(monkeypatch):
    # The count guards a payload's build only; a plain build skips it.
    def no_count(surface):
        raise AssertionError("counted the vertex orbits of a plain build")

    monkeypatch.setattr(quotient, "_vertex_orbit_count", no_count)
    assert build_complex(Surface(1, 2)).orbit_counts() == {0: 2, 1: 2}


def test_s12_vertex_orbits():
    orbits = complex_for(1, 2).orbits_of_dim(0)
    assert len(orbits) == 2
    shapes = sorted(
        (len(o.graph.vertices), o.graph.edges) for o in orbits
    )
    # Nonseparating: one piece with a loop; separating: two pieces joined.
    assert shapes == [(1, ((0, 0),)), (2, ((0, 1),))]


def test_s12_edge_orbits():
    orbits = complex_for(1, 2).orbits_of_dim(1)
    assert len(orbits) == 2
    by_size = {len(o.graph.vertices): o for o in orbits}
    # Parallel pair = nonseparating/nonseparating, loop+bridge = sep/nonsep.
    assert by_size[2].graph.edges in (((0, 1), (0, 1)), ((0, 0), (0, 1)))


def test_s2_pants_types():
    orbits = complex_for(2, 0).orbits_of_dim(2)
    assert len(orbits) == 2
    edge_sets = sorted(o.graph.edges for o in orbits)
    assert edge_sets == [
        ((0, 0), (0, 1), (1, 1)),  # dumbbell
        ((0, 1), (0, 1), (0, 1)),  # theta
    ]


def test_s04_single_type():
    orbits = complex_for(0, 4).orbits_of_dim(0)
    assert len(orbits) == 1
    (o,) = orbits
    assert tuple(
        (d.piece_genus, d.piece_marked) for d in o.graph.vertices
    ) == ((0, 2), (0, 2))


@pytest.mark.parametrize(
    "genus,marked,k",
    [
        (2, 0, 1), (2, 0, 2), (2, 0, 3),
        (0, 5, 1), (0, 5, 2),
        (1, 2, 1), (1, 2, 2),
        (1, 1, 1), (0, 4, 1),
        (1, 3, 1), (1, 3, 2), (1, 3, 3),
        (0, 6, 1), (0, 6, 2), (0, 6, 3),
        (1, 4, 3), (1, 4, 4),
        (0, 7, 4), (2, 1, 4),
        (2, 2, 2), (2, 2, 3), (2, 2, 4), (1, 5, 3),
        (0, 8, 3), (0, 8, 4), (3, 0, 2), (3, 0, 3),
        (2, 2, 5),
    ],
)
def test_counts_match_bruteforce_oracle(genus, marked, k):
    expected = count_classes(genus, marked, k)
    got = len(complex_for(genus, marked).orbits_of_dim(k - 1))
    assert got == expected


# -- assembled complexes -------------------------------------------------------


def test_s12_complex_shape(s12):
    assert s12.orbit_counts() == {0: 2, 1: 2}
    assert len(s12.face_maps) == 4
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    targets = [fm.target for fm in s12.face_maps if fm.source == nn.id]
    assert len(targets) == 2 and len(set(targets)) == 1


def test_s11_single_vertex(s11):
    assert s11.orbit_counts() == {0: 1}
    assert s11.max_dim == 0
    assert not s11.face_maps


def test_maximal_orbits_are_pants(s2):
    for mid in s2.maximal_ids:
        graph = s2.orbit(mid).graph
        degs = graph.validate()[0]
        for v, dec in enumerate(graph.vertices):
            assert dec.piece_genus == 0
            assert dec.piece_marked + degs[v] == 3


def test_every_orbit_is_a_face_of_maximal(s2):
    covered = set(s2.maximal_ids)
    for mid in s2.maximal_ids:
        for fid, _ in s2.subfaces(mid)[1:]:
            covered.add(fid)
    assert covered == {o.id for o in s2.orbits}


def test_face_diamond_property(s2):
    # Deleting the same edge set in any order reaches the same face orbit.
    from itertools import permutations

    for mid in s2.maximal_ids:
        orbit = s2.orbit(mid)
        k = orbit.n_edges
        for keep in range(k):
            targets = set()
            for order in permutations(e for e in range(k) if e != keep):
                cur, alive = mid, dict.fromkeys(order)
                alive = {e: e for e in order}
                for victim in order:
                    fm = s2.face(cur, alive[victim])
                    inj = dict(fm.edge_injection)
                    alive = {
                        e: inj[c] for e, c in alive.items() if e != victim
                    }
                    cur = fm.target
                targets.add(cur)
            assert len(targets) == 1
    sub = s2.subfaces(s2.maximal_ids[0])
    assert sub[0] is None
    assert all(len(iota) == mask.bit_count() for mask, (_t, iota) in enumerate(sub[1:], 1))


def test_face_map_injections_structurally_valid(s12, s2):
    for cx in (s12, s2):
        for fm in cx.face_maps:
            src = cx.orbit(fm.source)
            dst = cx.orbit(fm.target)
            assert dst.dim == src.dim - 1
            survivors = [s for s, _t in fm.edge_injection]
            targets = [t for _s, t in fm.edge_injection]
            assert sorted(survivors) == [
                e for e in range(src.n_edges) if e != fm.deleted_edge
            ]
            assert sorted(targets) == list(range(dst.n_edges))


def test_automorphism_face_compatibility(s12, s2):
    for cx in (s12, s2):
        for orbit in cx.orbits:
            if orbit.n_edges < 2:
                continue
            for a in orbit.automorphisms:
                for e in range(orbit.n_edges):
                    assert (
                        cx.face(orbit.id, e).target
                        == cx.face(orbit.id, a[e]).target
                    )


def test_dimension_formula_supported_range():
    for genus, marked in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0)]:
        cx = complex_for(genus, marked)
        assert cx.max_dim == cx.surface.curve_complex_dim


# -- embeddings and transits ---------------------------------------------------


def test_s12_embeddings(s12):
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    nu = orbit_by_structure(s12, [(0, 2)], [(0, 0)])
    sigma = orbit_by_structure(s12, [(0, 2), (1, 0)], [(0, 1)])
    assert s12.embeddings(nu.id, nn.id) == ((0,), (1,))
    assert s12.embeddings(nu.id, sn.id) == ((0,),)
    assert s12.embeddings(sigma.id, sn.id) == ((1,),)
    assert s12.embeddings(sigma.id, nn.id) == ()
    assert len(s12.transits(sn.id, nn.id)) == 2


@pytest.mark.parametrize("genus, marked", [(1, 3), (0, 7), (2, 1)])
def test_embeddings_mod_host_cache_matches_the_formula(genus, marked):
    # A fresh complex, so the first ask fills the cache and the second
    # reads it; both must give the least image per host-symmetry orbit.
    cx = build_complex(Surface(genus, marked))
    for _ in range(2):
        for face in cx.orbits:
            for host in cx.maximal_ids:
                auts = cx.orbit(host).automorphisms
                embs = cx.embeddings(face.id, host)
                want = sorted({min(tuple(b[x] for x in e) for b in auts) for e in embs})
                assert list(cx.embeddings_mod_host(face.id, host)) == want


@pytest.mark.parametrize("vec", [[1.0], [1.0, 2.0, 3.0]])
def test_reduce_checks_the_vector_length(s12, vec):
    # A short vector must not read its missing entries as zeros.
    top = s12.maximal_ids[0]
    with pytest.raises(ValueError, match=f"length {len(vec)} for orbit {top} with 2 edges"):
        s12.reduce(top, vec)


def test_face_checks_the_edge(s12):
    top = s12.maximal_ids[0]
    with pytest.raises(ValueError, match="edge must be an integer"):
        s12.face(top, True)
    with pytest.raises(KeyError, match=f"no face of orbit '{top}' at edge 5"):
        s12.face(top, 5)
    assert s12.face(top, 1).deleted_edge == 1


def test_transit_domination(s2):
    # Between theta and dumbbell the one-curve transits all factor
    # through the shared two-curve face, so only the larger face remains.
    theta, dumbbell = sorted(s2.maximal_ids)
    for t in s2.transits(theta, dumbbell):
        assert len(t.into_source) == 2


@functools.cache
def reference_subfaces(cx, orbit_id):
    """Face table by walking face maps all the way down for each subset,
    deleting the lowest-numbered spare edge at every step; the whole edge
    set, where no edge is deleted, comes last."""
    k = cx.orbit(orbit_id).n_edges
    table = {}
    for size in range(1, k + 1):
        for keep in combinations(range(k), size):
            cur_id = orbit_id
            cur_of = {f: f for f in keep}
            while True:
                kept_now = set(cur_of.values())
                k_cur = cx.orbit(cur_id).n_edges
                spare = [e for e in range(k_cur) if e not in kept_now]
                if not spare:
                    break
                fm = cx.face(cur_id, spare[0])
                inj = dict(fm.edge_injection)
                cur_of = {f: inj[c] for f, c in cur_of.items()}
                cur_id = fm.target
            iota = [0] * len(keep)
            for f, c in cur_of.items():
                iota[c] = f
            table[frozenset(keep)] = (cur_id, tuple(iota))
    return table


@functools.cache
def reference_embeddings(cx, face_id, host_id):
    """Embeddings by scanning the host's whole face table; the host's
    own symmetries when the two coincide."""
    if face_id == host_id:
        return cx.orbit(host_id).automorphisms
    face_auts = cx.orbit(face_id).automorphisms
    found = set()
    for fid, iota in reference_subfaces(cx, host_id).values():
        if fid == face_id:
            for a in face_auts:
                found.add(tuple(iota[a[c]] for c in range(len(a))))
    return tuple(sorted(found))


GLUING_SURFACES = [(3, 0), (1, 4), (2, 1), (0, 8), (2, 2), (1, 5)]


@pytest.mark.parametrize("genus,marked", GLUING_SURFACES)
def test_gluing_tables_match_walk_reference(genus, marked):
    cx = complex_for(genus, marked)
    for o in cx.orbits:
        table = cx.subfaces(o.id)
        reference = reference_subfaces(cx, o.id)
        assert len(table) == 2 ** o.n_edges and table[0] is None
        for keep, entry in reference.items():
            assert table[sum(1 << e for e in keep)] == entry
        for host in cx.orbits:
            assert cx.embeddings(o.id, host.id) == reference_embeddings(cx, o.id, host.id)


@pytest.mark.parametrize("genus,marked", SUPPORTED + [(0, 8), (2, 2), (1, 5)])
def test_reduce_matches_walk_reference(genus, marked):
    # An integer vector with exactly the support ``keep`` reduces to the
    # face the walk reaches, at the least image over its symmetries; the
    # two vectors give distinct and repeated entries.
    cx = complex_for(genus, marked)
    for o in cx.orbits:
        k = o.n_edges
        for keep, (fid, iota) in reference_subfaces(cx, o.id).items():
            for values in ([e + 1 for e in range(k)], [1 + e % 2 for e in range(k)]):
                vec = [values[e] if e in keep else 0 for e in range(k)]
                least = min(
                    tuple(vec[iota[c]] for c in a) for a in cx.orbit(fid).automorphisms
                )
                assert cx.reduce(o.id, vec) == (fid, least)


def reference_transits(cx, source_id, target_id):
    """Transits with dominance tested by trying every embedding of the
    smaller shared face into the larger one."""
    raw = set()
    for fid_a, iota_a in reference_subfaces(cx, source_id).values():
        for fid_b, iota_b in reference_subfaces(cx, target_id).values():
            if fid_a != fid_b or (fid_a == source_id and source_id != target_id):
                continue
            for a in cx.orbit(fid_a).automorphisms:
                raw.add((fid_a, tuple(iota_a[a[c]] for c in range(len(a))), iota_b))
    candidates = sorted(raw)

    def dominated(fid, into_s, into_t):
        return any(
            all(
                into_s2[j[c]] == into_s[c] and into_t2[j[c]] == into_t[c]
                for c in range(len(into_s))
            )
            for fid2, into_s2, into_t2 in candidates
            if len(into_s2) > len(into_s)
            for j in reference_embeddings(cx, fid, fid2)
        )

    return tuple(c for c in candidates if not dominated(*c))


@pytest.mark.parametrize(
    "genus,marked", SUPPORTED + [(0, 8), (2, 2), (1, 5)]
)
def test_transits_match_embedding_reference(genus, marked):
    cx = complex_for(genus, marked)
    for a in cx.maximal_ids:
        for b in cx.maximal_ids:
            got = tuple(
                (t.face_id, t.into_source, t.into_target) for t in cx.transits(a, b)
            )
            assert got == reference_transits(cx, a, b)


# sha256 of complex_to_json and of the full top-pair transit table, both
# recorded before the mirror rule and the add-curve and canonicalize
# speed-ups; any change to an orbit, face map or transit moves them.
BUILD_DIGESTS = {
    (1, 2): (
        "acc31fd66e93cdf953ecc87f6f16f2f91d2df3d4997c61ba833d424cb9544b88",
        "784912d0951981c5b9c9bb15fb97d58960e13e570a851c7e6d1774a894c44121",
    ),
    (2, 0): (
        "cfb3837cf73d3a59f6e82a922536ee18017ee12c06f0ce7478f97e9db055fb8c",
        "7b03ccffd038406a3d5acf4ec88f93d2bdb781a47abfd4b9c7d63a5505ecf2ed",
    ),
    (1, 3): (
        "7af096e5924dafce552ad09595d98b561a1b8ddf6083717c0293468cc3641be1",
        "a0a3123d86c629af1a0b66dc4c69c79e1f75a131ffd02da248eef1e8d9e82ae7",
    ),
    (0, 7): (
        "67628255b468f1eeed0450679bf895eb6279f1de9f9bc7031b9e761fd73e09bf",
        "d7129efef20a0a8715a99a9a2acf2024be5f1241197f47b19ba9c1f3428d1041",
    ),
    (2, 1): (
        "834473c28d1372b6324bb1e05acf3d905789e6edfe0ded63dacb68977728889e",
        "3e5edcb6e0a1bdc131aee05aa2b3617b23fef4bf65cf94a38c5142fd92bfd2bd",
    ),
    (1, 4): (
        "337903c7059815533f421bf218d0b99959b586d9434bd04e1f3812f4bb7d78f6",
        "aa55b332d7542c2e1a7f0431afc6a3dca56e8fb1a5e7edb0efac90d47827b6e5",
    ),
    (0, 8): (
        "6965b6dde40b44b20a69952480045c2a183886c1f79e8c9edfcdb19990f9f843",
        "29c9cfef397a05da503e5b8fec7724fb0eb0b263cda532bb1160339727d22813",
    ),
    (2, 2): (
        "1375b37c1d29a5d19c89e547a05354cf3b0ac3311cd9080bb4946ac093b8b768",
        "66ae67e8e7182b7295760f0e02d7d301021650bf9140d20c5575b17a6f309921",
    ),
    (1, 5): (
        "b30dfbe0bafac0915ee448f7f5ae36a08b4eb2ac35d293caafddeb0db4b773a6",
        "2808e785a07dc86c622bbab54822ca77f1643417e05a5f1ae5f90c6606d57d0d",
    ),
    (3, 0): (
        "c2b0196d14d28b3b9cf643ea96ac874a741e64556393f6d3b6acce3f369dad23",
        "fe3a006252dc50c1024fc0e9df86fea26e5c069ab3aa89f4d06702c70bb23d44",
    ),
    (2, 3): (
        "c8d41ef0893d74b00108b00311a8f220ab091f348b5899b769edb656ab0c427b",
        "955f3c033521f8d56f19f981a9d0866a1291a30e9d99daca8c79b9607938f4f1",
    ),
    (3, 1): (
        "db466631f04bcbde87acd91680d42e6fcc222f2b39e27465d8afc1c2591804d3",
        "e94a1460093c746a99b3041c699ecd94d21f6c45ba5d4b75b0a4c8d845ffbf7c",
    ),
    # Complexity 7: 682 orbits and 107 437 top-pair transits, recorded
    # before the face table was indexed by edge-subset mask.
    (2, 4): (
        "9b76d6a27d5531dbf70fcc24db05e0c8ae4423efc51d179ff8449c5573939c1c",
        "9ecfadbbadc21fe3091c2dfb6b658b058fe8badbd5c628fff8a519ea5ac5b871",
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def transit_table_json(cx):
    """Every top-pair transit as [face_id, into_source, into_target], in
    table order, filled row by row."""
    return json.dumps([
        [t.face_id, t.into_source, t.into_target]
        for a in cx.maximal_ids
        for b in cx.maximal_ids
        for t in cx.transits(a, b)
    ])


@pytest.mark.parametrize("genus,marked", list(BUILD_DIGESTS))
def test_build_outputs_match_recorded_digests(genus, marked):
    cx = build_complex(Surface(genus, marked))
    got = (sha256(complex_to_json(cx)), sha256(transit_table_json(cx)))
    assert got == BUILD_DIGESTS[(genus, marked)]


@pytest.mark.parametrize(
    "genus,marked,every",
    [(1, 3, True), (0, 7, False), (2, 1, False), (1, 4, False), (2, 2, False),
     (1, 5, False), (3, 0, False)],
)
def test_mirrored_transits_equal_direct_ones(genus, marked, every):
    # transits(a, b) for a > b is the mirror of transits(b, a); each is
    # compared with the table computed directly.  On S(1,3) every orbit
    # pair is tried: a larger orbit can carry the whole of a smaller one.
    cx = build_complex(Surface(genus, marked))
    ids = [o.id for o in cx.orbits] if every else cx.maximal_ids
    for a in ids:
        for b in ids:
            if a > b:
                assert cx.transits(a, b) == cx._direct_transits(a, b)


def reference_face_maps(orbits):
    """Face maps by canonicalizing every curve deletion of every orbit,
    in the complex's orbit order."""
    ids = {o.id for o in orbits}
    face_maps = []
    for orbit in orbits:
        k = orbit.n_edges
        if k < 2:
            continue
        for e in range(k):
            cf = canonicalize(delete_curve(orbit.graph, e))
            target = orbit_from_canonical(cf)
            if target.id not in ids:
                raise InvalidMulticurve(
                    f"face of {orbit.id} (delete {e}) missing from enumeration"
                )
            injection = tuple(
                (s, cf.edge_order[s - (s > e)]) for s in range(k) if s != e
            )
            face_maps.append(FaceMap(orbit.id, e, target.id, injection))
    return tuple(face_maps)


# Every surface through complexity 6, and S(3,1) at complexity 7; S(2,4)
# would take seconds.
FACE_MAP_SURFACES = (
    [(0, n) for n in range(4, 10)]
    + [(1, n) for n in range(1, 7)]
    + [(2, n) for n in range(0, 4)]
    + [(3, 0), (3, 1)]
)


@pytest.mark.parametrize("genus,marked", FACE_MAP_SURFACES)
def test_face_maps_match_canonicalized_deletions(genus, marked):
    surface = Surface(genus, marked)
    cx = build_complex(surface)
    reference = reference_face_maps(cx.orbits)
    assert cx.face_maps == reference
    assert complex_to_json(cx) == complex_to_json(
        QuotientComplex(surface, cx.orbits, reference)
    )


def test_face_maps_need_a_step_per_edge_orbit(s2):
    cf = canonicalize(s2.orbit(s2.maximal_ids[0]).graph)
    orbit = orbit_from_canonical(cf)
    with pytest.raises(InvalidMulticurve, match="missing from enumeration"):
        quotient._face_maps(orbit, cf.automorphism_pairs, {})


@pytest.mark.parametrize(
    "genus,marked,calls", [(0, 8, 81), (2, 2, 140), (1, 5, 207)]
)
def test_build_canonicalizes_once_per_closure_step(monkeypatch, genus, marked, calls):
    # The closure canonicalizes each graph add_curve returns; the face
    # maps are read off those steps and canonicalize nothing more.
    count = 0

    def counting(graph):
        nonlocal count
        count += 1
        return canonicalize(graph)

    monkeypatch.setattr(quotient, "canonicalize", counting)
    build_complex(Surface(genus, marked))
    assert count == calls


@pytest.mark.parametrize(
    "genus,marked,groups", [(0, 8, 31), (2, 2, 59), (1, 5, 75)]
)
def test_build_computes_one_symmetry_group_per_orbit(monkeypatch, genus, marked, groups):
    # canonicalize only finds the numberings; the symmetry group is
    # derived once, for the first form of each label the closure keeps.
    count = 0
    real = multicurves._automorphism_pairs

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(multicurves, "_automorphism_pairs", counting)
    cx = build_complex(Surface(genus, marked))
    assert count == groups == len(cx.orbits)


@pytest.mark.parametrize("genus,marked", FACE_MAP_SURFACES)
def test_orbit_symmetries_match_fresh_canonical_forms(monkeypatch, genus, marked):
    # The closure keeps the first form of each label, canonicalized from
    # whichever graph reached it first; its symmetries must be those of
    # the representative canonicalized afresh.
    kept = []

    def capturing(cf):
        kept.append(cf)
        return orbit_from_canonical(cf)

    monkeypatch.setattr(quotient, "orbit_from_canonical", capturing)
    cx = build_complex(Surface(genus, marked))
    assert len(kept) == len(cx.orbits)
    for cf in kept:
        fresh = canonicalize(cf.graph)
        assert cf.automorphism_pairs == fresh.automorphism_pairs
        assert cf.automorphisms == fresh.automorphisms
        assert cx.orbit(orbit_from_canonical(cf).id).automorphisms == fresh.automorphisms


def test_invariants_check_every_face_map():
    # Face coverage used to be checked level by level, against the maps
    # out of each level only, so a map dropping two curves went unseen.
    cx = complex_for(1, 3)
    top, vertex = cx.maximal_ids[0], cx.orbits_of_dim(0)[0].id
    skip = FaceMap(top, 0, vertex, ((1, 0),))
    with pytest.raises(InvalidMulticurve, match="is not a facet"):
        QuotientComplex(cx.surface, cx.orbits, (*cx.face_maps, skip)).check_invariants()
    kept = [fm for fm in cx.face_maps if fm.target != vertex]
    with pytest.raises(InvalidMulticurve, match=f"{vertex}.*extend to no larger curve system"):
        QuotientComplex(cx.surface, cx.orbits, kept).check_invariants()


def test_genus3_closed_builds():
    # The five top orbits are the five pants-decomposition types of the
    # closed genus-3 surface.
    cx = build_complex(Surface(3, 0))
    cx.check_invariants()
    assert cx.orbit_counts() == {0: 2, 1: 5, 2: 9, 3: 12, 4: 8, 5: 5}


# -- serialization --------------------------------------------------------------


def test_json_roundtrip(s12):
    text = complex_to_json(s12)
    payload = json.loads(text)
    assert payload["schema_version"] == "curvecone/quotient-complex/1"
    cx2 = complex_from_json(text)
    assert [o.id for o in cx2.orbits] == [o.id for o in s12.orbits]


def test_json_rejects_tampered_payload(s12):
    payload = json.loads(complex_to_json(s12))
    payload["orbits"][0]["id"] = "d0-bogus"
    with pytest.raises(ValueError, match="does not match"):
        complex_from_json(json.dumps(payload))
    tamperings = [
        ("face_maps", 0, "to", "d0-ebcd619b47"),
        ("orbits", 3, "edges", [[0, 0], [0, 0]]),
        ("orbits", 3, "automorphisms", [[9, 9]]),
    ]
    for field, index, key, value in tamperings:
        payload = json.loads(complex_to_json(s12))
        assert payload[field][index][key] != value
        payload[field][index][key] = value
        with pytest.raises(ValueError, match="does not match"):
            complex_from_json(json.dumps(payload))
    payload = json.loads(complex_to_json(s12))
    payload["schema_version"] = "nope"
    with pytest.raises(ValueError, match="schema"):
        complex_from_json(json.dumps(payload))


def test_dot_export(s12):
    dot = complex_to_dot(s12)
    assert dot.startswith("digraph")
    for o in s12.orbits:
        assert o.id in dot
    assert dot.count("->") == len(s12.face_maps)


def test_ids_stable_across_rebuilds():
    a = build_complex(Surface(1, 2))
    b = build_complex(Surface(1, 2))
    assert [o.id for o in a.orbits] == [o.id for o in b.orbits]


def test_s12_orbit_ids_golden(s12):
    # Ids are content hashes of the canonical labels; golden values pin
    # the labeling scheme so serialized complexes stay readable.
    assert [o.id for o in s12.orbits] == [
        "d0-d9f7d07a62",
        "d0-ebcd619b47",
        "d1-57fb6950d4",
        "d1-a2f55d89d8",
    ]


@pytest.mark.parametrize("genus, marked", sorted({*SUPPORTED, *GLUING_SURFACES}))
def test_maximal_embeddings_are_injective(genus, marked):
    # Every extension of a face point pads its coordinates through one
    # embedding, so two extensions can give a curve different lengths
    # only where an embedding sends two curves of the face to one curve
    # of the top orbit.  None does, so acceptance criterion 8 holds by
    # construction and no verify suite checks it: this test does, on the
    # supported surfaces and those of the gluing-table tests.  No
    # embedding is listed twice either, which embeddings relies on to
    # skip a dedupe.
    cx = complex_for(genus, marked)
    for orbit in cx.orbits:
        for _mid, emb in cx.maximal_embeddings(orbit.id):
            assert len(emb) == orbit.n_edges
            assert len(set(emb)) == orbit.n_edges
        for host in cx.orbits:
            embs = cx.embeddings(orbit.id, host.id)
            assert len(set(embs)) == len(embs)
