import json

import pytest

from conftest import complex_for, orbit_by_structure
from curvecone import (
    Surface,
    build_complex,
    complex_from_json,
    complex_to_dot,
    complex_to_json,
    enumerate_orbits,
)
from graph_oracle import count_classes
from test_acceptance import SUPPORTED


# -- enumeration against documented examples ----------------------------------


def test_s12_vertex_orbits():
    orbits = enumerate_orbits(Surface(1, 2), 1)
    assert len(orbits) == 2
    shapes = sorted(
        (len(o.graph.vertices), o.graph.edges) for o in orbits
    )
    # Nonseparating: one piece with a loop; separating: two pieces joined.
    assert shapes == [(1, ((0, 0),)), (2, ((0, 1),))]


def test_s12_edge_orbits():
    orbits = enumerate_orbits(Surface(1, 2), 2)
    assert len(orbits) == 2
    by_size = {len(o.graph.vertices): o for o in orbits}
    # Parallel pair = nonseparating/nonseparating, loop+bridge = sep/nonsep.
    assert by_size[2].graph.edges in (((0, 1), (0, 1)), ((0, 0), (0, 1)))


def test_s2_pants_types():
    orbits = enumerate_orbits(Surface(2, 0), 3)
    assert len(orbits) == 2
    edge_sets = sorted(o.graph.edges for o in orbits)
    assert edge_sets == [
        ((0, 0), (0, 1), (1, 1)),  # dumbbell
        ((0, 1), (0, 1), (0, 1)),  # theta
    ]


def test_s04_single_type():
    orbits = enumerate_orbits(Surface(0, 4), 1)
    assert len(orbits) == 1
    (o,) = orbits
    assert tuple(
        (d.piece_genus, d.piece_marked) for d in o.graph.vertices
    ) == ((0, 2), (0, 2))


def test_k_out_of_range():
    with pytest.raises(ValueError):
        enumerate_orbits(Surface(1, 2), 3)
    with pytest.raises(ValueError):
        enumerate_orbits(Surface(1, 2), 0)


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
    got = len(enumerate_orbits(Surface(genus, marked), k))
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
        degs = graph.degrees()
        for v, dec in enumerate(graph.vertices):
            assert dec.piece_genus == 0
            assert dec.piece_marked + degs[v] == 3


def test_every_orbit_is_a_face_of_maximal(s2):
    covered = set(s2.maximal_ids)
    for mid in s2.maximal_ids:
        for fid, _ in s2.subfaces(mid).values():
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
    assert all(len(iota) == len(keep) for keep, (_t, iota) in sub.items())


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


def test_transit_domination(s2):
    # Between theta and dumbbell the one-curve transits all factor
    # through the shared two-curve face, so only the larger face remains.
    theta, dumbbell = sorted(s2.maximal_ids)
    for t in s2.transits(theta, dumbbell):
        assert len(t.into_source) == 2


def reference_transits(cx, source_id, target_id):
    """Transits with dominance tested by trying every embedding of the
    smaller shared face into the larger one."""
    def chart(orbit_id):
        k = cx.orbit(orbit_id).n_edges
        return [*cx.subfaces(orbit_id).values(), (orbit_id, tuple(range(k)))]

    raw = set()
    for fid_a, iota_a in chart(source_id):
        for fid_b, iota_b in chart(target_id):
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
            for j in cx.embeddings(fid, fid2)
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
