"""The value semantics of the library's records: equality and hashing by
field, no assignment after construction, constructors that take the
fields, copies and pickles rebuilt through them, and the few deviations
callers rely on (``Surface`` ordering, ``ConePoint`` ignoring its complex)."""

import copy
import inspect
import pickle

import pytest

from conftest import complex_for
from curvecone import (
    CanonicalForm,
    FaceMap,
    FenchelNielsenPoint,
    Gallery,
    GeodesicResult,
    HalfPlanePoint,
    LPResult,
    MulticurveGraph,
    ProductPoint,
    RunReport,
    SimplexOrbit,
    SuiteResult,
    Surface,
    Transit,
    VertexDecoration,
    build_complex,
    canonicalize,
    complex_to_json,
    cone_point,
    distance,
)


def _graph():
    return MulticurveGraph((VertexDecoration(0, 2), VertexDecoration(0, 2)), ((1, 0), (0, 1)))


def _records():
    """A builder of one record of each class, whose two calls give equal
    records, and one field of it."""
    transit = lambda: Transit("d0-x", (1,), (0,))  # noqa: E731
    gallery = lambda: Gallery(("a", "b"), (transit(),), (0, 1), (1, 0))  # noqa: E731
    plane = lambda: HalfPlanePoint(0.5, 2.0)  # noqa: E731
    return [
        (lambda: Surface(1, 2), "genus"),
        (lambda: VertexDecoration(1, 0), "piece_marked"),
        (_graph, "edges"),
        (lambda: canonicalize(_graph()), "label"),
        (lambda: SimplexOrbit("d1-x", _graph(), 1, ((0, 1), (1, 0))), "automorphisms"),
        (lambda: FaceMap("d1-x", 0, "d0-y", ((1, 0),)), "target"),
        (transit, "into_source"),
        (gallery, "orbit_ids"),
        (lambda: GeodesicResult(1.5, gallery(), ((0.5,),)), "distance"),
        (lambda: LPResult(2.0, (1.0, 0.0)), "x"),
        (lambda: FenchelNielsenPoint("d1-x", (0.1, 0.2), (0.0, 0.0)), "lengths"),
        (plane, "y"),
        (lambda: ProductPoint("d1-x", (plane(), plane())), "planes"),
        (lambda: SuiteResult("homogeneity", True, 20, 1e-16, ""), "worst"),
    ]


_IDS = [type(make()).__name__ for make, _field in _records()]


@pytest.mark.parametrize("make, _field", _records(), ids=_IDS)
def test_records_with_equal_fields_are_equal_and_hash_alike(make, _field):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


@pytest.mark.parametrize("make, name", _records(), ids=_IDS)
def test_records_refuse_assignment(make, name):
    record = make()
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) is before


_ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", _ROUND_TRIPS)
@pytest.mark.parametrize("make, _field", _records(), ids=_IDS)
def test_records_copy_and_pickle(make, _field, how):
    record = make()
    again = _ROUND_TRIPS[how](record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    if isinstance(record, CanonicalForm):
        # The cached symmetries are not carried over; they are derived again.
        assert again.automorphisms == record.automorphisms


def _report():
    return RunReport({"seed": 0, "mesh": None}, (SuiteResult("homogeneity", True, 20, 0.0, ""),),
                     {"homogeneity": 0.5})


def test_run_report_refuses_assignment_and_is_unhashable():
    # A report holds its config and timings as dicts, so it has no hash.
    report = _report()
    with pytest.raises(AttributeError):
        report.timings = {}
    with pytest.raises(AttributeError):
        report.extra = 1
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("how", _ROUND_TRIPS)
def test_run_report_copy_and_pickle(how):
    report = _report()
    again = _ROUND_TRIPS[how](report)
    assert type(again) is RunReport and again == report
    assert again.to_json() == report.to_json()


@pytest.mark.parametrize("how", _ROUND_TRIPS)
def test_complex_and_geodesic_copy_and_pickle(how):
    cx = build_complex(Surface(2, 1))
    first, last = cx.maximal_ids[0], cx.maximal_ids[-1]
    result = distance(cone_point(cx, first, (1.0, 2.0, 3.0, 4.0)),
                      cone_point(cx, last, (4.0, 0.5, 2.5, 1.5)))
    assert _ROUND_TRIPS[how](result) == result
    again = _ROUND_TRIPS[how](cx)
    assert complex_to_json(again) == complex_to_json(cx)
    # The copy carries every gluing table the distance filled (face
    # tables, charts, embeddings and transits), and reads them as the
    # original does.
    assert {"subfaces", "_chart", "embeddings", "embeddings_mod_host", "transits"} <= set(cx._memo)
    assert again._memo == cx._memo
    for host in cx.maximal_ids:
        assert again.subfaces(host) == cx.subfaces(host)
        assert again.embeddings(first, host) == cx.embeddings(first, host)
        assert again.embeddings_mod_host(first, host) == cx.embeddings_mod_host(first, host)
        assert again.transits(first, host) == cx.transits(first, host)
    assert distance(cone_point(again, first, (1.0, 2.0, 3.0, 4.0)),
                    cone_point(again, last, (4.0, 0.5, 2.5, 1.5))) == result
    point = _ROUND_TRIPS[how](cone_point(cx, first, (1.0, 2.0, 3.0, 4.0)))
    assert point == cone_point(cx, first, (1.0, 2.0, 3.0, 4.0))


@pytest.mark.parametrize("make, _field", _records(), ids=_IDS)
def test_constructors_take_the_slots_by_position_or_keyword(make, _field):
    record = make()
    cls = type(record)
    slots = [name for name in cls.__slots__ if name != "__dict__"]
    values = [getattr(record, name) for name in slots]
    assert cls(*values) == record
    assert cls(**dict(zip(slots, values))) == record
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)


def test_written_constructor_signature_lists_the_slots():
    assert list(inspect.signature(Transit).parameters) == list(Transit.__slots__)


def test_surface_order_and_hash_follow_its_fields():
    surfaces = [Surface(2, 1), Surface(0, 7), Surface(1, 3), Surface(1, 2)]
    assert sorted(surfaces) == [Surface(0, 7), Surface(1, 2), Surface(1, 3), Surface(2, 1)]
    assert Surface(1, 2) < Surface(1, 3) <= Surface(1, 3) < Surface(2, 0)
    assert Surface(2, 0) > Surface(1, 9) and Surface(2, 0) >= Surface(2, 0)
    assert max(surfaces) == Surface(2, 1)
    for g, n in ((1, 2), (0, 7), (3, 0)):
        assert hash(Surface(g, n)) == hash((g, n))
    assert Surface(1, 2) != (1, 2)
    with pytest.raises(TypeError):
        Surface(1, 2) < (1, 3)  # noqa: B015


def test_cone_point_equality_ignores_its_complex():
    first, second = complex_for(1, 2), build_complex(Surface(1, 2))
    assert first is not second
    top = first.maximal_ids[0]
    p, q = cone_point(first, top, (1.0, 2.0)), cone_point(second, top, (1.0, 2.0))
    assert p.complex is first and q.complex is second
    assert p == q and hash(p) == hash(q)
    assert p != cone_point(first, top, (1.0, 3.0))


def test_orbits_transits_and_graphs_compare_by_value():
    cx = complex_for(1, 2)
    for orbit in cx.orbits:
        copy = SimplexOrbit(orbit.id, MulticurveGraph(orbit.graph.vertices, orbit.graph.edges),
                            orbit.dim, tuple(orbit.automorphisms))
        assert copy == orbit and hash(copy) == hash(orbit)
        assert SimplexOrbit(orbit.id, orbit.graph, orbit.dim + 1, orbit.automorphisms) != orbit
    a, b = cx.maximal_ids
    for t in cx.transits(a, b):
        assert Transit(t.face_id, tuple(t.into_source), tuple(t.into_target)) == t
        assert Transit(t.face_id, t.into_target + (9,), t.into_source) != t
    # The graph stores each edge low-high, so the order it is given in
    # does not matter.
    assert MulticurveGraph([VertexDecoration(0, 4)], [(0, 0)]) == MulticurveGraph(
        (VertexDecoration(0, 4),), ((0, 0),)
    )
    assert _graph() == MulticurveGraph(_graph().vertices, ((0, 1), (1, 0)))
    assert _graph() != MulticurveGraph((VertexDecoration(0, 2), VertexDecoration(0, 3)),
                                       ((0, 1), (0, 1)))
