"""Payload guards for code paths that treat the apex and the grid suite
like every other case.

The digests below were recorded from code that still had a separate apex
branch in ``segment_lengths`` and ``extensions``, a second stdout writer
in ``curvecone complex`` and a separate grid branch in
``run_verification``; the general paths must reproduce them byte for
byte.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import complex_for, report_for
from curvecone import (
    FenchelNielsenPoint,
    apex,
    cone_point,
    distance,
    extensions,
    length_coords,
    segment_lengths,
)
from curvecone.cli import main

SURFACES = [(1, 2), (2, 0), (1, 3), (0, 7), (2, 1)]

# sha256 of each report's JSON with ``timings`` dropped, at samples 200.
REPORT_DIGESTS = {
    (1, 2, 0.5): "955a891373d3284c8739d96cfcff550a96b512c37c4b9e915aee77d08cf5e622",
    (2, 0, None): "4e094b8d892070f062827c6b0e1b5a014172d4bbe1d16eb206e21b67302fb4d6",
    (2, 0, 0.25): "1ea380f5fdaf3528f2294643668c900ef0f5986c015caecccf1309851a40a2fe",
    (0, 7, None): "3cc68633f6e1050930a6ef3cbdf53f310b75308717524bd5b75c1c39c0e1d597",
}

DOT_DIGEST = "f0479c4ea14cd4bf7206edfbba269ae885aa6c1db4d84d211fdb68016a948b1b"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("genus, marked, mesh", sorted(REPORT_DIGESTS, key=str))
def test_verify_report_digest(genus, marked, mesh):
    report = report_for(genus, marked, mesh).to_dict()
    report.pop("timings")
    text = json.dumps(report, indent=2, sort_keys=True)
    assert _sha256(text) == REPORT_DIGESTS[genus, marked, mesh]


def test_complex_dot_stdout_digest(capsys):
    assert main(["complex", "-g", "1", "-n", "2", "--format", "dot", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert _sha256(captured.out) == DOT_DIGEST
    assert captured.err == "dim 0: 2 orbits\ndim 1: 2 orbits\n"


def _points(cx, rng):
    return [cone_point(cx, o.id, rng.uniform(0.25, 8.0, size=o.n_edges)) for o in cx.orbits]


@pytest.mark.parametrize("genus, marked", SURFACES)
def test_ray_segment_length_is_half_the_top_coordinate(genus, marked):
    cx = complex_for(genus, marked)
    o = apex(cx)
    for p in _points(cx, np.random.default_rng(0)):
        for a, b in ((o, p), (p, o)):
            assert segment_lengths(distance(a, b), a, b) == (0.5 * p.max_coord,)
    assert segment_lengths(distance(o, o), o, o) == ()


@pytest.mark.parametrize("genus, marked", SURFACES)
def test_apex_extends_by_the_empty_embedding(genus, marked):
    cx = complex_for(genus, marked)
    expected = []
    for mid in cx.maximal_ids:
        k = cx.orbit(mid).n_edges
        fpt = FenchelNielsenPoint(mid, length_coords([0.0] * k), (0.0,) * k)
        expected.append((mid, (), fpt))
    assert extensions(apex(cx)) == tuple(expected)
