"""Pinned geodesic payloads and simplex solve counts.

How ``distance`` screens, builds and solves its gallery programs may
change; what it decides may not.  Each surface's payload digest and its
number of ``metric.solve_lp`` calls are pinned, and each must come out
the same on an empty replay store, on a warm one, and with the store
recording nothing.  So is the sequence of programs the simplex gets:
each call's key, which fixes the cost and rows, and its right-hand side,
bit for bit.
"""

import hashlib

import numpy as np
import pytest

import curvecone.lp as lp
import curvecone.metric as metric
from conftest import complex_for
from curvecone import cone_point, distance

# Point kinds as (integer coordinates, scale factor).
KINDS = [(False, 1.0), (True, 1.0), (False, 1e3)]

# surface: (pairs per kind, sha256 of the payloads, solve_lp calls)
PINNED = {
    (1, 2): (12, "efc23b451f2012047976104ce22f5e956dab36d8eee56b5b06b43f94f947b230", 63),
    (2, 0): (12, "c824be8de67dc1a0342de3ac30f4a1de200cc0def8722c29a3d8933795186f75", 214),
    (1, 3): (12, "83f9f9f33d1a82b44d5be4b3205651fd070cdf3c11fa37a5c3201d506180489a", 880),
    (0, 7): (12, "91cf8e79b36e694bd03130ce256ae35140a5a0967453ba71791ae23855c8af68", 266),
    (2, 1): (4, "972a8ea301631335245f7b9586985393104b5ac1b1ea7279c0c2a4b4597b9e17", 1685),
}


def _pairs(surface):
    cx = complex_for(*surface)
    ids = [o.id for o in cx.orbits if o.n_edges]
    n = PINNED[surface][0]
    out = []
    for k, (integer, lam) in enumerate(KINDS):
        rng = np.random.default_rng([*surface, k])
        for _ in range(2 * n):
            oid = ids[rng.integers(len(ids))]
            size = cx.orbit(oid).n_edges
            xs = rng.integers(0, 4, size=size) if integer else rng.uniform(0.25, 8.0, size=size)
            out.append(cone_point(cx, oid, lam * xs.astype(float)))
    return list(zip(out[::2], out[1::2]))


def _digest_and_solves(pairs, monkeypatch):
    calls = [0]
    solve = metric.solve_lp

    def counting(*args):
        calls[0] += 1
        return solve(*args)

    with monkeypatch.context() as mp:
        mp.setattr(metric, "solve_lp", counting)
        digest = hashlib.sha256()
        for p, q in pairs:
            digest.update(distance(p, q).to_json().encode())
    return digest.hexdigest(), calls[0]


@pytest.mark.parametrize("surface", PINNED, ids=lambda s: f"S{s[0]}_{s[1]}")
def test_payloads_and_solve_counts_are_pinned(surface, monkeypatch, empty_plan_store):
    pairs = _pairs(surface)
    pinned = PINNED[surface][1:]
    # An empty store, then the same store warm from that pass.
    assert _digest_and_solves(pairs, monkeypatch) == pinned
    assert _digest_and_solves(pairs, monkeypatch) == pinned
    monkeypatch.setattr(lp, "_MAX_NODES", 0)
    monkeypatch.setattr(lp, "_STORE", lp._PlanStore())
    assert _digest_and_solves(pairs, monkeypatch) == pinned
    assert lp.plan_stats()["shapes"] == 0


def _solve_sequence_digest(pairs, monkeypatch):
    """sha256 of every ``metric.solve_lp`` call's program key and
    right-hand side, in call order, each entry as ``float.hex``."""
    digest = hashlib.sha256()
    solve = metric.solve_lp

    def hashing(c, a_ub, b_ub):
        digest.update(repr(a_ub.key).encode())
        digest.update(",".join(map(float.hex, b_ub)).encode() + b";")
        return solve(c, a_ub, b_ub)

    with monkeypatch.context() as mp:
        mp.setattr(metric, "solve_lp", hashing)
        for p, q in pairs:
            distance(p, q)
    return digest.hexdigest()


# surface: sha256 of the solve sequence over its PINNED pairs
SOLVE_SEQUENCES = {
    (1, 2): "bf500d0183a122ff5e051c0d4eca599834addb058322092f731c51192777144b",
    (2, 0): "9b0400001efb6e21b56cd5aa593c5b92546d69531c211bc1dd1d0490e5b20ab7",
    (1, 3): "1ccd8e4cbf3d9e09b2ee90a8ea7db26f94ff2686533812ebd4c2d441060ea776",
    (0, 7): "504a25d6099dbc553dfb5e2d80417007d233717c5454720075fe665abc9e9fb7",
    (2, 1): "dade16dede2eea32e93a58814852c0c7423f2f19aec782b7ae3ba016bb075f14",
}


@pytest.mark.parametrize("surface", PINNED, ids=lambda s: f"S{s[0]}_{s[1]}")
def test_solve_sequences_are_pinned(surface, monkeypatch, empty_plan_store):
    # How the search builds its programs may change; which programs reach
    # the simplex, with which right-hand sides and in which order, may not.
    pairs = _pairs(surface)
    assert _solve_sequence_digest(pairs, monkeypatch) == SOLVE_SEQUENCES[surface]
    assert _solve_sequence_digest(pairs, monkeypatch) == SOLVE_SEQUENCES[surface]
