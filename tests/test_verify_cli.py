import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_for, orbit_by_structure, report_for, run_cli, run_python
from curvecone import (
    QuotientComplex,
    SimplexOrbit,
    Surface,
    build_complex,
    cone_point,
    fenchel_nielsen,
    run_verification,
    verify,
)
import curvecone.cli as cli
from curvecone.cli import main
from curvecone.lp import MAX_COORD
from curvecone.fenchel_nielsen import _acosh1p
from curvecone.metric import (
    GeodesicResult,
    distance,
    point_from_dict,
    segment_lengths,
    symmetric_orthant_distance,
)
from curvecone.quotient import FaceMap, complex_from_dict, complex_to_dict, complex_to_json


def test_verification_passes_on_s12(s12):
    report = run_verification(s12, seed=0, samples=40)
    assert report.passed, report.to_json()
    assert [r.name for r in report.results] == [
        "automorphism_equivariance",
        "complex_structure",
        "metric_axioms",
        "homogeneity",
        "orthant_isometry",
        "same_orbit_consistency",
        "geodesic_consistency",
    ]


def test_verification_passes_on_self_glued_s07():
    # Some same-orbit pairs of S(0,7) have a gallery shorter than the
    # orthant value; the suite notes the shortcut and still passes.
    report = report_for(0, 7)
    assert report.passed, report.to_json()
    same_orbit = next(r for r in report.results if r.name == "same_orbit_consistency")
    assert same_orbit.note.startswith("shortcut gallery beats orthant value")


def test_verification_trivial_on_single_orbit(s11):
    report = run_verification(s11, seed=3, samples=20)
    assert report.passed


def test_grid_suite_runs_with_mesh(s12):
    report = run_verification(s12, seed=1, samples=20, mesh=0.5)
    assert report.passed
    assert any(r.name == "grid_oracle" for r in report.results)


def _corrupted(s12):
    # Inject a bogus swap into the orbit whose only symmetry is trivial.
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    bad = SimplexOrbit(sn.id, sn.graph, sn.dim, sn.automorphisms + ((1, 0),))
    orbits = [bad if o.id == sn.id else o for o in s12.orbits]
    return QuotientComplex(s12.surface, orbits, s12.face_maps)


def _retargeted(s12):
    # Send a top orbit's first face map to the other orbit of its target's
    # dimension.
    fm = next(f for f in s12.face_maps if f.source in s12.maximal_ids)
    dim = s12.orbit(fm.target).dim
    other = next(o.id for o in s12.orbits_of_dim(dim) if o.id != fm.target)
    bad = FaceMap(fm.source, fm.deleted_edge, other, fm.edge_injection)
    return QuotientComplex(s12.surface, s12.orbits, [bad if f is fm else f for f in s12.face_maps])


def _patched(target, replacement):
    # A mutation that puts ``replacement`` at ``target``, a dotted path,
    # and leaves the complex as it is.
    def mutate(monkeypatch, cx):
        monkeypatch.setattr(target, replacement)
        return cx

    return mutate


def _distance_as(f):
    # verify's distance, reading each distance d between p and q as f(d, p).
    def mutated(p, q):
        r = distance(p, q)
        return GeodesicResult(f(r.distance, p), r.gallery, r.breakpoints)

    return _patched("curvecone.verify.distance", mutated)


# One mutation per suite, which that suite must report as a failure: a
# suite that no mutation can fail checks what holds by construction, and
# belongs in tier-1 as a test, if anywhere.
_MUTATIONS = {
    "automorphism_equivariance": lambda monkeypatch, cx: _corrupted(cx),
    "complex_structure": lambda monkeypatch, cx: _retargeted(cx),
    "metric_axioms": _distance_as(lambda d, p: d * (1 + 1e-3 * p.max_coord)),
    "homogeneity": _distance_as(lambda d, p: d + 1e-3),
    "orthant_isometry": _patched("curvecone.fenchel_nielsen._acosh1p", lambda u: 1.01 * _acosh1p(u)),
    "same_orbit_consistency": _patched(
        "curvecone.verify.symmetric_orthant_distance", lambda *a: symmetric_orthant_distance(*a) / 2
    ),
    "geodesic_consistency": _patched(
        "curvecone.verify.segment_lengths", lambda *a: segment_lengths(*a)[:-1]
    ),
    "grid_oracle": _distance_as(lambda d, p: d * 1.5),
}


def test_every_suite_fails_under_a_mutation(s12, monkeypatch):
    report = run_verification(s12, seed=0, samples=10, mesh=0.5)
    assert report.passed, report.to_json()
    assert [r.name for r in report.results] == list(_MUTATIONS)
    for name, mutate in _MUTATIONS.items():
        with monkeypatch.context() as m:
            report = run_verification(mutate(m, s12), seed=0, samples=10, mesh=0.5)
        result = next(r for r in report.results if r.name == name)
        assert not result.passed and result.worst > 0, (name, report.to_json())


def test_complex_structure_reads_the_face_table():
    # S(1,2) has no top orbit of three curves, so the mutations above
    # never reach the walk; S(2,0)'s tops are the smallest it reaches.
    # Rotating one top orbit's one-curve entries gives each a wrong
    # injection, which no symmetry of a one-curve face mends.
    good = verify._suite_complex_structure(complex_for(2, 0), np.random.default_rng(0), 10)
    assert good[0] and good[2] == 0
    cx = build_complex(Surface(2, 0))
    top = cx.maximal_ids[0]
    k = cx.orbit(top).n_edges
    table = list(cx.subfaces(top))
    for e in range(k):
        table[1 << e] = (table[1 << e][0], ((e + 1) % k,))
    cx._memo["subfaces"][(top,)] = tuple(table)
    passed, _checked, worst, _note = verify._suite_complex_structure(cx, np.random.default_rng(0), 10)
    assert not passed and worst > 0


@pytest.mark.parametrize("seed, samples", [(-1, 20), (0, 0), (0, -3)])
def test_run_verification_rejects_bad_sampling(s12, seed, samples):
    # The report's config must name the seed and sample count it ran with.
    message = f"seed must be >= 0, got {seed}" if seed < 0 else f"samples must be >= 1, got {samples}"
    with pytest.raises(ValueError, match=message):
        run_verification(s12, seed=seed, samples=samples)


@pytest.mark.parametrize(
    "seed, samples",
    [(0, True), (0, 2.5), (1.5, 20), (False, 20), (0, "20"), (None, 20)],
)
def test_run_verification_rejects_non_integer_sampling(s12, seed, samples):
    with pytest.raises(ValueError, match="must be an integer"):
        run_verification(s12, seed=seed, samples=samples)


def test_run_verification_checks_mesh_before_any_suite(s12, monkeypatch):
    # A mesh that does not divide the grid box used to fail only after
    # every core suite had run, and mesh=True ran the grid suite.
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran before the mesh was checked")

    monkeypatch.setattr("curvecone.verify.distance", no_suite)
    with pytest.raises(ValueError, match="positive multiple of mesh 0.3"):
        run_verification(s12, mesh=0.3)
    with pytest.raises(ValueError, match="mesh must be a real number"):
        run_verification(s12, mesh=True)


def test_report_records_the_collar_constant(s11):
    report = run_verification(s11, seed=0, samples=5)
    assert report.config["epsilon0"] == fenchel_nielsen.EPSILON0 == 0.1


def _untimed(report) -> dict:
    payload = report.to_dict()
    payload.pop("timings")
    return payload


def test_run_verification_takes_numpy_integers(s11):
    report = run_verification(s11, seed=np.int64(3), samples=np.int32(20))
    assert _untimed(report) == _untimed(run_verification(s11, seed=3, samples=20))


@pytest.mark.parametrize(
    "mesh", [np.float32(0.5), np.float64(0.5), Fraction(1, 2), 1],
    ids=["float32", "float64", "Fraction", "int"],
)
def test_report_records_the_mesh_as_a_float(s11, mesh):
    # The config holds the mesh as a float whatever real it was given as,
    # so the report serializes and an int mesh reads 1.0, as on the
    # command line.
    report = run_verification(s11, seed=0, samples=5, mesh=mesh)
    assert json.loads(report.to_json())["config"]["mesh"] == float(mesh)
    expected = run_verification(s11, seed=0, samples=5, mesh=float(mesh))
    assert json.dumps(_untimed(report)) == json.dumps(_untimed(expected))


def test_report_reproducible_modulo_timings(s12):
    a = run_verification(s12, seed=7, samples=15)
    b = run_verification(s12, seed=7, samples=15)
    assert _untimed(a) == _untimed(b)
    c = run_verification(s12, seed=8, samples=15)
    assert c.passed


# -- command line ----------------------------------------------------------------


def test_cli_complex_summary(capsys):
    assert main(["complex", "-g", "1", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "dim 0: 2 orbits" in out
    assert "dim 1: 2 orbits" in out


def test_cli_complex_s11(capsys):
    assert main(["complex", "-g", "1", "-n", "1"]) == 0
    assert "dim 0: 1 orbit" in capsys.readouterr().out


def test_cli_complex_s2(capsys):
    assert main(["complex", "-g", "2", "-n", "0"]) == 0
    assert "dim 2: 2 orbits" in capsys.readouterr().out


def test_cli_complex_writes_file(tmp_path, capsys):
    out = tmp_path / "cx.json"
    assert main(["complex", "-g", "1", "-n", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "curvecone/quotient-complex/1"
    assert len(payload["orbits"]) == 4


def test_cli_complex_dot(tmp_path):
    out = tmp_path / "cx.dot"
    assert main(["complex", "-g", "1", "-n", "2", "--format", "dot", "--out", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_cli_complex_streams_payload_to_stdout(capsys):
    assert main(["complex", "-g", "1", "-n", "2", "--out", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["schema_version"] == "curvecone/quotient-complex/1"
    assert "dim 0: 2 orbits" in captured.err


def test_cli_complex_rejects_unsupported(tmp_path, capsys):
    for case in _INPUT_ERRORS["complex_rejects_unsupported"]:
        _assert_rejects("complex_rejects_unsupported", case, tmp_path, capsys)


def test_cli_usage_error(tmp_path, capsys):
    for case in _INPUT_ERRORS["usage_error"]:
        _assert_rejects("usage_error", case, tmp_path, capsys)


def test_cli_help_exits_0(capsys):
    # Usage errors raise instead of exiting the parser; -h still exits it.
    assert main(["verify", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: curvecone verify")


def test_cli_dist_roundtrip(tmp_path, s12, capsys):
    from curvecone import cone_point

    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    capsys.readouterr()
    sn = orbit_by_structure(s12, [(0, 0), (0, 2)], [(0, 0), (0, 1)])
    nn = orbit_by_structure(s12, [(0, 1), (0, 1)], [(0, 1), (0, 1)])
    p_file = tmp_path / "p.json"
    q_file = tmp_path / "q.json"
    p_file.write_text(cone_point(s12, sn.id, (0.0, 4.0)).to_json())
    q_file.write_text(cone_point(s12, nn.id, (2.0, 2.0)).to_json())
    assert main(["dist", str(cx_file), str(p_file), str(q_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distance"] == pytest.approx(3.0)
    assert payload["gallery"]["orbits"] == [sn.id, nn.id]
    assert payload["breakpoints"]


def test_cli_dist_rejects_a_coordinate_past_the_bound(tmp_path, s12, capsys):
    # One float past the bound is an input error, exit 2 with one line;
    # near the float maximum such points used to exit 1 with a traceback.
    from curvecone.lp import MAX_COORD
    from curvecone.metric import SCHEMA_POINT

    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    capsys.readouterr()
    files = []
    for name, orbit in (("p", s12.maximal_ids[0]), ("q", s12.maximal_ids[-1])):
        files.append(tmp_path / f"{name}.json")
        files[-1].write_text(json.dumps({"schema_version": SCHEMA_POINT, "orbit": orbit,
                                         "coords": [math.nextafter(MAX_COORD, math.inf), 1.0]}))
    assert main(["dist", str(cx_file), *map(str, files)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvecone: error:") and err.count("\n") == 1
    assert "finite" in err


# -- input errors ------------------------------------------------------------------
#
# Every input error exits 2 with one line, ``curvecone: error: <fault>:
# <message>``, where the fault names the option (``argument --samples``),
# the output file (``output file <path>``) or the file that ``dist`` reads
# (``<complex|point> file <path>``).  The table holds the cases met so far;
# the properties below look for the next.

_S12_TOP = "d1-57fb6950d4"
_POINT = {"schema_version": "curvecone/cone-point/1", "orbit": _S12_TOP}
_COMPLEX = "curvecone/quotient-complex/1"


def _without(key):
    return lambda valid: json.dumps({k: v for k, v in json.loads(valid).items() if k != key}).encode()


def _set(at, value):
    """A valid file's bytes with ``value`` at the place ``at`` of its payload."""
    def edit(valid):
        payload = json.loads(valid)
        _at(payload, at[:-1])[at[-1]] = value
        return json.dumps(payload).encode()
    return edit


_NOT_JSON = {
    "empty": b"",
    "truncated": lambda valid: valid[: len(valid) // 2],
    "bom": b"\xff\xfe",
    "bad-byte": b"\xff{",
}

# case: (the command line, the fault, the start of the message after it),
# or for ``dist`` (file at fault, its content, the start of the message
# after the file's name).  The content is a JSON payload, bytes, bytes
# made from those of a valid S(1,2) file, or None for no file.  The cases
# are grouped under the tests that run them.
_INPUT_ERRORS = {
    "usage_error": {
        "missing-marked": (["complex", "-g", "1"], "the following arguments are required",
                           "-n/--marked"),
        "unknown-command": (["nonsense"], "argument command", "invalid choice: 'nonsense'"),
        # A newline in an argument or a path used to split the line.
        "newline": (["verify", "-g", "1", "-n", "1", "--bo\ngus"], "unrecognized arguments",
                    "--bo\\ngus\n"),
    },
    "complex_rejects_unsupported": {
        "complexity-0": (["complex", "-g", "0", "-n", "3"], "argument -g/-n",
                         "surface (0, 3) has complexity 0 < 1"),
        "negative-genus": (["complex", "-g", "-1", "-n", "5"], "argument -g/-n",
                           "genus and marked point count must be nonnegative, got (-1, 5)"),
        "float-genus": (["complex", "-g", "1.0", "-n", "2"], "argument -g/--genus",
                        "invalid int value: '1.0'"),
        "format": (["complex", "-g", "1", "-n", "2", "--format", "png"], "argument --format",
                   "invalid choice: 'png'"),
    },
    # Each option is named alone; the seed and sample count used to share
    # one message, and a bad value printed the usage text too.
    "verify_rejects_bad_options": {
        # The collar constant is fixed, so --epsilon0 is no option.
        "epsilon0": (["verify", "-g", "1", "-n", "1", "--epsilon0", "0.1"],
                     "unrecognized arguments", "--epsilon0 0.1"),
        "mesh-not-dividing": (["verify", "-g", "1", "-n", "1", "--mesh", "0.3"], "argument --mesh",
                              "box 8.0 must be a positive multiple of mesh 0.3"),
        "mesh-nan": (["verify", "-g", "1", "-n", "1", "--mesh", "nan"], "argument --mesh",
                     "mesh must be positive, got nan"),
        # The node cap counts the top orbits' nodes, after the build.
        "mesh-too-fine": (["verify", "-g", "1", "-n", "2", "--mesh", "1e-4"], "argument --mesh",
                          "grid would hold more than 5000000 nodes"),
        # A negative seed or a sample count below 1 is an input error,
        # not a failed verification or a report of negative samples.
        "negative-seed": (["verify", "-g", "1", "-n", "2", "--seed", "-1"], "argument --seed",
                          "seed must be >= 0, got -1"),
        "zero-samples": (["verify", "-g", "1", "-n", "2", "--samples", "0"], "argument --samples",
                         "samples must be >= 1, got 0"),
        "negative-samples": (["verify", "-g", "1", "-n", "2", "--samples", "-3"],
                             "argument --samples", "samples must be >= 1, got -3"),
        "non-integer-samples": (["verify", "-g", "1", "-n", "1", "--samples", "x"],
                                "argument --samples", "invalid int value: 'x'"),
        "seed-without-value": (["verify", "-g", "1", "-n", "1", "--seed"], "argument --seed",
                               "expected one argument"),
        "unsupported": (["verify", "-g", "0", "-n", "3"], "argument -g/-n",
                        "surface (0, 3) has complexity 0 < 1"),
    },
    "names_the_output_file": {
        "complex": (["complex", "-g", "1", "-n", "1", "--out", "."], "output file .",
                    "[Errno 21] Is a directory"),
        "verify": (["verify", "-g", "1", "-n", "1", "--samples", "2", "--out", "."],
                   "output file .", "[Errno 21] Is a directory"),
    },
    "schema_mismatch": {
        "wrong": ("point", {"schema_version": "wrong", "orbit": None},
                  "unsupported point schema 'wrong'"),
    },
    "invalid_point": {
        # The unknown orbit's KeyError prints its message, not its repr.
        "unknown-orbit": ("point", {**_POINT, "orbit": "d9-nonexistent", "coords": {"0": 1.0}},
                          "no orbit 'd9-nonexistent' in complex of S_{1,2}"),
    },
    "malformed_input": {
        "point-list": ("point", [1, 2], "a point must be an object, got list"),
        "scalar-coords": ("point", {**_POINT, "coords": 5},
                          "coordinates must be a list or an object, got 5"),
        "null-coordinate": ("point", {**_POINT, "coords": [None, 1.0]},
                            "coordinate must be a real number, got None"),
        "list-orbit": ("point", {**_POINT, "orbit": [1], "coords": {"0": 1.0}},
                       "point orbit must be a string or null, got [1]"),
        "same-edge-twice": ("point", {**_POINT, "coords": {"0": 1.0, "00": 2.0}},
                            "edge key '00' is not an integer"),
        "apex-coords": ("point", {**_POINT, "orbit": None, "coords": {"7": 0.0}},
                        "the apex has no edges"),
        "signed-edge-keys": ("point", {**_POINT, "coords": {"+0": 1.0, " 1": 2.0}},
                             "edge key '+0' is not an integer"),
        "huge-int-coordinate": ("point", {**_POINT, "coords": {"0": 10**400}},
                                "coordinate exceeds the float range"),
        "complex-list": ("complex", [], "a complex must be an object, got list"),
        "complex-schema": ("complex", {"schema_version": "wrong", "surface": {}, "orbits": []},
                           "unsupported complex schema 'wrong'"),
        "complex-surface-scalar": ("complex", {"schema_version": _COMPLEX, "surface": 5, "orbits": []},
                                   "complex surface must be an object, got 5"),
        "complex-surface-float": ("complex", {"schema_version": _COMPLEX, "orbits": [],
                                              "surface": {"genus": 1.0, "marked_points": 2}},
                                  "genus must be an integer, got 1.0"),
        "complex-surface-missing": ("complex", {"schema_version": _COMPLEX, "orbits": [],
                                                "surface": {"genus": 1}},
                                    "marked_points must be an integer, got None"),
        "complex-edited-orbit-id": ("complex", _set(("orbits", 0, "id"), "d0-bogus"),
                                    "complex payload does not match its surface's complex "
                                    "at dimension 0"),
        # Equal under ``==`` to the complex's 1 and 0, these used to load.
        "complex-bool-dim": ("complex", _set(("orbits", 2, "dim"), True),
                             "complex payload does not match its surface's complex "
                             "at dimension 1"),
        "complex-float-deleted-edge": ("complex", _set(("face_maps", 0, "deleted_edge"), 0.0),
                                       "complex payload does not match its surface's complex\n"),
    },
    # JSON decoding used to raise RecursionError with a traceback.
    "rejects_deep_nesting": {
        which: (which, b"[" * 200_000 + b"]" * 200_000, "JSON nested too deeply")
        for which in ("complex", "point")
    },
    # A missing key used to surface as a bare KeyError: "error: 'surface'".
    "names_a_missing_key": {
        f"{which}-{key}": (which, _without(key), f"{which} payload lacks '{key}'")
        for which, key in [("complex", "surface"), ("complex", "orbits"),
                           ("point", "orbit"), ("point", "coords")]
    },
    # The decoder's message used to come alone ("Expecting value: line 1
    # ..."), and a file that is not UTF-8 gave only the codec's message.
    "names_a_file_that_is_not_json": {
        f"{which}-{cut}": (which, content, "not valid JSON: ")
        for which in ("complex", "point") for cut, content in _NOT_JSON.items()
    },
    "missing_file": {
        "complex": ("complex", None, "[Errno 2] No such file or directory"),
    },
}


def _assert_rejects(test, case, tmp_path, capsys):
    """Run the case's command line, or ``dist`` on valid S(1,2) files with
    one replaced by the case's: the complex file, or the point file q."""
    first, second, message = _INPUT_ERRORS[test][case]
    if isinstance(first, list):
        argv, fault = first, second
    else:
        argv, fault = _dist_with_a_bad_file(first, second, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    prefix = f"curvecone: error: {fault}: "
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
    assert err[len(prefix):].startswith(message), err


def _dist_with_a_bad_file(which, content, tmp_path):
    """The argv of ``dist`` on valid S(1,2) files with the ``which`` file
    holding ``content``, and that file as its error names it."""
    s12 = complex_for(1, 2)
    point = cone_point(s12, _S12_TOP, (1.0, 2.0)).to_json()
    files = {"complex": tmp_path / "cx.json", "p": tmp_path / "p.json", "point": tmp_path / "q.json"}
    files["complex"].write_text(complex_to_json(s12))
    files["p"].write_text(point)
    files["point"].write_text(point)
    bad = files[which]
    if content is None:
        bad.unlink()
    elif callable(content):
        bad.write_bytes(content(bad.read_bytes()))
    else:
        bad.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    return ["dist", *map(str, files.values())], f"{which} file {bad}"


def test_cli_dist_schema_mismatch(tmp_path, capsys):
    _assert_rejects("schema_mismatch", "wrong", tmp_path, capsys)


def test_cli_dist_invalid_point(tmp_path, capsys):
    _assert_rejects("invalid_point", "unknown-orbit", tmp_path, capsys)


def test_cli_dist_missing_file(tmp_path, capsys):
    _assert_rejects("missing_file", "complex", tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS["malformed_input"]))
def test_cli_dist_malformed_input(case, tmp_path, capsys):
    _assert_rejects("malformed_input", case, tmp_path, capsys)


@pytest.mark.parametrize("which", sorted(_INPUT_ERRORS["rejects_deep_nesting"]))
def test_cli_dist_rejects_deep_nesting(which, tmp_path, capsys):
    _assert_rejects("rejects_deep_nesting", which, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS["names_a_missing_key"]))
def test_cli_dist_names_a_missing_key(case, tmp_path, capsys):
    _assert_rejects("names_a_missing_key", case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS["names_a_file_that_is_not_json"]))
def test_cli_dist_names_a_file_that_is_not_json(case, tmp_path, capsys):
    _assert_rejects("names_a_file_that_is_not_json", case, tmp_path, capsys)


# Mutations of valid files: a value of another JSON type at any key or
# index, a key or item dropped or added, coordinates at the float edges,
# truncated bytes and another, mostly larger, surface.  Genus and marked
# points stay at most 100 in process; the astronomically large ones run
# in a child under a memory limit, in
# ``test_cli_dist_rejects_a_large_surface_without_building_it``.
_BASES = [(1, 2), (2, 1), (0, 7)]
_ODD_VALUES = [None, True, False, 0, -1, 2**64, 10**400, 1.5, -0.0, math.nan, math.inf,
               "", "x", "d0-bogus", [], [None], [[0, 1]], {}, {"0": 1.0}]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, MAX_COORD,
                math.nextafter(MAX_COORD, math.inf), 1.7976931348623157e308, math.inf,
                -math.inf, math.nan, 10**400]


@lru_cache(maxsize=None)
def _valid_files(surface):
    """The complex and the two point payloads of a ``dist`` run that
    succeeds, with every place in each: a vertex and a top orbit, so that
    the distance stays cheap."""
    cx = complex_for(*surface)
    vertex, top = cx.orbits[0], cx.orbit(cx.maximal_ids[-1])
    docs = {
        "complex": complex_to_dict(cx),
        "p": cone_point(cx, vertex.id, (1.5,)).to_dict(),
        "q": cone_point(cx, top.id, [1.0 + i for i in range(top.n_edges)]).to_dict(),
    }
    return docs, {name: list(_places(doc)) for name, doc in docs.items()}


def _places(doc, at=()):
    """Every place in a JSON document, as the path of keys and indices to it."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, (*at, key))


def _at(doc, at):
    for key in at:
        doc = doc[key]
    return doc


def _copy_at(doc, at):
    """A deep copy of ``doc``, and the value at the place ``at`` in the copy."""
    doc = json.loads(json.dumps(doc))
    return doc, _at(doc, at)


@st.composite
def _mutated_payload(draw, surface, name):
    """A valid ``name`` payload of ``surface`` with one mutation."""
    docs, places = _valid_files(surface)
    doc, places = docs[name], places[name]
    kind = draw(st.sampled_from(["retype", "drop", "extra", "surface" if name == "complex" else "edges"]))
    if kind == "retype":
        at, value = draw(st.sampled_from(places)), draw(st.sampled_from(_ODD_VALUES))
        if not at:
            return value
        doc, parent = _copy_at(doc, at[:-1])
        parent[at[-1]] = value
    elif kind == "drop":
        at = draw(st.sampled_from(places[1:]))
        doc, parent = _copy_at(doc, at[:-1])
        del parent[at[-1]]
    elif kind == "extra":
        at = draw(st.sampled_from([a for a in places if isinstance(_at(doc, a), (dict, list))]))
        value = draw(st.sampled_from(_ODD_VALUES))
        doc, node = _copy_at(doc, at)
        if isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "0", "id", "dim", ""]))] = value
        else:
            node.insert(draw(st.integers(0, len(node))), value)
    elif kind == "surface":
        doc = {**doc, "surface": {"genus": draw(st.integers(0, 100)),
                                  "marked_points": draw(st.integers(0, 100))}}
    else:
        doc = {**doc, "coords": {key: draw(st.sampled_from([v, *_EDGE_FLOATS]))
                                 for key, v in doc["coords"].items()}}
    return doc


@st.composite
def _mutated_dist_files(draw):
    """(name of the file at fault, {name: file bytes}, whether its bytes
    differ from the valid file's)."""
    surface = draw(st.sampled_from(_BASES))
    docs, _ = _valid_files(surface)
    name = draw(st.sampled_from(sorted(docs)))
    files = {key: json.dumps(doc).encode() for key, doc in docs.items()}
    valid = files[name]
    if draw(st.booleans()):
        files[name] = json.dumps(draw(_mutated_payload(surface, name))).encode()
    else:
        files[name] = files[name][: draw(st.integers(0, len(files[name]) - 1))]
    return name, files, files[name] != valid


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(case=_mutated_dist_files())
def test_cli_dist_names_the_file_at_fault(case):
    name, files, changed = case
    with tempfile.TemporaryDirectory() as work:
        paths = {key: os.path.join(work, f"{key}.json") for key in files}
        for key, data in files.items():
            with open(paths[key], "wb") as handle:
                handle.write(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["dist", paths["complex"], paths["p"], paths["q"]])
    err = err.getvalue()
    assert code in (0, 2), err
    # Only its surface's complex itself loads, JSON types included.
    assert code == 2 or not (name == "complex" and changed), files[name]
    if code == 2:
        kind = "complex" if name == "complex" else "point"
        assert err.startswith(f"curvecone: error: {kind} file {paths[name]}: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == "" and json.loads(out.getvalue())["distance"] >= 0


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(case=st.sampled_from(_BASES).flatmap(lambda surface: _mutated_payload(surface, "complex")))
def test_complex_from_dict_raises_only_input_errors(case):
    try:
        complex_from_dict(case)
    except (ValueError, KeyError):
        pass


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(surface=st.sampled_from(_BASES), name=st.sampled_from("pq"), data=st.data())
def test_point_from_dict_raises_only_input_errors(surface, name, data):
    payload = data.draw(_mutated_payload(surface, name))
    try:
        point_from_dict(complex_for(*surface), payload)
    except (ValueError, KeyError):
        pass


# Valid ``complex`` and ``verify`` command lines with one option mutated: a
# value that is no integer or no float, negative, zero, nan, inf, past
# the float range or a mesh that does not divide 8; a flag without its
# value or left out; an unknown flag.  No value names a larger surface
# than these: an unbounded build is ROADMAP item 4's.
_OPTION_BASES = [(1, 1), (0, 4), (1, 2)]
_ODD_OPTIONS = ["x", "", "1.5", "-1", "-0.5", "0", "nan", "inf", "-inf", "1e400", "0.3", "1e-300"]


@st.composite
def _mutated_options(draw):
    """(the mutated flag, argv)."""
    g, n = map(str, draw(st.sampled_from(_OPTION_BASES)))
    argv = draw(st.sampled_from([
        ["complex", "-g", g, "-n", n, "--format", "json"],
        ["verify", "-g", g, "-n", n, "--seed", "0", "--samples", "2", "--mesh", "0.5"],
    ]))
    at = draw(st.sampled_from(range(1, len(argv), 2)))
    flag = argv[at]
    kind = draw(st.sampled_from(["value", "no-value", "drop", "unknown"]))
    if kind == "value":
        argv[at + 1] = draw(st.sampled_from(_ODD_OPTIONS))
    elif kind == "no-value":
        del argv[at + 1]
    elif kind == "drop":
        del argv[at : at + 2]
    else:
        flag = draw(st.sampled_from(["--bogus", "--epsilon0", "-x"]))
        argv.insert(at, flag)
    return flag, argv


def _names(flag, line):
    """Whether ``line`` names ``flag`` as a whole word: ``-g`` in
    ``-g/--genus`` or ``-g/-n``, not in ``--genus``."""
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", line) is not None


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(case=_mutated_options())
def test_cli_options_name_the_option_at_fault(case):
    flag, argv = case
    built = []

    def build(surface):
        built.append(surface)
        return complex_for(surface.genus, surface.marked_points)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(cli, "build_complex", build)
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), err
    if code == 2:
        assert err.startswith("curvecone: error: ") and err.count("\n") == 1, err
        assert err.endswith("\n") and _names(flag, err), err
        # Only the grid's node cap waits for the complex's top orbits.
        assert not built or err.startswith("curvecone: error: argument --mesh: grid would hold"), err
    else:
        assert err == "" and out.getvalue(), argv


def test_cli_verify_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "-g", "1", "-n", "1", "--seed", "0", "--samples", "20",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["config"]["seed"] == 0


def test_cli_verify_failure_exit_code(monkeypatch, s12, tmp_path):
    import curvecone.cli as cli_mod

    monkeypatch.setattr(cli_mod, "build_complex", lambda s: _corrupted(s12))
    out = tmp_path / "report.json"
    code = main(
        ["verify", "-g", "1", "-n", "2", "--samples", "10", "--out", str(out)]
    )
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False


def test_cli_verify_rejects_bad_options(tmp_path, capsys):
    for case in _INPUT_ERRORS["verify_rejects_bad_options"]:
        _assert_rejects("verify_rejects_bad_options", case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS["names_the_output_file"]))
def test_cli_names_the_output_file(case, tmp_path, capsys):
    _assert_rejects("names_the_output_file", case, tmp_path, capsys)


@pytest.mark.parametrize("option", ["--seed=-1", "--samples=0", "--mesh=0.3", "--mesh=nan"])
def test_cli_verify_checks_its_options_before_building(option, monkeypatch, capsys):
    # Building S(0,13) alone takes tens of seconds, and the options used to be
    # checked only after it.
    def no_build(surface):
        raise AssertionError(f"built {surface} before checking {option}")

    monkeypatch.setattr(cli, "build_complex", no_build)
    assert main(["verify", "-g", "0", "-n", "13", option]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"curvecone: error: argument {option.split('=')[0]}: "), err


@pytest.mark.parametrize("genus, marked", [(1, 1), (0, 4)])
def test_cli_verify_grid_suite_ends_on_a_one_point_grid(genus, marked):
    # A complexity-1 surface has one orbit with one edge, and mesh 8 puts
    # a single point on its grid; the grid suite used to redraw its pair
    # forever.  A subprocess, so that a hang fails instead of stalling.
    run = run_cli(["verify", "-g", str(genus), "-n", str(marked), "--mesh", "8"], timeout=60)
    assert run.returncode == 0, run.stderr
    grid = json.loads(run.stdout)["results"][-1]
    assert (grid["suite"], grid["samples"]) == ("grid_oracle", 0)


@pytest.mark.parametrize(
    "surface, orbits",
    [
        ((5, 0), []),
        ((5, 0), [{"id": f"d{d}-x", "dim": d} for d in range(12)]),
        ((10**6, 0), []),
        ((2**64, 0), []),
    ],
    ids=["none", "dims", "genus-1e6", "genus-2**64"],
)
def test_cli_dist_rejects_a_large_surface_without_building_it(tmp_path, surface, orbits):
    # A short file naming a large surface, with no orbit or one stub per
    # dimension.  The complex used to be built before the comparison,
    # taking over 40 s on S(5,0); then its first level alone ran for
    # 50 s on genus 10**6 and ended in a MemoryError.  Under a 1 GB
    # address-space limit, so that a regression fails in the child.
    cx_file = tmp_path / "large.json"
    cx_file.write_text(json.dumps({
        "schema_version": "curvecone/quotient-complex/1",
        "surface": {"genus": surface[0], "marked_points": surface[1]},
        "orbits": orbits,
    }))
    run = run_cli(["dist", *[str(cx_file)] * 3], timeout=10, address_space=1 << 30)
    assert run.returncode == 2, run.stderr
    assert run.stderr == (f"curvecone: error: complex file {cx_file}: complex payload does not "
                          "match its surface's complex at dimension 0\n")


def test_cli_internal_fault_propagates(monkeypatch, tmp_path, s12, capsys):
    # Only input errors map to exit 2; a KeyError or ValueError from the
    # computation is a bug and must surface as itself.
    import curvecone.cli as cli_mod
    from curvecone import cone_point

    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    p_file = tmp_path / "p.json"
    p_file.write_text(cone_point(s12, s12.maximal_ids[0], (1.0, 2.0)).to_json())

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli_mod, "distance", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["dist", str(cx_file), str(p_file), str(p_file)])

    def broken_verify(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli_mod, "run_verification", broken_verify)
    with pytest.raises(ValueError, match="internal"):
        main(["verify", "-g", "1", "-n", "1", "--samples", "5"])


_IMPORT_PATH_PROBE = """
import json, sys
import curvecone

def loaded():
    return sorted(m for m in sys.modules if m.startswith("curvecone.") or m == "numpy")

result = {"bare": loaded(), "quotient": curvecone.quotient.__name__}
import curvecone.cli
result["cli"] = loaded()

from curvecone import complex_from_json, cone_point
from curvecone.cli import main
work = sys.argv[1]
main(["complex", "-g", "1", "-n", "2", "--out", work + "/cx.json"])
with open(work + "/cx.json") as handle:
    cx = complex_from_json(handle.read())
for name, oid in zip("pq", cx.maximal_ids):
    k = cx.orbit(oid).n_edges
    with open(f"{work}/{name}.json", "w") as handle:
        handle.write(cone_point(cx, oid, [1.0 + i for i in range(k)]).to_json())
main(["dist", work + "/cx.json", work + "/p.json", work + "/q.json", "--out", work + "/d.json"])
result["dist"] = "numpy" in sys.modules

namespace = {}
exec("from curvecone import *", namespace)
result["all"] = curvecone.__all__
result["missing"] = [n for n in curvecone.__all__ if n not in namespace]
result["foreign"] = [
    n for n in curvecone.__all__
    if namespace[n] is not getattr(sys.modules[namespace[n].__module__], n)
]
result["undir"] = sorted({"__all__", "quotient", *curvecone.__all__} - set(dir(curvecone)))
print(json.dumps(result))
"""

# Run under ``python -S``, so that only what the CLI itself imports counts:
# ``dataclasses`` brings ``inspect``, and with it ``ast``, ``dis`` and
# ``tokenize``, into every fresh process; ``hashlib`` brings OpenSSL's
# ``_hashlib``.
_LEAN_IMPORT_PROBE = """
import sys
heavy = ("dataclasses", "inspect", "_hashlib")

def loaded():
    return [m for m in heavy if m in sys.modules]

result = {"start": loaded()}
import curvecone.cli
result["cli"] = loaded()

from curvecone import cone_point, complex_from_json
from curvecone.cli import main
work = sys.argv[1]
main(["complex", "-g", "1", "-n", "2", "--out", work + "/cx.json"])
result["complex"] = loaded()
with open(work + "/cx.json") as handle:
    cx = complex_from_json(handle.read())
for name, oid in zip("pq", (cx.maximal_ids[0], cx.maximal_ids[-1])):
    with open(f"{work}/{name}.json", "w") as handle:
        handle.write(cone_point(cx, oid, [1.0, 2.5]).to_json())
main(["dist", work + "/cx.json", work + "/p.json", work + "/q.json", "--out", work + "/d.json"])
result["dist"] = loaded()
print(repr(result))
"""


def test_cli_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    run = run_python(["-S", "-c", _LEAN_IMPORT_PROBE, str(tmp_path)], timeout=120)
    assert run.returncode == 0, run.stderr
    result = run.stdout.splitlines()[-1]
    assert result == repr({"start": [], "cli": [], "complex": [], "dist": []})
    assert json.loads((tmp_path / "d.json").read_text())["distance"] > 0


# The package's public names, which loading its modules lazily must keep.
_PUBLIC_NAMES = """
CanonicalForm ComplexMismatchError ConePoint FaceMap FenchelNielsenPoint Gallery
GeodesicResult GridOracle HalfPlanePoint InvalidMulticurve LPInfeasibleError LPResult
LPUnboundedError MulticurveGraph OrbitMismatchError ProductPoint QuotientComplex
RunReport SimplexOrbit SuiteResult Surface Transit UnsupportedSurfaceError
VertexDecoration add_curve apex brute_force_distance build_complex canonicalize
complex_from_json complex_to_dot complex_to_json cone_point delete_curve distance
extensions half_plane_distance is_stable length_coords orthant_distance
point_from_dict run_verification scale segment_lengths solve_lp
sup_product_distance symmetric_orthant_distance to_fenchel_nielsen to_plane_coords
""".split()

_CLI_MODULES = [
    f"curvecone.{m}" for m in
    ("cli", "fenchel_nielsen", "lp", "metric", "multicurves", "quotient", "surfaces", "verify")
]


def test_complex_and_dist_run_without_numpy(tmp_path):
    # numpy serves only the grid oracle and verify's sampler, so the CLI's
    # import and its complex and dist commands must not load it.  The bare
    # package loads each module only when one of its names is first read.
    run = run_python(["-c", _IMPORT_PATH_PROBE, str(tmp_path)], timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["bare"] == []
    assert result["quotient"] == "curvecone.quotient"
    assert result["cli"] == _CLI_MODULES
    assert result["dist"] is False
    assert result["all"] == _PUBLIC_NAMES
    assert result["missing"] == [] and result["foreign"] == [] and result["undir"] == []
    assert json.loads((tmp_path / "d.json").read_text())["distance"] > 0
