import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complex_for, orbit_by_structure, run_cli, run_python
from curvecone import QuotientComplex, SimplexOrbit, cone_point, fenchel_nielsen, run_verification
from curvecone.cli import main
from curvecone.lp import MAX_COORD
from curvecone.quotient import complex_from_dict, complex_to_dict, complex_to_json


def test_verification_passes_on_s12(s12):
    report = run_verification(s12, seed=0, samples=40)
    assert report.passed, report.to_json()
    names = {r.name for r in report.results}
    assert {
        "automorphism_equivariance",
        "complex_structure",
        "metric_axioms",
        "homogeneity",
        "orthant_isometry",
        "well_definedness",
        "same_orbit_consistency",
        "geodesic_consistency",
    } <= names


def test_verification_passes_on_self_glued_s07():
    # Some same-orbit pairs of S(0,7) have a gallery shorter than the
    # orthant value; the suite notes the shortcut and still passes.
    report = run_verification(complex_for(0, 7), seed=0)
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


def test_corrupted_automorphism_table_fails(s12):
    report = run_verification(_corrupted(s12), seed=0, samples=10)
    assert not report.passed
    failed = {r.name for r in report.results if not r.passed}
    assert "automorphism_equivariance" in failed


@pytest.mark.parametrize("seed, samples", [(-1, 20), (0, 0), (0, -3)])
def test_run_verification_rejects_bad_sampling(s12, seed, samples):
    # The report's config must name the seed and sample count it ran with.
    with pytest.raises(ValueError, match="samples >= 1"):
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


def test_cli_complex_rejects_unsupported(capsys):
    assert main(["complex", "-g", "0", "-n", "3"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_usage_error():
    assert main(["complex", "-g", "1"]) == 2
    assert main(["nonsense"]) == 2


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




# -- dist input errors -------------------------------------------------------------
#
# Every error in a file that ``curvecone dist`` reads exits 2 with one line,
# ``curvecone: error: <complex|point> file <path>: <message>``.  The table
# holds the cases met so far; the properties below look for the next.

_S12_TOP = "d1-57fb6950d4"
_POINT = {"schema_version": "curvecone/cone-point/1", "orbit": _S12_TOP}
_COMPLEX = "curvecone/quotient-complex/1"


def _without(key):
    return lambda valid: json.dumps({k: v for k, v in json.loads(valid).items() if k != key}).encode()


def _edited_orbit_id(valid):
    payload = json.loads(valid)
    payload["orbits"][0]["id"] = "d0-bogus"
    return json.dumps(payload).encode()


_NOT_JSON = {
    "empty": b"",
    "truncated": lambda valid: valid[: len(valid) // 2],
    "bom": b"\xff\xfe",
    "bad-byte": b"\xff{",
}

# case: (file at fault, its content, the start of the message after the
# file's name).  The content is a JSON payload, bytes, bytes made from
# those of a valid S(1,2) file, or None for no file.  The cases are
# grouped under the tests that run them.
_DIST_INPUT_ERRORS = {
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
        "complex-edited-orbit-id": ("complex", _edited_orbit_id,
                                    "complex payload does not match its surface's complex "
                                    "at dimension 0"),
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


def _assert_dist_rejects(test, case, tmp_path, capsys):
    """Run ``dist`` on valid S(1,2) files with one replaced by the case's:
    the complex file, or the point file q."""
    which, content, message = _DIST_INPUT_ERRORS[test][case]
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
    capsys.readouterr()
    assert main(["dist", *map(str, files.values())]) == 2
    err = capsys.readouterr().err
    prefix = f"curvecone: error: {which} file {bad}: "
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
    assert err[len(prefix):].startswith(message), err


def test_cli_dist_schema_mismatch(tmp_path, capsys):
    _assert_dist_rejects("schema_mismatch", "wrong", tmp_path, capsys)


def test_cli_dist_invalid_point(tmp_path, capsys):
    _assert_dist_rejects("invalid_point", "unknown-orbit", tmp_path, capsys)


def test_cli_dist_missing_file(tmp_path, capsys):
    _assert_dist_rejects("missing_file", "complex", tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(_DIST_INPUT_ERRORS["malformed_input"]))
def test_cli_dist_malformed_input(case, tmp_path, capsys):
    _assert_dist_rejects("malformed_input", case, tmp_path, capsys)


@pytest.mark.parametrize("which", sorted(_DIST_INPUT_ERRORS["rejects_deep_nesting"]))
def test_cli_dist_rejects_deep_nesting(which, tmp_path, capsys):
    _assert_dist_rejects("rejects_deep_nesting", which, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(_DIST_INPUT_ERRORS["names_a_missing_key"]))
def test_cli_dist_names_a_missing_key(case, tmp_path, capsys):
    _assert_dist_rejects("names_a_missing_key", case, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(_DIST_INPUT_ERRORS["names_a_file_that_is_not_json"]))
def test_cli_dist_names_a_file_that_is_not_json(case, tmp_path, capsys):
    _assert_dist_rejects("names_a_file_that_is_not_json", case, tmp_path, capsys)


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
    """(name of the file at fault, {name: file bytes})."""
    surface = draw(st.sampled_from(_BASES))
    docs, _ = _valid_files(surface)
    name = draw(st.sampled_from(sorted(docs)))
    files = {key: json.dumps(doc).encode() for key, doc in docs.items()}
    if draw(st.booleans()):
        files[name] = json.dumps(draw(_mutated_payload(surface, name))).encode()
    else:
        files[name] = files[name][: draw(st.integers(0, len(files[name]) - 1))]
    return name, files


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
@given(case=_mutated_dist_files())
def test_cli_dist_names_the_file_at_fault(case):
    name, files = case
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


def test_cli_verify_rejects_bad_options(capsys):
    # The collar constant is fixed, so --epsilon0 is no option.
    assert main(["verify", "-g", "1", "-n", "1", "--epsilon0", "0.1"]) == 2
    assert "unrecognized arguments: --epsilon0" in capsys.readouterr().err
    assert main(["verify", "-g", "1", "-n", "1", "--mesh", "0.3"]) == 2
    assert "error" in capsys.readouterr().err
    # A negative seed or a sample count below 1 is an input error, not a
    # failed verification or a report of negative samples.
    for option, value in (("--seed", "-1"), ("--samples", "0"), ("--samples", "-3")):
        assert main(["verify", "-g", "1", "-n", "2", option, value]) == 2
        assert "seed must be >= 0 and samples >= 1" in capsys.readouterr().err


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


# The package's public names at the time it bound them all on import.
_PUBLIC_NAMES = """
CanonicalForm ComplexMismatchError ConePoint FaceMap FenchelNielsenPoint Gallery
GeodesicResult GridOracle HalfPlanePoint InvalidMulticurve LPInfeasibleError LPResult
LPUnboundedError MulticurveGraph OrbitMismatchError ProductPoint QuotientComplex
RunReport SimplexOrbit SuiteResult Surface Transit UnsupportedSurfaceError
VertexDecoration add_curve apex brute_force_distance build_complex canonicalize
complex_from_json complex_to_dot complex_to_json cone_point delete_curve distance
dropped_edges extensions half_plane_distance is_stable length_coords orthant_distance
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
