import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import complex_for, orbit_by_structure
from curvecone import QuotientComplex, SimplexOrbit, fenchel_nielsen, run_verification
from curvecone.cli import main


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


def _dist_with_bad_q(tmp_path, capsys, bad_payload):
    """Exit code and stderr of ``dist`` with a good p and a bad q."""
    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    capsys.readouterr()
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema_version": "curvecone/cone-point/1",
                                "orbit": None, "coords": []}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_payload))
    code = main(["dist", str(cx_file), str(good), str(bad)])
    return code, capsys.readouterr().err, bad


def test_cli_dist_schema_mismatch(tmp_path, s12, capsys):
    code, err, bad = _dist_with_bad_q(tmp_path, capsys, {"schema_version": "wrong", "orbit": None})
    assert code == 2
    assert err == f"curvecone: error: point file {bad}: unsupported point schema 'wrong'\n"


def test_cli_dist_invalid_point(tmp_path, s12, capsys):
    code, err, bad = _dist_with_bad_q(
        tmp_path,
        capsys,
        {
            "schema_version": "curvecone/cone-point/1",
            "orbit": "d9-nonexistent",
            "coords": {"0": 1.0},
        },
    )
    assert code == 2
    # The unknown orbit's KeyError prints its message, not the message's repr.
    assert err == (f"curvecone: error: point file {bad}: "
                   f"no orbit 'd9-nonexistent' in complex of {s12.surface}\n")


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


_POINT = {"schema_version": "curvecone/cone-point/1", "orbit": "TOP"}
_MALFORMED = {
    # name: (which input file, its JSON; "TOP" stands for a top orbit id)
    "point-list": ("point", [1, 2]),
    "scalar-coords": ("point", {**_POINT, "coords": 5}),
    "null-coordinate": ("point", {**_POINT, "coords": [None, 1.0]}),
    "list-orbit": ("point", {**_POINT, "orbit": [1], "coords": {"0": 1.0}}),
    "same-edge-twice": ("point", {**_POINT, "coords": {"0": 1.0, "00": 2.0}}),
    "apex-coords": ("point", {**_POINT, "orbit": None, "coords": {"7": 0.0}}),
    "signed-edge-keys": ("point", {**_POINT, "coords": {"+0": 1.0, " 1": 2.0}}),
    "huge-int-coordinate": ("point", {**_POINT, "coords": {"0": 10**400}}),
    "complex-list": ("complex", []),
    "complex-surface-scalar": ("complex", {"schema_version": "curvecone/quotient-complex/1",
                                           "surface": 5, "orbits": []}),
    "complex-surface-float": ("complex", {"schema_version": "curvecone/quotient-complex/1",
                                          "surface": {"genus": 1.0, "marked_points": 2},
                                          "orbits": []}),
    "complex-surface-missing": ("complex", {"schema_version": "curvecone/quotient-complex/1",
                                            "surface": {"genus": 1}, "orbits": []}),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_dist_malformed_input(case, tmp_path, s12, capsys):
    from curvecone import cone_point

    top = s12.maximal_ids[0]
    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    good = tmp_path / "good.json"
    good.write_text(cone_point(s12, top, (1.0, 2.0)).to_json())
    which, payload = _MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload).replace('"TOP"', json.dumps(top)))
    files = [bad, good, good] if which == "complex" else [cx_file, bad, good]
    capsys.readouterr()
    assert main(["dist", *map(str, files)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvecone: error:") and "Traceback" not in err


@pytest.mark.parametrize("which", ["complex", "point"])
def test_cli_dist_rejects_deep_nesting(which, tmp_path, s12, capsys):
    # JSON decoding used to raise RecursionError with a traceback.
    from curvecone import cone_point

    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    good = tmp_path / "good.json"
    good.write_text(cone_point(s12, s12.maximal_ids[0], (1.0, 2.0)).to_json())
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    files = [bad, good, good] if which == "complex" else [cx_file, bad, good]
    capsys.readouterr()
    assert main(["dist", *map(str, files)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvecone: error:") and "nested too deeply" in err


@pytest.mark.parametrize(
    "which, key",
    [("complex", "surface"), ("complex", "orbits"), ("point", "orbit"), ("point", "coords")],
)
def test_cli_dist_names_a_missing_key(which, key, tmp_path, s12, capsys):
    # A missing key used to surface as a bare KeyError: "error: 'surface'".
    from curvecone import cone_point

    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    point_file = tmp_path / "p.json"
    point_file.write_text(cone_point(s12, s12.maximal_ids[0], (1.0, 2.0)).to_json())
    target = cx_file if which == "complex" else point_file
    payload = json.loads(target.read_text())
    del payload[key]
    target.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["dist", str(cx_file), str(point_file), str(point_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("curvecone: error:") and f"lacks '{key}'" in err


@pytest.mark.parametrize("cut", ["empty", "truncated", "bom", "bad-byte"])
@pytest.mark.parametrize("which", ["complex", "point"])
def test_cli_dist_names_a_file_that_is_not_json(which, cut, tmp_path, s12, capsys):
    # The decoder's message used to come alone: "Expecting value: line 1 ...",
    # and a file that is not UTF-8 gave only the codec's message.
    from curvecone import cone_point

    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    point_file = tmp_path / "p.json"
    point_file.write_text(cone_point(s12, s12.maximal_ids[0], (1.0, 2.0)).to_json())
    target = cx_file if which == "complex" else point_file
    data = target.read_bytes()
    cuts = {"empty": b"", "truncated": data[: len(data) // 2], "bom": b"\xff\xfe",
            "bad-byte": b"\xff{"}
    target.write_bytes(cuts[cut])
    capsys.readouterr()
    assert main(["dist", str(cx_file), str(point_file), str(point_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"curvecone: error: {which} file {target} is not valid JSON")
    assert "Traceback" not in err


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
    import curvecone

    src = str(Path(curvecone.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "curvecone.cli", "verify", "-g", str(genus), "-n", str(marked),
         "--mesh", "8"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    grid = json.loads(run.stdout)["results"][-1]
    assert (grid["suite"], grid["samples"]) == ("grid_oracle", 0)


@pytest.mark.parametrize(
    "orbits", [[], [{"id": f"d{d}-x", "dim": d} for d in range(12)]], ids=["none", "dims"]
)
def test_cli_dist_rejects_a_large_surface_without_building_it(tmp_path, orbits):
    # The short file names S(5,0), with no orbit or one stub per dimension;
    # the complex used to be built before the comparison, taking over 40 s.
    import curvecone

    cx_file = tmp_path / "g5.json"
    cx_file.write_text(json.dumps({
        "schema_version": "curvecone/quotient-complex/1",
        "surface": {"genus": 5, "marked_points": 0},
        "orbits": orbits,
    }))
    src = str(Path(curvecone.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "curvecone.cli", "dist", str(cx_file), str(cx_file), str(cx_file)],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("curvecone: error:") and "complex at dimension 0" in run.stderr


def test_cli_dist_missing_file(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["dist", missing, missing, missing]) == 2


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
    import curvecone

    src = str(Path(curvecone.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-S", "-c", _LEAN_IMPORT_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
    import curvecone

    src = str(Path(curvecone.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["bare"] == []
    assert result["quotient"] == "curvecone.quotient"
    assert result["cli"] == _CLI_MODULES
    assert result["dist"] is False
    assert result["all"] == _PUBLIC_NAMES
    assert result["missing"] == [] and result["foreign"] == [] and result["undir"] == []
    assert json.loads((tmp_path / "d.json").read_text())["distance"] > 0
