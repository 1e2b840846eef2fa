import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import orbit_by_structure
from curvecone import QuotientComplex, run_verification
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
        "simple_galleries",
    } <= names


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
    bad = dataclasses.replace(sn, automorphisms=sn.automorphisms + ((1, 0),))
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


def test_report_reproducible_modulo_timings(s12):
    a = run_verification(s12, seed=7, samples=15)
    b = run_verification(s12, seed=7, samples=15)
    assert a.to_json(include_timings=False) == b.to_json(include_timings=False)
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


def test_cli_dist_schema_mismatch(tmp_path, s12, capsys):
    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": "wrong", "orbit": None}))
    assert main(["dist", str(cx_file), str(bad), str(bad)]) == 2


def test_cli_dist_invalid_point(tmp_path, s12, capsys):
    cx_file = tmp_path / "cx.json"
    main(["complex", "-g", "1", "-n", "2", "--out", str(cx_file)])
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "schema_version": "curvecone/cone-point/1",
                "orbit": "d9-nonexistent",
                "coords": {"0": 1.0},
            }
        )
    )
    assert main(["dist", str(cx_file), str(bad), str(bad)]) == 2


_POINT = {"schema_version": "curvecone/cone-point/1", "orbit": "TOP"}
_MALFORMED = {
    # name: (which input file, its JSON; "TOP" stands for a top orbit id)
    "point-list": ("point", [1, 2]),
    "scalar-coords": ("point", {**_POINT, "coords": 5}),
    "null-coordinate": ("point", {**_POINT, "coords": [None, 1.0]}),
    "list-orbit": ("point", {**_POINT, "orbit": [1], "coords": {"0": 1.0}}),
    "same-edge-twice": ("point", {**_POINT, "coords": {"0": 1.0, "00": 2.0}}),
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
    assert main(["verify", "-g", "1", "-n", "1", "--epsilon0", "2"]) == 2
    assert main(["verify", "-g", "1", "-n", "1", "--mesh", "0.3"]) == 2
    assert "error" in capsys.readouterr().err
    # A negative seed or a sample count below 1 is an input error, not a
    # failed verification or a report of negative samples.
    for option, value in (("--seed", "-1"), ("--samples", "0"), ("--samples", "-3")):
        assert main(["verify", "-g", "1", "-n", "2", option, value]) == 2
        assert option in capsys.readouterr().err


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
loaded = {}
import curvecone.cli
loaded["import"] = "numpy" in sys.modules

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
loaded["dist"] = "numpy" in sys.modules

import curvecone
lazy = [curvecone.GridOracle.__name__, curvecone.brute_force_distance.__name__]
namespace = {}
exec("from curvecone import *", namespace)
star = sorted(n for n in curvecone.__all__ if n not in namespace)
print(json.dumps({"loaded": loaded, "lazy": lazy, "missing": star}))
"""


def test_complex_and_dist_run_without_numpy(tmp_path):
    # numpy serves only the grid oracle and verify's sampler, so the CLI's
    # import and its complex and dist commands must not load it.
    import curvecone

    src = str(Path(curvecone.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["loaded"] == {"import": False, "dist": False}
    assert result["lazy"] == ["GridOracle", "brute_force_distance"]
    assert result["missing"] == []
    assert json.loads((tmp_path / "d.json").read_text())["distance"] > 0
