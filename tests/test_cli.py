import json
import os
import subprocess
import sys

import numpy as np
import pytest

from formsteklov import cli, mesh, steklov, verify
from formsteklov.errors import UnknownCheckError

try:
    import jsonschema
except ImportError:    # pragma: no cover
    jsonschema = None


def _schema(name):
    import formsteklov
    path = os.path.join(os.path.dirname(formsteklov.__file__), "schemas", name)
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def test_setup_path_does_not_load_scipy_special():
    """Importing the CLI and a coarse primal solve, in a fresh interpreter,
    leave scipy.special unloaded: only the elliptic-integral boundary
    measures of the ellipse and the ellipsoid need it, and its import
    alone costs about a tenth of that setup."""
    code = ("import sys; import formsteklov.cli; "
            "from formsteklov import mesh, steklov; "
            "K = mesh.generate(mesh.disk(2)); "
            "[steklov.solve_primal(K, p) for p in (0, 1)]; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def _src_env():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_passes_the_exit_code_through(tmp_path):
    """``python -m formsteklov`` exits with the CLI's code: 0 for a mesh
    written, 2 for an ellipse with a < b."""
    def gen(*flags):
        return subprocess.run(
            [sys.executable, "-m", "formsteklov", "gen", *flags,
             "--out", "m.smesh"], cwd=tmp_path, env=_src_env(),
            capture_output=True, text=True, timeout=120).returncode

    assert gen("--domain", "disk", "--level", "0") == 0
    assert mesh.read_mesh(tmp_path / "m.smesh").n_simplices(2) == 8
    assert gen("--domain", "ellipse", "--a", "0.5", "--b", "1") == 2


def test_verify_report_is_independent_of_blas_threads(tmp_path):
    """CHK-HODGE and CHK-ESC read the boundary lambda1, whose last digits
    moved between one and two OpenBLAS threads while it came from a dense
    LAPACK eigensolve; the whole report now repeats under both."""
    runs = []
    for threads in ("1", "2"):
        env = dict(_src_env(), OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-m", "formsteklov", "--deterministic", "verify",
             "--domain", "disk", "--checks", "CHK-HODGE,CHK-ESC",
             "--report", f"t{threads}"], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        with open(tmp_path / f"t{threads}.json", encoding="utf-8") as f:
            report = json.load(f)
        assert report["config"].pop("report") == f"t{threads}"
        tables = [(tmp_path / f"t{threads}{suffix}").read_bytes() for suffix
                  in ("_levels.csv", "_extrapolated.csv", "_levels.svg")]
        runs.append((out.stdout, report, tables))
    assert runs[0] == runs[1]


def test_gen_ball_level2(tmp_path):
    out = tmp_path / "ball2.smesh"
    rc = cli.main(["gen", "--domain", "ball", "--level", "2",
                   "--out", str(out)])
    assert rc == 0
    K = mesh.read_mesh(out)
    assert K.n_simplices(3) == 512


def test_gen_annulus_two_components(tmp_path):
    out = tmp_path / "ann.smesh"
    rc = cli.main(["gen", "--domain", "annulus", "--rin", "0.5",
                   "--rout", "1", "--level", "1", "--out", str(out)])
    assert rc == 0
    K = mesh.read_mesh(out)
    assert len(K.boundary_complex().components()) == 2


def test_gen_ellipse_snapped(tmp_path):
    out = tmp_path / "ell.smesh"
    rc = cli.main(["gen", "--domain", "ellipse", "--a", "1", "--b", "0.7",
                   "--level", "3", "--out", str(out)])
    assert rc == 0
    K = mesh.read_mesh(out)
    bv = K.vertices[K.boundary_simplices[0]]
    assert np.abs(bv[:, 0] ** 2 + (bv[:, 1] / 0.7) ** 2 - 1).max() < 1e-12


def test_gen_invalid_parameters_exit2(tmp_path):
    rc = cli.main(["gen", "--domain", "annulus", "--rin", "1", "--rout",
                   "0.5", "--out", str(tmp_path / "x.smesh")])
    assert rc == 2


def test_spectrum_disk_sweep(tmp_path):
    out = tmp_path / "spec.json"
    rc = cli.main(["spectrum", "--domain", "disk", "--degree", "0",
                   "--count", "7", "--levels", "2", "3", "4",
                   "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    if jsonschema:
        jsonschema.validate(data, _schema("spectrum.schema.json"))
    ext = [s["extrapolated"] for s in data["convergence"]]
    assert np.allclose(ext, [0, 1, 1, 2, 2, 3, 3], atol=0.02)
    assert "config" in data and data["config"]["degree"] == 0


def test_spectrum_dual_flag(tmp_path):
    out = tmp_path / "dual.json"
    rc = cli.main(["spectrum", "--domain", "disk", "--degree", "0", "--dual",
                   "--count", "3", "--levels", "2", "3", "4",
                   "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["spectra"][0]["dual"] is True
    lead = data["convergence"][0]["extrapolated"]
    assert abs(lead - 2.0) < 0.05


def test_spectrum_sweep_with_short_coarse_level(tmp_path):
    # ball level 0 has nb = 6 boundary DOFs, so it returns 6 of the 8
    out = tmp_path / "ball.json"
    rc = cli.main(["spectrum", "--domain", "ball", "--levels", "0", "1", "2",
                   "--count", "8", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert [len(s["eigenvalues"]) for s in data["spectra"]] == [6, 8, 8]
    assert [s["quantity"] for s in data["convergence"]] \
        == [f"eigenvalue[{i}]" for i in range(6)]


def test_spectrum_from_mesh_file(tmp_path):
    mfile = tmp_path / "m.smesh"
    mesh.write_mesh(mfile, mesh.generate(mesh.disk(2)))
    out = tmp_path / "s.json"
    rc = cli.main(["spectrum", "--mesh", str(mfile),
                   "--degree", "0", "--count", "3", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["spectrum"]["eigenvalues"]) == 3
    # no domain was given, so no domain parameter is recorded
    assert not {"domain", "a", "rin", "lx"} & set(data["config"])


def test_spectrum_without_domain_or_mesh_exits_2(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(steklov, "solve_primal", _no_solve)
    assert cli.main(["spectrum", "--level", "1"]) == 2
    assert (capsys.readouterr().err
            == "error: spectrum needs --domain or --mesh\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("body", ["smesh 2 3 1\nnan 0\n1 0\n0 1\n0 1 2\n",
                                  "smesh 2 x 1\n"],
                         ids=["nan-coordinate", "bad-header"])
def test_spectrum_from_malformed_mesh_exits_2(tmp_path, monkeypatch, capsys,
                                              body):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.smesh").write_text(body)
    monkeypatch.setattr(steklov, "solve_primal", _no_solve)
    assert cli.main(["spectrum", "--mesh", "m.smesh"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# an inverted top, a zero-volume top, an edge shared by three triangles,
# two triangles sharing only a vertex, two tetrahedra sharing only an
# edge, a vertex on no top
@pytest.mark.parametrize("body", [
    "smesh 2 3 1\n0 0\n1 0\n0 1\n0 2 1\n",
    "smesh 2 3 1\n0 0\n1 0\n2 0\n0 1 2\n",
    "smesh 2 5 3\n0 0\n1 0\n0.5 1\n0.5 2\n0.5 -1\n0 1 2\n0 1 3\n1 0 4\n",
    "smesh 2 5 2\n0 0\n1 0\n1 1\n-1 0\n-1 -1\n0 1 2\n0 3 4\n",
    "smesh 3 6 2\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 -1 0\n0 0 -1\n"
    "0 1 2 3\n0 1 4 5\n",
    "smesh 2 4 1\n5 5\n0 0\n1 0\n0 1\n1 2 3\n"],
    ids=["inverted", "zero-volume", "non-manifold", "bowtie",
         "edge-sharing-tets", "stray-vertex"])
def test_spectrum_from_bad_geometry_mesh_exits_2(tmp_path, monkeypatch,
                                                 capsys, body):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.smesh").write_text(body)
    monkeypatch.setattr(steklov, "solve_primal", _no_solve)
    assert cli.main(["spectrum", "--mesh", "m.smesh"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--mesh", "missing.smesh"],
    ["gen", "--domain", "disk", "--out", "missing-dir/x.smesh"],
    ["spectrum", "--domain", "disk", "--level", "0",
     "--out", "missing-dir/s.json"],
    ["verify", "--domain", "disk", "--levels", "1", "2", "3",
     "--checks", "CHK-KER", "--report", "missing-dir/r"]],
    ids=["spectrum-mesh", "gen-out", "spectrum-out", "verify-report"])
def test_bad_file_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "missing" in err


def test_verify_kernel_check_annulus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["verify", "--domain", "annulus", "--rin", "0.5",
                   "--rout", "1", "--levels", "0", "1", "2",
                   "--checks", "CHK-KER", "--report", "rep"])
    assert rc == 0
    data = json.loads((tmp_path / "rep.json").read_text())
    if jsonschema:
        jsonschema.validate(data, _schema("report.schema.json"))
    rows = {r["case"]: r for r in data["runs"]}
    assert rows["p=1"]["verdict"] == "PASS"
    assert (tmp_path / "rep_extrapolated.csv").exists()
    assert (tmp_path / "rep_levels.csv").exists()


def test_verify_report_records_every_spectrum(tmp_path, monkeypatch):
    """<report>.json holds one work record per Steklov spectrum the Lab
    computed, with as many eigenvalues as the checks read (b_p + 1 primal,
    one dual), and their solves add up to those of every spectrum
    solved."""
    computed = []
    pencil = steklov._pencil_spectrum

    def recorded(*args, **kwargs):
        computed.append(pencil(*args, **kwargs))
        return computed[-1]

    monkeypatch.setattr(steklov, "_pencil_spectrum", recorded)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", "--domain", "disk", "--levels", "1", "2", "3",
                     "--checks", "CHK-KER,CHK-DUAL", "--report", "rep"]) == 0
    data = json.loads((tmp_path / "rep.json").read_text())
    if jsonschema:
        jsonschema.validate(data, _schema("report.schema.json"))
    records = data["spectra"]
    assert len(records) == len(computed) == 7
    assert sum(r["solves"] for r in records) == sum(
        r.solves for r in computed) > 0
    counts = {(r["degree"], r["dual"], r["level"]): len(r["eigenvalues"])
              for r in records}
    assert counts == {(0, False, 3): 2, (1, False, 1): 1, (1, False, 2): 1,
                      (1, False, 3): 1, (0, True, 1): 1, (0, True, 2): 1,
                      (0, True, 3): 1}
    assert {r["family"] for r in records} == {"disk"}


def test_verify_outputs_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["verify", "--domain", "disk", "--levels", "1", "2", "3",
            "--checks", "CHK-KER,CHK-SYM/PSD"]
    assert cli.main(["--deterministic"] + args + ["--report", "a"]) == 0
    assert cli.main(["--deterministic"] + args + ["--report", "b"]) == 0
    # the flag is accepted but selects nothing: every run is serial
    assert cli.main(args + ["--report", "c"]) == 0
    ja, jb, jc = (json.loads((tmp_path / f"{x}.json").read_text())
                  for x in "abc")
    for j in (ja, jb, jc):
        del j["config"]["report"], j["config"]["deterministic"]
    assert ja == jb == jc


def test_verify_with_fewer_than_three_levels_exits_2(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    for levels in (["--levels", "1"], ["--levels", "3", "4"]):
        rc = cli.main(["verify", "--domain", "disk", *levels,
                       "--checks", "CHK-EQ1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "3 levels" in err
    assert not list(tmp_path.iterdir())


def _no_solve(*args, **kwargs):
    raise AssertionError("argument errors must be found before any solve")


@pytest.mark.parametrize("extra", [["--count", "0"], ["--count", "-2"],
                                   ["--degree", "5"],
                                   ["--degree", "3", "--dual"]],
                         ids=["count0", "count-2", "degree5", "dual-degree3"])
@pytest.mark.parametrize("where", [["--level", "2"], ["--mesh", "m.smesh"]],
                         ids=["sweep", "mesh"])
def test_spectrum_bad_arguments_exit_2(tmp_path, monkeypatch, capsys, where,
                                       extra):
    monkeypatch.chdir(tmp_path)
    mesh.write_mesh(tmp_path / "m.smesh", mesh.generate(mesh.ball(0)))
    monkeypatch.setattr(steklov, "solve_primal", _no_solve)
    monkeypatch.setattr(steklov, "dual_spectrum", _no_solve)
    rc = cli.main(["spectrum", "--domain", "ball", *where, *extra,
                   "--out", "s.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert extra[0] in err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command,levels", [
    ("verify", ["2", "2", "2"]), ("verify", ["3", "2", "1"]),
    ("spectrum", ["3", "2", "1"]), ("spectrum", ["2", "2"])],
    ids=["verify-repeated", "verify-descending", "spectrum-descending",
         "spectrum-repeated"])
def test_levels_out_of_order_exit_2(tmp_path, monkeypatch, capsys, command,
                                    levels):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(steklov, "solve_primal", _no_solve)
    monkeypatch.setattr(verify, "run_suite", _no_solve)
    rc = cli.main([command, "--domain", "disk", "--levels", *levels])
    assert rc == 2
    assert (capsys.readouterr().err
            == "error: --levels must be strictly increasing\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("domain", [
    ["ellipse", "--a", "nan"], ["ellipse", "--a", "inf"],
    ["box", "--lx", "nan"], ["annulus", "--rin", "nan"]],
    ids=["ellipse-a-nan", "ellipse-a-inf", "box-lx-nan", "annulus-rin-nan"])
def test_non_finite_domain_parameters_exit_2(tmp_path, monkeypatch, capsys,
                                             domain):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(steklov, "solve_primal", _no_solve)
    rc = cli.main(["spectrum", "--domain", *domain, "--level", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: all metric parameters must be finite and positive\n"


def test_verify_unknown_check_id_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "run_suite", _no_solve)
    for checks in ("CHK-FOO", "CHK-KER,CHK-FOO"):
        rc = cli.main(["verify", "--domain", "disk", "--checks", checks,
                       "--levels", "2", "3", "4"])
        assert rc == 2
        assert capsys.readouterr().err == "error: unknown check id CHK-FOO\n"
    assert not list(tmp_path.iterdir())
    with pytest.raises(UnknownCheckError):
        verify.run_check("CHK-FOO", mesh.disk(2))
