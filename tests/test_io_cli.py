import json
import math
from pathlib import Path

import numpy as np
import pytest

from varifold_lab import (
    ConicVarifold,
    DiscreteVarifold,
    RayPiece,
    SampledDensity,
    SegmentPiece,
    Subspace,
    circle_grid,
    conic_atoms,
    load_varifold,
    save_varifold,
)
from varifold_lab.cli import run
from varifold_lab.fixtures import random_varifold, y_junction
from varifold_lab.io import SchemaError, format_float, load_subspace, save_subspace


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    v = random_varifold(rng, 3, n_segments=5, n_rays=3)
    path = tmp_path / "v.json"
    save_varifold(path, discrete=v)
    doc = load_varifold(path)
    back = doc.require_discrete()
    lhs = sorted((tuple(s.a), tuple(s.b), s.weight) for s in v.segments)
    rhs = sorted((tuple(s.a), tuple(s.b), s.weight) for s in back.segments)
    assert lhs == rhs  # exact float equality after the decimal round trip
    lhs_r = sorted((tuple(r.origin), tuple(r.direction), r.weight) for r in v.rays)
    rhs_r = sorted((tuple(r.origin), tuple(r.direction), r.weight) for r in back.rays)
    assert lhs_r == rhs_r


def test_conic_round_trip_with_density(tmp_path):
    grid = circle_grid(64)
    c = ConicVarifold(
        2,
        np.array([[1.0, 0.0]]),
        np.array([0.7]),
        SampledDensity(grid, 1.0 + 0.25 * np.sin(grid.angles) ** 2),
    )
    path = tmp_path / "c.json"
    save_varifold(path, conic=c)
    back = load_varifold(path).require_conic()
    assert np.array_equal(back.atom_directions, c.atom_directions)
    assert np.array_equal(back.atom_masses, c.atom_masses)
    assert back.density.grid.descriptor == "s1:64"
    assert np.array_equal(back.density.values, c.density.values)


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_varifold(bad)
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"ambient_dim": 2}))
    with pytest.raises(SchemaError):
        load_varifold(empty)


def test_format_float_lossless():
    for x in (1 / 3, math.pi, 1e-300, 123456.789):
        assert float(format_float(x)) == x


def test_determinism_identical_outputs(tmp_path):
    rng = np.random.default_rng(5)
    v = random_varifold(rng, 2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_varifold(p1, discrete=v)
    save_varifold(p2, discrete=v)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    status, _ = run(["frobnicate"])
    assert status == 2


def test_check_stationary_cli(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction())
    status, manifest = run(["check-stationary", "y.json"])
    out = capsys.readouterr().out
    assert status == 0
    assert "max residual mass: 0" in out


def test_check_stationary_csv_and_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    v = DiscreteVarifold(2, (SegmentPiece([0, 0], [1, 0], 2.0),), ())
    save_varifold("seg.json", discrete=v)
    status, manifest = run(["check-stationary", "seg.json", "--out", "table.csv"])
    assert status == 0
    lines = Path("table.csv").read_text().strip().splitlines()
    assert lines[0] == "x1,x2,omega1,omega2,mass"
    assert len(lines) == 3
    meta = json.loads(Path("table.manifest.json").read_text())
    assert meta["outputs"] == ["table.csv"]
    assert meta["tool_version"]


def test_project_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from varifold_lab.fixtures import full_line

    save_varifold("line.json", discrete=full_line([0.0, 0.0], [1.0, 1.0]))
    save_subspace("p.json", Subspace.span([1.0, 0.0]))
    status, _ = run(["project", "line.json", "--subspace", "p.json", "--out", "image.json"])
    assert status == 0
    image = load_varifold("image.json").require_discrete()
    assert all(r.weight == pytest.approx(math.sqrt(2) / 2, abs=1e-12) for r in image.rays)
    status, _ = run(["project", "line.json", "--subspace", "p.json", "--mapping",
                     "--out", "image2.json"])
    assert status == 0
    image2 = load_varifold("image2.json").require_discrete()
    assert all(r.weight == 1.0 for r in image2.rays)


def test_surgery_cli_and_degenerate_exit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction())
    status, _ = run(["surgery", "y.json", "--center", "0,0", "--radius", "0.5",
                     "--out", "cut"])
    assert status == 0
    combined = load_varifold("cut.json").require_discrete()
    assert len(combined.rays) == 3 and len(combined.segments) == 3
    assert Path("cut.boundary.csv").exists()
    # tangent chord: exit code 1 for degenerate geometry
    v = DiscreteVarifold(2, (SegmentPiece([-2, 0.5], [2, 0.5], 1.0),), ())
    save_varifold("tangent.json", discrete=v)
    status, _ = run(["surgery", "tangent.json", "--center", "0,0", "--radius", "0.5"])
    assert status == 1


def test_counterexample_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    status, _ = run(["counterexample", "--directions", "45", "--out", "diff.csv"])
    assert status == 0
    rows = Path("diff.csv").read_text().strip().splitlines()
    assert rows[0] == "angle,m_v1,m_v2,diff"
    assert len(rows) == 46
    diffs = [abs(float(r.split(",")[3])) for r in rows[1:]]
    assert max(diffs) < 1e-10


def test_reconstruct_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    from varifold_lab.fixtures import random_conic

    cone = random_conic(rng, 3, n_atoms=4)
    save_varifold("cone.json", conic=cone)
    status, _ = run(["reconstruct", "cone.json", "--report", "res.csv",
                     "--out", "recon.json"])
    assert status == 0
    rows = Path("res.csv").read_text().strip().splitlines()
    assert len(rows) == 5
    errs = [float(r.split(",")[-2]) for r in rows[1:]]
    assert max(errs) < 1e-6
    recon = load_varifold("recon.json").require_conic()
    assert recon.n_atoms == 4


@pytest.mark.parametrize("recon_atoms,row", [
    # both reconstructed atoms lie sqrt(2) from the cone's: the first is taken
    ([([0.0, 1.0], 0.5), ([0.0, -1.0], 3.0)], "1,0,2,1.4142135623730951,1.5"),
    ([], "1,0,2,inf,2"),  # nothing reconstructed: the whole mass is missing
])
def test_reconstruct_residuals_take_the_first_nearest_atom(tmp_path, monkeypatch,
                                                            recon_atoms, row):
    monkeypatch.chdir(tmp_path)
    save_varifold("c.json", conic=conic_atoms(2, [([1.0, 0.0], 2.0)]))
    monkeypatch.setattr("varifold_lab.cli.reconstruct_conic",
                        lambda *args, **kwargs: conic_atoms(2, recon_atoms))
    assert run(["reconstruct", "c.json", "--report", "r.csv"])[0] == 0
    assert Path("r.csv").read_text().splitlines()[1] == row


def test_reconstruct_from_measurements(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    from varifold_lab import BandOracle, hyperplane_of, marginal_direction_battery
    from varifold_lab.fixtures import random_conic
    from varifold_lab.io import write_csv

    rng = np.random.default_rng(13)
    cone = random_conic(rng, 3, n_atoms=2)
    oracle = BandOracle(cone)
    rows = []
    # externally produced band table: fine bands around each true slope
    v = np.array([0.0, 0.0, 1.0])
    if min(abs(float(np.dot(z, v))) for z in cone.atom_directions) < 0.2:
        v = np.array([1.0, 0.0, 0.0])
    plane = hyperplane_of(v)
    for xi in marginal_direction_battery(plane):
        lams = cone.atom_directions @ xi / (cone.atom_directions @ v)
        for lam in lams:
            m = oracle(v, xi, [(lam - 1e-9, lam + 1e-9)])[0]
            rows.append(tuple(v) + tuple(xi) + (lam - 1e-9, lam + 1e-9, m))
    header = ["v1", "v2", "v3", "xi1", "xi2", "xi3", "s", "t", "band_mass"]
    write_csv("bands.csv", header, rows)
    status, _ = run(["reconstruct", "--from-measurements", "bands.csv",
                     "--ambient-dim", "3", "--out", "got.json"])
    assert status == 0
    got = load_varifold("got.json").require_conic()
    assert got.n_atoms == 2
    for i in range(2):
        d = np.linalg.norm(got.atom_directions - cone.atom_directions[i], axis=1)
        assert d.min() < 1e-6


def test_reconstruct_from_measurements_merges_normals(tmp_path, monkeypatch):
    # one atom seen from two normals is one atom, not the sum of two
    monkeypatch.chdir(tmp_path)
    from varifold_lab import BandOracle, conic_atoms, hyperplane_of, marginal_direction_battery
    from varifold_lab.io import write_csv

    z = np.array([1.0, 0.4, 1.2]) / np.linalg.norm([1.0, 0.4, 1.2])
    oracle = BandOracle(conic_atoms(3, [(z, 1.5)]))
    rows = []
    for v in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])):
        for xi in marginal_direction_battery(hyperplane_of(v)):
            lam = float(z @ xi / (z @ v))
            band = (lam - 1e-9, lam + 1e-9)
            rows.append(tuple(v) + tuple(xi) + band + (oracle(v, xi, [band])[0],))
    write_csv("bands.csv", ["v1", "v2", "v3", "xi1", "xi2", "xi3", "s", "t", "band_mass"], rows)
    status, _ = run(["reconstruct", "--from-measurements", "bands.csv",
                     "--ambient-dim", "3", "--out", "got.json"])
    assert status == 0
    got = load_varifold("got.json").require_conic()
    assert got.n_atoms == 1
    assert np.linalg.norm(got.atom_directions[0] - z) < 1e-8
    assert got.atom_masses[0] == pytest.approx(1.5, abs=1e-8)


def test_blowup_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction())
    status, _ = run(["blowup", "y.json", "--point", "0,0",
                     "--lambdas", "0.5,0.25,0.125", "--out", "b"])
    assert status == 0
    cone = load_varifold("b.cone.json").require_conic()
    assert cone.n_atoms == 3
    rows = Path("b.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,weak_star_distance"
    assert all(float(r.split(",")[1]) == 0.0 for r in rows[1:])


def test_blowup_cli_zero_density_is_domain_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction())
    status, _ = run(["blowup", "y.json", "--point", "5,5", "--lambdas", "0.5,0.25"])
    assert status == 1


def test_blowup_cli_collapsing_segment_is_domain_error(tmp_path, monkeypatch, capsys):
    # the segment's start snaps onto the point, which is its other end
    monkeypatch.chdir(tmp_path)
    v = DiscreteVarifold(2, (SegmentPiece([0, 0], [1e-10, 0], 1.0),),
                         (RayPiece([1e-10, 0], [1, 0], 1.0), RayPiece([0, 0], [-1, 0], 1.0)))
    save_varifold("v.json", discrete=v)
    status, _ = run(["blowup", "v.json", "--point", "1e-10,0", "--lambdas", "0.5,0.25"])
    assert status == 1
    assert capsys.readouterr().err == (
        "DegenerateGeometryError: a segment collapses onto the split point\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_blowup_cli_near_end_is_zero_density(tmp_path, monkeypatch, capsys):
    # the end is 0.9e-9 along and 0.9e-9 across from the point, 1.27e-9
    # away: off the segment, so no density and no cone
    monkeypatch.chdir(tmp_path)
    Path("v.json").write_text(
        '{"ambient_dim": 2, "segments": [{"a": [-1, 0], "b": [-0.9e-9, 0], "weight": 1.0}]}')
    status, _ = run(["blowup", "v.json", "--point", "0,0.9e-9", "--lambdas", "0.5,0.25"])
    assert status == 1
    assert capsys.readouterr().err == (
        "ZeroDensityError: point carries no density; every blow-up is empty\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]


def test_blowup_cli_generic_segment_through_point(tmp_path, monkeypatch):
    # x is the midpoint of a segment off every axis: the cone is its two halves
    monkeypatch.chdir(tmp_path)
    v = DiscreteVarifold(3, (SegmentPiece([-1.0, 0.5, 0.25], [1.2, -0.1, 0.35], 1.0),), ())
    save_varifold("v.json", discrete=v)
    status, _ = run(["blowup", "v.json", "--point", "0.1,0.2,0.3",
                     "--lambdas", "0.5,0.25,0.125", "--out", "b"])
    assert status == 0
    cone = load_varifold("b.cone.json").require_conic()
    assert cone.n_atoms == 2 and list(cone.atom_masses) == [1.0, 1.0]


def test_fixture_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, _ = run(["fixture", "dense-lines", "--k", "6", "--seed", "2", "--out", "dl"])
    assert status == 0
    v = load_varifold("dl.json").require_discrete()
    assert len(v.rays) == 12
    growth = Path("dl.growth.csv").read_text().strip().splitlines()
    assert growth[0] == "k,radial_cap_mass"
    for name, out in [("line", "line.json"), ("y-junction", "y_junction.json"),
                      ("y-cone", "y_cone.json")]:
        status, _ = run(["fixture", name])
        assert status == 0
        assert Path(out).exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["a", "weight"])
def test_check_stationary_non_finite_input_exits_2(tmp_path, monkeypatch, capsys, bad, field):
    monkeypatch.chdir(tmp_path)
    seg = {"a": [0.0, 0.0], "b": [1.0, 0.0], "weight": 1.0}
    seg[field] = [bad, 0.0] if field == "a" else bad
    text = json.dumps({"ambient_dim": 2, "segments": [seg], "rays": []})
    Path("v.json").write_text(text.replace(f'"{bad}"', bad))
    status, _ = run(["check-stationary", "v.json"])
    assert status == 2
    assert "max residual mass" not in capsys.readouterr().out


@pytest.mark.parametrize("row", [
    "0,0,0,1,0,0,0.1,0.2,1.0",      # zero normal
    "0,0,1,0,0,0,0.1,0.2,1.0",      # zero direction
    "0,0,1,1,0,0,abc,0.2,1.0",      # non-numeric cell
    "0,0,1,1,0,0,0.1,0.2",          # missing cell
    "0,0,1,1,0,0,0.1,0.2,nan",      # non-finite cell
    "1e-200,0,0,0,1,0,0.1,0.2,1.0",  # v too small to normalize
    "0,0,1,1e200,0,0,0.1,0.2,1.0",  # xi too large to normalize
    "0,0,1,0,0,2,0.1,0.2,1.0",      # xi parallel to v
    "0,0,1,1,0,0,0.2,0.2,1.0",      # s == t
    "0,0,1,1,0,0,0.3,0.2,1.0",      # s > t
])
def test_reconstruct_from_measurements_bad_row_exits_2(tmp_path, monkeypatch, capsys, row):
    monkeypatch.chdir(tmp_path)
    Path("bands.csv").write_text("v1,v2,v3,xi1,xi2,xi3,s,t,band_mass\n0,0,1,1,0,0,0.1,0.2,1.0\n"
                                 + row + "\n")
    status, _ = run(["reconstruct", "--from-measurements", "bands.csv", "--ambient-dim", "3"])
    assert status == 2
    assert "line 3" in capsys.readouterr().err


_BAD_INPUTS = {
    "empty.csv": "",
    "one.csv": "v1,xi1,s,t,band_mass\n1,1,0.1,0.2,1.0\n",
    "c1.json": '{"ambient_dim": 1, "conic": {"atoms": [{"dir": [1.0], "mass": 1.0}]}}',
    "p3.json": '{"ambient_dim": 3, "basis": [[1.0, 0.0, 0.0]]}',
}


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--from-measurements", "empty.csv", "--ambient-dim", "3"],
    ["reconstruct", "--from-measurements", "one.csv", "--ambient-dim", "1"],
    ["reconstruct", "c1.json"],
    ["project", "y.json", "--subspace", "p3.json"],  # a subspace of R^3 for a varifold in R^2
], ids=["empty-measurements", "ambient-dim-1", "cone-in-R1", "subspace-dimension"])
def test_reconstruct_and_project_bad_inputs_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in _BAD_INPUTS.items():
        Path(name).write_text(text)
    save_varifold("y.json", discrete=y_junction())
    status, _ = run(argv)
    assert status == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("SchemaError: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in Path().iterdir()) == sorted([*_BAD_INPUTS, "y.json"])


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_json_non_finite_constants_are_schema_errors(tmp_path, bad):
    path = tmp_path / "v.json"
    path.write_text('{"ambient_dim": 2, "segments": [{"a": [0, 0], "b": [1, 0], "weight": %s}]}'
                    % bad)
    with pytest.raises(SchemaError, match=bad):
        load_varifold(path)
    path.write_text('{"ambient_dim": 2, "basis": [[1.0, %s]]}' % bad)
    with pytest.raises(SchemaError, match=bad):
        load_subspace(path)


# NaN and Infinity stop at the JSON parser; 1e400 parses to inf and stops
# at the cone's own finiteness checks
@pytest.mark.parametrize("conic", [
    '{"atoms": [{"dir": [1.0, 0.0], "mass": NaN}]}',
    '{"atoms": [{"dir": [1.0, 0.0], "mass": Infinity}]}',
    '{"atoms": [{"dir": [-Infinity, 0.0], "mass": 1.0}]}',
    '{"atoms": [{"dir": [1.0, 0.0], "mass": 1e400}]}',
    '{"atoms": [{"dir": [1e400, 0.0], "mass": 1.0}]}',
    '{"atoms": [], "density": {"grid": "s1:4", "values": [1e400, 0, 0, 0]}}',
])
def test_reconstruct_non_finite_cone_exits_2(tmp_path, monkeypatch, capsys, conic):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text('{"ambient_dim": 2, "conic": %s}' % conic)
    status, _ = run(["reconstruct", "c.json"])
    assert status == 2
    assert "max mass error" not in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--point", "0,x", "--lambdas", "0.5,0.25"],          # non-numeric point
    ["--point", "0,0,0", "--lambdas", "0.5,0.25"],        # 3-vector in R^2
    ["--point", "nan,0", "--lambdas", "0.5,0.25"],        # non-finite point
    ["--point", "0,0", "--lambdas", "1,2"],               # increasing
    ["--point", "0,0", "--lambdas", "1,inf"],             # infinite
    ["--point", "0,0", "--lambdas", "1,0.5,nan"],         # NaN after a valid prefix
    ["--point", "0,0", "--lambdas", "0.5,-0.25"],         # negative
    ["--point", "0,0", "--lambdas", "0.5,abc"],           # non-numeric
])
def test_blowup_bad_arguments_exit_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction())
    status, _ = run(["blowup", "y.json"] + args)
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: --")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--center", "0,y", "--radius", "0.5"],
    ["--center", "0,0,0", "--radius", "0.5"],
    ["--center", "0,inf", "--radius", "0.5"],
    ["--center", "0.05,0", "--radius", "-0.5"],
    ["--center", "0.05,0", "--radius", "0"],
    ["--center", "0.05,0", "--radius", "nan"],
])
def test_surgery_bad_arguments_exit_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction())
    status, _ = run(["surgery", "y.json"] + args)
    assert status == 2
    assert capsys.readouterr().err.startswith("SchemaError: --")
    assert not Path("y.surgery.json").exists()


def test_missing_input_is_io_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, _ = run(["check-stationary", "nope.json"])
    assert status == 2


def test_csv_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["counterexample", "--directions", "24", "--out", "a.csv"])
    run(["counterexample", "--directions", "24", "--out", "b.csv"])
    assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()


def test_manifest_outputs_exist(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction())
    status, manifest = run(["surgery", "y.json", "--center", "0,0",
                            "--radius", "0.4", "--out", "s"])
    assert status == 0
    for out in manifest.outputs:
        assert Path(out).exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_stationary_bad_tol_exits_2(tmp_path, monkeypatch, capsys, tol):
    # an unbalanced segment (nan used to hide both residuals) and a balanced
    # line (-1 used to divide its zero residual by itself)
    monkeypatch.chdir(tmp_path)
    save_varifold("seg.json", discrete=DiscreteVarifold(2, (SegmentPiece([0, 0], [1, 0], 1.0),)))
    assert run(["fixture", "line"])[0] == 0
    for path in ("seg.json", "line.json"):
        status, _ = run(["check-stationary", path, "--tol", tol])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("SchemaError: --tol")
        assert "Traceback" not in err


def test_check_stationary_accepts_zero_tol(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["fixture", "line"])[0] == 0
    assert run(["check-stationary", "line.json", "--tol", "0"])[0] == 0
    assert "max residual mass: 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("w", [1e-160, 1e200])
def test_check_stationary_tiny_and_huge_weights(tmp_path, monkeypatch, capsys, w):
    # the squared residual norm underflows or overflows
    monkeypatch.chdir(tmp_path)
    rays = (RayPiece([0, 0], [1, 0], w), RayPiece([0, 0], [0, 1], w))
    save_varifold("v.json", discrete=DiscreteVarifold(2, (), rays))
    assert run(["check-stationary", "v.json", "--tol", "0"])[0] == 0
    out = capsys.readouterr().out.splitlines()
    worst = float(out[0].removeprefix("max residual mass: "))
    assert abs(worst - w * math.sqrt(2.0)) <= 1e-15 * w * math.sqrt(2.0)
    assert len(out) == 3


def test_check_stationary_overflowing_residual(tmp_path, monkeypatch, capsys):
    # two ends of weight 1e308 along e1 overflow the residual sum
    monkeypatch.chdir(tmp_path)
    rays = tuple(RayPiece([0, 0], d, 1e308) for d in ([1, 0], [1, 0], [0, 1]))
    save_varifold("v.json", discrete=DiscreteVarifold(2, (), rays))
    assert run(["check-stationary", "v.json", "--tol", "0", "--out", "r.csv"])[0] == 0
    assert capsys.readouterr().out == "max residual mass: inf\n"
    header, row = Path("r.csv").read_text().strip().splitlines()
    assert "nan" not in row
    omega = np.array([float(c) for c in row.split(",")[2:4]])
    assert abs(float(np.dot(omega, omega)) - 1.0) <= 1e-15
    assert row.split(",")[-1] == "inf"


def test_fixture_dense_lines_negative_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    status, _ = run(["fixture", "dense-lines", "--k", "3", "--seed", "-1", "--out", "dl"])
    assert status == 0
    assert "Traceback" not in capsys.readouterr().err
    assert len(load_varifold("dl.json").require_discrete().rays) == 6


@pytest.mark.parametrize("argv", [
    ["counterexample", "--directions", "0"],
    ["counterexample", "--directions", "-3"],
    ["fixture", "dense-lines", "--k", "0"],
])
def test_non_positive_counts_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    status, _ = run(argv + ["--out", "out"])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: --")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


# Hostile numbers: each run ends in a typed exit with at most one stderr
# line and no numpy warning (RuntimeWarning is an error in tier-1).

def test_reconstruct_overflowing_band_masses_is_domain_error(tmp_path, monkeypatch, capsys):
    # valid masses of 1e308 whose band masses exceed the float range
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(
        '{"ambient_dim": 3, "conic": {"atoms": [{"dir": [0.6, 0, 0.8], "mass": 1e308},'
        ' {"dir": [0, 0.6, 0.8], "mass": 1e308}]}}'
    )
    status, _ = run(["reconstruct", "c.json"])
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("OverflowError: ") and err.count("\n") == 1
    assert not Path("c.residuals.csv").exists()


def test_check_stationary_overflowing_segment_length_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("v.json").write_text(
        '{"ambient_dim": 2, "segments": [{"a": [-1e308, 0], "b": [1e308, 0], "weight": 1.0}]}'
    )
    assert run(["check-stationary", "v.json"])[0] == 2
    err = capsys.readouterr().err
    assert err.startswith("SchemaError: ") and err.count("\n") == 1


def test_check_stationary_segment_with_overflowing_squared_length(tmp_path, monkeypatch, capsys):
    # the length 1e200 fits in a float; its square does not
    monkeypatch.chdir(tmp_path)
    Path("v.json").write_text(
        '{"ambient_dim": 2, "segments": [{"a": [0, 0], "b": [1e200, 0], "weight": 1.0}]}'
    )
    assert run(["check-stationary", "v.json", "--out", "r.csv"])[0] == 0
    out, err = capsys.readouterr()
    assert out.startswith("max residual mass: 1\n") and err == ""
    assert Path("r.csv").read_text().splitlines()[2].startswith("9.9999999999999997e+199,0,1,")


@pytest.mark.parametrize("arm,lambdas,error", [
    (1.5, "1,1e-320", "OverflowError"),
    (1e-20, "1e308,1", "DegenerateGeometryError"),
])
def test_blowup_hostile_dilation_factors_are_domain_errors(tmp_path, monkeypatch, capsys,
                                                           arm, lambdas, error):
    # a dilated coordinate overflows, or the dilated arms collapse to a point
    monkeypatch.chdir(tmp_path)
    save_varifold("y.json", discrete=y_junction(2, arm_length=arm))
    assert run(["blowup", "y.json", "--point", "0,0", "--lambdas", lambdas])[0] == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert not Path("y.blowup.csv").exists()


@pytest.mark.parametrize("heavy", [1e3, 1e12])
def test_reconstruct_heavy_cone(tmp_path, monkeypatch, capsys, heavy):
    # the chart merge and the coverage check compare masses relative to
    # their size, so a heavy atom next to a light one reconstructs
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(
        '{"ambient_dim": 3, "conic": {"atoms": [{"dir": [0.6, 0, 0.8], "mass": %r},'
        ' {"dir": [0, 0.6, 0.8], "mass": 1.0}]}}' % heavy
    )
    assert run(["reconstruct", "c.json"])[0] == 0
    out, err = capsys.readouterr()
    assert out.startswith("recovered 2/2 atoms") and err == ""
    _, *rows = Path("c.residuals.csv").read_text().splitlines()
    for row in rows:
        mass, position_error, mass_error = map(float, row.split(",")[3:])
        assert position_error < 1e-10 and mass_error < 1e-10 * mass


def test_reconstruct_subnormal_pole_component(tmp_path, monkeypatch, capsys):
    # the first atom's slope overflows under the normal e1, where it lies in
    # no band; every other chart sees it
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text(
        '{"ambient_dim": 3, "conic": {"atoms": [{"dir": [1e-310, 0.6, 0.8], "mass": 1.0},'
        ' {"dir": [0.6, 0, 0.8], "mass": 2.0}]}}'
    )
    assert run(["reconstruct", "c.json"])[0] == 0
    out, err = capsys.readouterr()
    assert out.startswith("recovered 2/2 atoms") and err == ""
    header, *rows = Path("c.residuals.csv").read_text().splitlines()
    assert header == "dir1,dir2,dir3,mass,position_error,mass_error"
    assert [row.split(",")[:4] for row in rows] == [
        ["9.9999999999999694e-311", "0.59999999999999998", "0.80000000000000004", "1"],
        ["0.59999999999999998", "0", "0.80000000000000004", "2"],
    ]
    assert all(float(c) < 1e-10 for row in rows for c in row.split(",")[4:])
