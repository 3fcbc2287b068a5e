import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varifold_lab import (
    __version__,
    ConicVarifold,
    DiscreteVarifold,
    RayPiece,
    SampledDensity,
    SegmentPiece,
    Subspace,
    circle_grid,
    conic_atoms,
    counterexample_pair,
    default_normals,
    dense_lines_fixture,
    load_varifold,
    mass,
    save_varifold,
    sphere_grid,
    tangent_estimate,
    vertex_residuals,
)
from varifold_lab.cli import run
from varifold_lab.core import unit
from varifold_lab.fixtures import balanced_y_cone, random_varifold, y_junction
from varifold_lab.io import (
    SchemaError,
    VarifoldDocument,
    document_from_dict,
    document_to_dict,
    format_float,
    load_subspace,
    save_subspace,
)
from varifold_lab.projection import halfline_difference_table

from piece_reference import document_text


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


def test_conic_round_trip_with_a_sphere_density(tmp_path):
    grid = sphere_grid(8, 16)
    c = ConicVarifold(3, np.array([[0.6, 0.0, 0.8]]), np.array([1.3]),
                      SampledDensity(grid, 1.0 + 0.5 * grid.nodes[:, 2] ** 2))
    save_varifold(tmp_path / "c.json", conic=c)
    back = load_varifold(tmp_path / "c.json").require_conic()
    assert back.density.grid.descriptor == "s2:8x16"
    assert back.density.grid.nodes.tobytes() == grid.nodes.tobytes()
    assert back.density.values.tobytes() == c.density.values.tobytes()
    save_varifold(tmp_path / "again.json", conic=back)
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "c.json").read_bytes()


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


# a few coordinates, rows drawn from a small pool: rows repeat, and tie
# on 0.0 against -0.0
_COORDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300])
_WEIGHTS = st.sampled_from([1.0, 0.5, 2.0, 1e-300])


@st.composite
def _documents(draw):
    """(discrete or None, conic or None) in R^2 to R^4, not both None."""
    n = draw(st.integers(2, 4))
    pool = [np.array(p) for p in draw(
        st.lists(st.lists(_COORDS, min_size=n, max_size=n), min_size=2, max_size=4))]
    dirs = [np.eye(n)[0], -np.eye(n)[0]] + [unit(p) for p in pool if p.any()]
    segments = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if (b - a).any():
            segments.append(SegmentPiece(a, b, draw(_WEIGHTS)))
    rays = [RayPiece(draw(st.sampled_from(pool)), draw(st.sampled_from(dirs)), draw(_WEIGHTS))
            for _ in range(draw(st.integers(0, 6)))]
    atoms = [(draw(st.sampled_from(dirs)), draw(_WEIGHTS)) for _ in range(draw(st.integers(0, 5)))]
    parts = draw(st.sampled_from(["discrete", "conic", "both"]))
    return (DiscreteVarifold(n, segments, rays) if parts != "conic" else None,
            conic_atoms(n, atoms) if parts != "discrete" else None)


@settings(max_examples=150, deadline=None)
@given(doc=_documents())
def test_writer_matches_the_piece_sorting_writer(tmp_path_factory, doc):
    discrete, conic = doc
    path = tmp_path_factory.getbasetemp() / "writer.json"
    save_varifold(path, discrete=discrete, conic=conic)
    assert path.read_bytes() == document_text(discrete, conic).encode()


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
    assert meta["tool_version"] == __version__


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


def test_reconstruct_cli_nnls_non_convergence_exits_1(tmp_path, monkeypatch, capsys):
    # the compiled kernel reports info 3, scipy's "Maximum number of
    # iterations reached.": one domain-error line, no traceback, no file
    from varifold_lab import tomography

    monkeypatch.chdir(tmp_path)
    save_varifold("cone.json", conic=conic_atoms(3, [([0.2, 0.1, 1.0], 1.0)]))
    monkeypatch.setattr(tomography, "_nnls_kernel",
                        lambda: lambda A, b, maxiter: (np.zeros(A.shape[1]), 0.0, 3))
    status, _ = run(["reconstruct", "cone.json", "--report", "res.csv", "--out", "recon.json"])
    assert status == 1
    assert capsys.readouterr().err == (
        "AmbiguousReconstruction: nonnegative least squares did not converge\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone.json"]


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


def test_reconstruct_from_measurements_skips_zero_mass_bands(tmp_path, monkeypatch):
    # a band that measured no mass adds no marginal atom: counted as one, its
    # midpoint 5e-8 from the atom's slope would move the atom's cluster mean;
    # a band of 1e-10 is below LOCATE_MASS_TOL, which the oracle path drops
    # too (at the parent the reader kept it)
    monkeypatch.chdir(tmp_path)
    from varifold_lab import BandOracle, conic_atoms, hyperplane_of, marginal_direction_battery
    from varifold_lab.io import write_csv

    z, v = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.0, 1.0])
    oracle = BandOracle(conic_atoms(3, [(z, 1.5)]))
    battery = marginal_direction_battery(hyperplane_of(v))
    rows = []
    for xi in battery:
        lam = float(z @ xi / (z @ v))
        band = (lam - 1e-9, lam + 1e-9)
        rows.append(tuple(v) + tuple(xi) + band + (oracle(v, xi, [band])[0],))
    header = ["v1", "v2", "v3", "xi1", "xi2", "xi3", "s", "t", "band_mass"]
    write_csv("bands.csv", header, rows)
    s, t = rows[0][6:8]
    write_csv("zero.csv", header, rows[:1] + [rows[0][:6] + (s + 5e-8, t + 5e-8, 0.0),
                                              rows[0][:6] + (s - 5e-8, t - 5e-8, 1e-10)] + rows[1:])
    for name in ("bands", "zero"):
        status, _ = run(["reconstruct", "--from-measurements", f"{name}.csv",
                         "--ambient-dim", "3", "--out", f"{name}.json"])
        assert status == 0
    assert load_varifold("bands.json").require_conic().n_atoms == 1
    assert Path("zero.json").read_bytes() == Path("bands.json").read_bytes()


def test_reconstruct_from_measurements_rejects_xi_off_the_plane(tmp_path, monkeypatch, capsys):
    # xi is 6e-13 off v-perp: within the old 1e-12 cosine, but off by more
    # than the plane solve allows its marginal directions in R^3
    monkeypatch.chdir(tmp_path)
    from varifold_lab import BandOracle, conic_atoms, hyperplane_of, marginal_direction_battery
    from varifold_lab.core import unit
    from varifold_lab.io import write_csv

    z, v = unit(np.array([0.3, 0.4, 1.0])), np.array([0.0, 0.0, 1.0])
    oracle = BandOracle(conic_atoms(3, [(z, 1.5)]))
    battery = marginal_direction_battery(hyperplane_of(v))
    rows = []
    for xi in [unit(battery[0] + np.array([0.0, 0.0, 6e-13]))] + battery[1:]:
        lam = float(z @ xi / (z @ v))
        band = (lam - 1e-9, lam + 1e-9)
        rows.append(tuple(v) + tuple(xi) + band + (oracle(v, xi, [band])[0],))
    write_csv("bands.csv", ["v1", "v2", "v3", "xi1", "xi2", "xi3", "s", "t", "band_mass"], rows)
    status, _ = run(["reconstruct", "--from-measurements", "bands.csv",
                     "--ambient-dim", "3", "--out", "got.json"])
    assert status == 2
    assert capsys.readouterr().err == (
        "SchemaError: line 2: the direction xi is not orthogonal to v\n")


@pytest.mark.parametrize("rows, message", [
    (["0,0,1,1,0,0,0.1,0.2,1.0"], "need at least 2 marginal directions"),
    (["0,0,1,1,0,0,0.1,0.2,1.0", "0,0,1,0.6,0.8,0,0.1,0.2,1.0"],
     "marginals do not contain an orthogonal direction subset"),
], ids=["one-direction", "no-orthogonal-pair"])
def test_reconstruct_from_measurements_rejects_a_thin_chart(tmp_path, monkeypatch, capsys,
                                                            rows, message):
    # the plane solve of normal e3 would raise ValueError on either file
    monkeypatch.chdir(tmp_path)
    Path("bands.csv").write_text("v1,v2,v3,xi1,xi2,xi3,s,t,band_mass\n" + "\n".join(rows) + "\n")
    status, _ = run(["reconstruct", "--from-measurements", "bands.csv", "--ambient-dim", "3"])
    assert status == 2
    assert capsys.readouterr().err == f"SchemaError: normal [0. 0. 1.]: {message}\n"


def test_reconstruct_from_measurements_rejects_a_band_given_two_masses(tmp_path, monkeypatch,
                                                                       capsys):
    monkeypatch.chdir(tmp_path)
    row = "0,0,1,1,0,0,0.1,0.2,"
    Path("bands.csv").write_text(f"v1,v2,v3,xi1,xi2,xi3,s,t,band_mass\n{row}1.0\n{row}2.0\n")
    status, _ = run(["reconstruct", "--from-measurements", "bands.csv", "--ambient-dim", "3"])
    assert status == 2
    assert capsys.readouterr().err == "SchemaError: the band [0.1, 0.2] is given two masses\n"


def test_reconstruct_from_measurements_bands_a_float_range_apart(tmp_path, monkeypatch, capsys):
    # the repeated-band rule compares two bands of one pair whose lower ends
    # differ by more than the float range, so a subtraction would overflow
    # (warnings are errors here); the band far out overflows 1 + lambda^2
    monkeypatch.chdir(tmp_path)
    row = "0,0,1,1,0,0,"
    Path("bands.csv").write_text("v1,v2,v3,xi1,xi2,xi3,s,t,band_mass\n"
                                 f"{row}-1e308,1,1.0\n{row}1e308,1.5e308,1.0\n")
    status, _ = run(["reconstruct", "--from-measurements", "bands.csv", "--ambient-dim", "3"])
    assert status == 1
    assert capsys.readouterr().err.startswith("OverflowError: ")


def _located_rows(cone) -> tuple[list[list[float]], object]:
    """The band rows reconstruct_conic(BandOracle(cone), n) locates, one list
    (v, xi, s, t, band_mass) per merged band in its order, with v as
    default_normals returns it; and the cone it reconstructs, or the domain
    error it raises."""
    from varifold_lab import BandOracle, hyperplane_of, marginal_direction_battery, tomography
    from varifold_lab.cli import DOMAIN_ERRORS

    n = cone.ambient_dim
    calls = []
    band_marginals = tomography._band_marginals

    def spy(*args):
        calls.append(args)
        return band_marginals(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomography, "_band_marginals", spy)
        try:
            result = tomography.reconstruct_conic(BandOracle(cone), n)
        except DOMAIN_ERRORS as exc:
            result = exc
    normals = default_normals(n)
    per_normal = len(marginal_direction_battery(hyperplane_of(normals[0])))
    ((xis, owner, bands, masses),) = calls
    rows = [[*normals[o // per_normal], *xis[o], s, t, m]
            for o, (s, t), m in zip(owner.tolist(), bands.tolist(), masses.tolist())]
    return rows, result


def _band_csv(n: int, rows, negative_zero: bool = False) -> str:
    """The --from-measurements CSV of rows, written with repr; with
    negative_zero, every other row writes its zero cells as -0.0."""
    header = [f"v{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)] + [
        "s", "t", "band_mass"]
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(",".join("-0.0" if negative_zero and i % 2 and c == 0.0 else repr(float(c))
                              for c in row))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(1, 4),
       shuffle=st.booleans(), repeats=st.integers(0, 3), negative_zero=st.booleans())
# at the parent, the plain table of this R^2 cone gave its one marginal twice
# the mass and exited 1
@example(n=2, seed=0, n_atoms=3, shuffle=False, repeats=0, negative_zero=False)
def test_measured_table_of_located_bands_gives_reconstruct_conics_bytes(
        tmp_path_factory, n, seed, n_atoms, shuffle, repeats, negative_zero):
    # a table of the oracle path's own located bands is the same measurement:
    # reordered within a (v, xi) pair, repeated, or with -0.0 for 0.0, it
    # reconstructs to reconstruct_conic's bytes.  Each pair's first
    # appearance stays in place, since marginal order decides the held-out
    # direction.
    from varifold_lab.fixtures import random_conic

    rng = np.random.default_rng(seed)
    rows, expected = _located_rows(random_conic(rng, n, n_atoms=n_atoms))
    if shuffle:
        starts = [i for i in range(len(rows)) if i == 0 or rows[i][: 2 * n] != rows[i - 1][: 2 * n]]
        for a, b in zip(starts, starts[1:] + [len(rows)]):
            rows[a:b] = [rows[a:b][k] for k in rng.permutation(b - a)]
    for _ in range(repeats):
        i = int(rng.integers(len(rows)))
        rows.insert(int(rng.integers(i + 1, len(rows) + 1)), rows[i])
    folder = tmp_path_factory.mktemp("measured")
    (folder / "bands.csv").write_text(_band_csv(n, rows, negative_zero))
    status, _ = run(["reconstruct", "--from-measurements", f"{folder}/bands.csv",
                     "--ambient-dim", str(n), "--out", f"{folder}/got.json"])
    if isinstance(expected, Exception):
        assert status == 1
        return
    assert status == 0
    save_varifold(folder / "expected.json", conic=expected)
    assert (folder / "got.json").read_bytes() == (folder / "expected.json").read_bytes()


def test_two_dimensional_narrow_band_tables_reconstruct(tmp_path, monkeypatch):
    # narrow bands around every front atom of every battery marginal of the
    # default normals, as a benchmark writes them: at the parent the R^2
    # battery held its one direction twice, each band was read twice, and
    # 15 of these 20 cones exited 1 and the other 5 came back with twice
    # their masses
    from varifold_lab import BandOracle, hyperplane_of, marginal_direction_battery
    from varifold_lab.fixtures import random_conic

    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(77)
    for _ in range(20):
        cone = random_conic(rng, 2, n_atoms=int(rng.integers(2, 5)))
        oracle = BandOracle(cone)
        rows = []
        for v in default_normals(2):
            h = cone.atom_directions @ v
            for xi in marginal_direction_battery(hyperplane_of(v)):
                lam = (cone.atom_directions @ xi)[h > 1e-6] / h[h > 1e-6]
                width = 1e-9 * (1.0 + np.abs(lam))
                bands = np.column_stack([lam - width, lam + width])
                rows += [[*v, *xi, s, t, m] for (s, t), m in zip(bands, oracle(v, xi, bands))]
        Path("bands.csv").write_text(_band_csv(2, rows))
        status, _ = run(["reconstruct", "--from-measurements", "bands.csv",
                         "--ambient-dim", "2", "--out", "got.json"])
        assert status == 0
        got = load_varifold("got.json").require_conic()
        assert got.n_atoms == cone.n_atoms
        for z, m in zip(cone.atom_directions, cone.atom_masses):
            i = int(np.argmin(np.linalg.norm(got.atom_directions - z, axis=1)))
            assert np.linalg.norm(got.atom_directions[i] - z) < 1e-6
            assert abs(got.atom_masses[i] - m) < 1e-6


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
    # the parser's choices reject any other name before the command runs
    files = sorted(Path().iterdir())
    assert run(["fixture", "y_cone"])[0] == 2
    assert sorted(Path().iterdir()) == files


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
    "s3.json": '{"ambient_dim": 3, "conic": {"atoms": [{"dir": [0.0, 0.0, 1.0], "mass": 1.0}], '
               '"density": {"grid": "s3:4", "values": [1.0, 1.0, 1.0, 1.0]}}}',
}


@pytest.mark.parametrize("argv, message", [
    (["reconstruct", "--from-measurements", "empty.csv", "--ambient-dim", "3"], "empty.csv: empty"),
    (["reconstruct", "--from-measurements", "one.csv", "--ambient-dim", "1"],
     "--ambient-dim must be at least 2"),
    (["reconstruct", "c1.json"], "reconstruct needs an ambient dimension"),
    # a subspace of R^3 for a varifold in R^2
    (["project", "y.json", "--subspace", "p3.json"], "--subspace: ambient dimension 3"),
    (["reconstruct"], "reconstruct needs an input cone or --from-measurements"),
    (["reconstruct", "--from-measurements", "one.csv"], "--from-measurements requires"),
    # an R^1 header for R^3
    (["reconstruct", "--from-measurements", "one.csv", "--ambient-dim", "3"],
     "expected CSV columns"),
    (["reconstruct", "s3.json"], "malformed varifold document: unknown sphere grid"),
], ids=["empty-measurements", "ambient-dim-1", "cone-in-R1", "subspace-dimension", "no-input",
        "no-ambient-dim", "wrong-header", "unknown-grid"])
def test_reconstruct_and_project_bad_inputs_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in _BAD_INPUTS.items():
        Path(name).write_text(text)
    save_varifold("y.json", discrete=y_junction())
    status, _ = run(argv)
    assert status == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("SchemaError: " + message)
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


def _library_message(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("argv, flag, call", [
    (["surgery", "y.json", "--center", "0,inf", "--radius", "0.5"], "--center",
     lambda v: mass(v, [0, math.inf], 0.5)),
    (["surgery", "y.json", "--center", "0,0,0", "--radius", "0.5"], "--center",
     lambda v: mass(v, [0, 0, 0], 0.5)),
    (["surgery", "y.json", "--center", "0,0", "--radius", "inf"], "--radius",
     lambda v: mass(v, [0, 0], math.inf)),
    (["blowup", "y.json", "--point", "nan,0", "--lambdas", "0.5"], "--point",
     lambda v: tangent_estimate(v, [math.nan, 0], [0.5])),
    (["blowup", "y.json", "--point", "0,0", "--lambdas", "0.5,0"], "--lambdas",
     lambda v: tangent_estimate(v, [0, 0], [0.5, 0.0])),
    (["fixture", "dense-lines", "--k", "0"], "--k", lambda v: dense_lines_fixture(0)),
    # at the parent, vertex_residuals(v, inf) was [] and default_normals took -1 as 0
    (["check-stationary", "y.json", "--tol", "inf"], "--tol",
     lambda v: vertex_residuals(v, math.inf)),
    (["counterexample", "--directions", "0"], "--directions",
     lambda v: halfline_difference_table(*counterexample_pair(), 0)),
    (["reconstruct", "c.json", "--normals", "-1"], "--normals",
     lambda v: default_normals(3, -1)),
])
def test_flags_obey_the_library_rules_and_report_its_message(tmp_path, monkeypatch, capsys,
                                                              argv, flag, call):
    monkeypatch.chdir(tmp_path)
    v = y_junction()
    save_varifold("y.json", discrete=v)
    save_varifold("c.json", conic=balanced_y_cone())
    status, _ = run(argv)
    assert status == 2
    assert capsys.readouterr().err == f"SchemaError: {flag}: {_library_message(lambda: call(v))}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "y.json"]


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


# Mutated flags and measurement rows: every run ends in exit 0, 1 or 2, and
# no exception (a numpy RuntimeWarning included) leaves cli.run.

_HOSTILE_CELLS = ["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-0.0", "0", "", "x"]


def _measured_table() -> list[list[str]]:
    """Header and rows of a valid --from-measurements table: two atoms of a
    cone in R^3 seen from two normals, one narrow band per atom and marginal."""
    from varifold_lab import BandOracle, hyperplane_of, marginal_direction_battery

    cone = conic_atoms(3, [([0.6, 0.0, 0.8], 1.5), ([0.0, 0.6, 0.8], 0.5)])
    oracle = BandOracle(cone)
    table = [[f"v{i}" for i in (1, 2, 3)] + [f"xi{i}" for i in (1, 2, 3)] + ["s", "t", "band_mass"]]
    for v in (np.array([0.0, 0.0, 1.0]), unit(np.array([0.2, 0.1, 1.0]))):
        for xi in marginal_direction_battery(hyperplane_of(v)):
            for lam in cone.atom_directions @ xi / (cone.atom_directions @ v):
                band = (lam - 1e-9, lam + 1e-9)
                table.append([repr(float(c)) for c in (*v, *xi, *band, oracle(v, xi, [band])[0])])
    return table


_CELLS = st.sampled_from(_HOSTILE_CELLS) | st.floats().map(repr)


@st.composite
def _cli_cases(draw):
    """(command, value): a measured table with up to three mutated rows, or
    a hostile or in-range value of --tol, --directions, --normals or --k."""
    command = draw(st.sampled_from(["rows", "tol", "directions", "normals", "k"]))
    if command != "rows":
        return command, draw(_CELLS | st.integers(-3, 64).map(str))
    table = _measured_table()
    for _ in range(draw(st.integers(1, 3))):
        row = table[draw(st.integers(1, len(table) - 1))]
        edit = draw(st.sampled_from(["set", "drop", "extra"]))
        if edit == "extra":
            row.append(draw(_CELLS))
        elif edit == "drop":
            row.pop(draw(st.integers(0, len(row) - 1)))
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(_CELLS)
    return command, table


def _run_case(folder: Path, command: str, value) -> tuple[int, object]:
    save_varifold(folder / "y.json", discrete=y_junction())
    save_varifold(folder / "c.json", conic=balanced_y_cone())
    argv = {
        "tol": lambda: ["check-stationary", f"{folder}/y.json", f"--tol={value}",
                        "--out", f"{folder}/r.csv"],
        "directions": lambda: ["counterexample", f"--directions={value}", "--out", f"{folder}/d.csv"],
        "normals": lambda: ["reconstruct", f"{folder}/c.json", f"--normals={value}",
                            "--report", f"{folder}/r.csv"],
        "k": lambda: ["fixture", "dense-lines", f"--k={value}", "--out", f"{folder}/dl"],
        "rows": lambda: ["reconstruct", "--from-measurements", f"{folder}/m.csv",
                         "--ambient-dim", "3", "--out", f"{folder}/m.json"],
    }[command]()
    if command == "rows":
        (folder / "m.csv").write_text("\n".join(",".join(row) for row in value) + "\n")
    return run(argv)


def _edited_table(edits) -> list[list[str]]:
    table = _measured_table()
    for i, j, cell in edits:
        table[i][j] = cell
    return table


@settings(max_examples=200, deadline=None)
@given(case=_cli_cases())
# at the parent, a band whose s + t overflows left cli.run as a ValueError
@example(case=("rows", _edited_table([(1, 6, "1e308"), (1, 7, "1.7e308")])))
def test_mutated_flags_and_rows_exit_cleanly(tmp_path_factory, case):
    status, manifest = _run_case(tmp_path_factory.mktemp("cli"), *case)
    assert status in (0, 1, 2)
    if status == 0:
        assert all(Path(out).exists() for out in manifest.outputs)


def _written(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return path


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda tmp: VarifoldDocument(2).require_discrete(), SchemaError,
                 "document carries no segments or rays", id="no-pieces"),
    pytest.param(lambda tmp: VarifoldDocument(2).require_conic(), SchemaError,
                 "document carries no conic section", id="no-cone"),
    pytest.param(lambda tmp: document_to_dict(), ValueError, "nothing to serialize",
                 id="nothing"),
    pytest.param(lambda tmp: document_to_dict(DiscreteVarifold(2),
                                              conic_atoms(3, [([0.0, 0.0, 1.0], 1.0)])),
                 ValueError, "discrete and conic parts disagree on the dimension",
                 id="dimensions"),
    pytest.param(lambda tmp: document_from_dict({}), SchemaError,
                 "missing or invalid ambient_dim", id="ambient-dim"),
    pytest.param(lambda tmp: load_varifold(_written(tmp, "[1, 2]")), SchemaError,
                 "document root must be an object", id="root"),
    pytest.param(lambda tmp: load_subspace(_written(tmp, "{")), SchemaError,
                 "not valid JSON", id="subspace-json"),
    pytest.param(lambda tmp: load_subspace(_written(tmp, "{}")), SchemaError,
                 "malformed subspace document", id="subspace-schema"),
])
def test_io_checks_name_what_is_wrong(tmp_path, build, error, message):
    with pytest.raises(error, match=message):
        build(tmp_path)


def test_run_without_a_command_prints_usage_and_exits_2(capsys):
    assert run([]) == (2, None)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
