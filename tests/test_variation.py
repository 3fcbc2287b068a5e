import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import (
    DegenerateGeometryError,
    DiscreteVarifold,
    RayPiece,
    SegmentPiece,
    boundary_variation,
    bump_field,
    dilate,
    first_variation,
    find_good_radius,
    first_variation_quadrature,
    is_stationary,
    linear_field,
    plateau_field,
    save_varifold,
    vertex_residuals,
    weighted_projection,
)
from varifold_lab.core import TANGENT_REL_TOL, VERTEX_TOL, _row_norms, _Trusted, group_ends, unit
from varifold_lab.fixtures import (
    full_line,
    random_stationary_network,
    random_subspace,
    random_varifold,
    y_junction,
)
from varifold_lab import variation
from varifold_lab.variation import (
    PLATEAU,
    VariationAtom,
    _plateau,
    _plateau_prime,
    _profile_field,
    rotation_field,
)

from piece_reference import ball_interval


def segment(a, b, w=1.0):
    return SegmentPiece(np.array(a, float), np.array(b, float), w)


def ray(o, d, w=1.0):
    return RayPiece(np.array(o, float), np.array(d, float), w)


# ---------------------------------------------------------------------------
# test fields
# ---------------------------------------------------------------------------

def test_field_validation():
    rng = np.random.default_rng(3)
    for f in (
        bump_field([0.2, -0.1], 1.3, [1.0, 0.5]),
        plateau_field([0.0, 0.0], 2.0, [0.0, 1.0]),
        linear_field([0.1, 0.2], 1.5, np.eye(2)),
        rotation_field([0.0, 0.0], 1.0, 0, 1, 2),
    ):
        f.validate(rng)


def test_field_validation_checks_the_divergence():
    # first_variation_quadrature integrates divergence_batch, so validate
    # checks it against evaluate
    f = linear_field([0.1, 0.2], 1.5, np.eye(2))
    doubled = dataclasses.replace(
        f, divergence_batch=lambda points, s: 2.0 * f.divergence_batch(points, s))
    with pytest.raises(ValueError, match="divergence_batch"):
        doubled.validate(np.random.default_rng(3))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: variation.TestField(
        lambda x: np.ones(2), [0.0, 0.0], 1.0, lambda points, s: np.zeros(len(points)),
    ).validate(np.random.default_rng(3)),
                 "field does not vanish outside its support ball", id="support"),
    pytest.param(lambda: first_variation(DiscreteVarifold(3),
                                         bump_field([0.0, 0.0], 1.0, [1.0, 0.0])),
                 "field dimension does not match the varifold", id="dimension"),
])
def test_field_checks_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _reference_half_exp(u):
    out = np.zeros_like(u)
    m = u > 0.0
    out[m] = np.exp(-1.0 / u[m])
    return out


def _reference_plateau(t):
    """The lump over the whole array, as it was written before it skipped its
    exact 0 and 1 regions."""
    t = np.abs(np.asarray(t, dtype=float))
    u = (1.0 - t) / (1.0 - PLATEAU)
    a = _reference_half_exp(u)
    b = _reference_half_exp(1.0 - u)
    out = np.where(t >= 1.0, 0.0, a / np.where(a + b == 0.0, 1.0, a + b))
    return np.where(t <= PLATEAU, 1.0, out)


def _reference_plateau_prime(t):
    t = np.asarray(t, dtype=float)
    sign = np.sign(t)
    ta = np.abs(t)
    u = (1.0 - ta) / (1.0 - PLATEAU)
    a = _reference_half_exp(u)
    b = _reference_half_exp(1.0 - u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ap = np.where(u > 0.0, a / np.maximum(u, 1e-300) ** 2, 0.0)
        bp = np.where(1.0 - u > 0.0, b / np.maximum(1.0 - u, 1e-300) ** 2, 0.0)
        s_prime = np.where(
            (a + b) > 0.0, (ap * b + a * bp) / np.maximum((a + b) ** 2, 1e-300), 0.0
        )
    inner = (ta > PLATEAU) & (ta < 1.0)
    return np.where(inner, -sign * s_prime / (1.0 - PLATEAU), 0.0)


def _plateau_grid():
    edges = [PLATEAU, 1.0]
    near = [np.nextafter(e, d) for e in edges for d in (0.0, 2.0)]
    sub = [5e-324, np.nextafter(0.0, 1.0) * 3, np.finfo(float).tiny * 0.5]
    inner = np.linspace(PLATEAU, 1.0, 2001)
    # just inside 1, where exp(-1/u) underflows to 0 or a subnormal
    tail = 1.0 - np.geomspace(1e-16, 1e-2, 200)
    t = np.concatenate((edges, near, sub, [0.0, 2.0, 1e300, np.inf], inner, tail))
    return np.concatenate((t, -t, [np.nan]))


def test_plateau_matches_its_whole_array_formula_bitwise():
    # the lump and its slope skip the regions where they are exactly 0 or 1
    t = _plateau_grid()
    assert _plateau(t).tobytes() == _reference_plateau(t).tobytes()
    assert _plateau_prime(t).tobytes() == _reference_plateau_prime(t).tobytes()
    block = t[: t.size - t.size % 8].reshape(8, -1)  # as a battery table evaluates it
    assert _plateau(block).tobytes() == _reference_plateau(block).tobytes()
    assert _plateau(np.array([PLATEAU, 1.0, np.nan, -np.inf])).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_plateau_fields_are_unchanged_bitwise():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        c = rng.normal(size=n)
        points = c + rng.normal(size=(400, n)) * 1.2
        points[:n] = c  # r = 0
        for f, matrix in ((plateau_field, rng.normal(size=n)),
                          (linear_field, rng.normal(size=(n, n)))):
            got = f(c, 1.3, matrix)
            ref = _profile_field(c, 1.3, matrix, _reference_plateau, _reference_plateau_prime)
            s = unit(rng.normal(size=n))
            assert (got.divergence_batch(points, s).tobytes()
                    == ref.divergence_batch(points, s).tobytes())
            for x in points[:40]:
                assert got.evaluate(x).tobytes() == ref.evaluate(x).tobytes()


def test_plateau_is_one_inside():
    f = plateau_field([0, 0], 2.0, [1.0, 0.0])
    assert np.allclose(f.evaluate([0.3, 0.2]), [1.0, 0.0])
    assert np.allclose(f.evaluate([5.0, 0.0]), [0.0, 0.0])


# ---------------------------------------------------------------------------
# first variation closed form
# ---------------------------------------------------------------------------

def test_single_segment_endpoint_in_support():
    a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    v = DiscreteVarifold(2, (segment(a, b),), ())
    g = plateau_field(b, 0.5, [0.7, 0.3])
    s = np.array([1.0, 0.0])
    assert first_variation(v, g) == pytest.approx(float(np.dot([0.7, 0.3], s)), abs=1e-15)


def test_balanced_y_junction_vanishes():
    v = y_junction(arm_length=2.0)
    g = bump_field([0, 0], 1.0, [0.3, -0.9])
    assert first_variation(v, g) == pytest.approx(0.0, abs=1e-15)


def test_identity_stretch_along_segment():
    # g = lump * (x, 0) with lump == 1 on the segment: div along e1 is 1
    v = DiscreteVarifold(2, (segment([0, 0], [1, 0]),), ())
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    g = linear_field([0.5, 0.0], 4.0, A)  # plateau covers the segment
    closed = first_variation(v, g)
    assert closed == pytest.approx(1.0, abs=1e-12)
    quad = first_variation_quadrature(v, g, nodes=2001)
    assert closed == pytest.approx(quad, abs=1e-10)


def test_closed_form_vs_quadrature_battery():
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 4))
        pieces_seg, pieces_ray = [], []
        if rng.random() < 0.7:
            a = rng.uniform(-1, 1, n)
            b = a + rng.uniform(0.3, 1.5) * _unit(rng, n)
            pieces_seg.append(segment(a, b, float(rng.uniform(0.2, 2.0))))
        else:
            pieces_ray.append(
                ray(rng.uniform(-1, 1, n), _unit(rng, n), float(rng.uniform(0.2, 2.0)))
            )
        v = DiscreteVarifold(n, tuple(pieces_seg), tuple(pieces_ray))
        center = rng.uniform(-1, 1, n)
        radius = float(rng.uniform(0.5, 2.0))
        g = bump_field(center, radius, rng.normal(size=n))
        closed = first_variation(v, g)
        quad = first_variation_quadrature(v, g, nodes=10_001)
        assert closed == pytest.approx(quad, rel=1e-8, abs=1e-9)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _reference_first_variation(v, g):
    """The endpoint formula piece by piece: the loop over piece objects
    that the column loop replaced, kept as its reference."""
    total = 0.0
    for s in v.segments:
        u = s.direction
        total += s.weight * float(np.dot(g.evaluate(s.b) - g.evaluate(s.a), u))
    for r in v.rays:
        total += -r.weight * float(np.dot(g.evaluate(r.origin), r.direction))
    return total


def _reference_quadrature(v, g, nodes):
    """Composite Simpson with per-type piece frames and a scalar chord per
    ray: the loop that the column loop replaced, kept as its reference."""
    if nodes % 2 == 0:
        nodes += 1
    total = 0.0
    for piece in v.segments + v.rays:
        if isinstance(piece, SegmentPiece):
            base, u, hi = piece.a, piece.direction, piece.length
        else:
            base, u = piece.origin, piece.direction
            iv = ball_interval(piece.origin, piece.direction, g.support_center,
                               g.support_radius)
            hi = 0.0 if iv is None else max(iv[1], 0.0)
        if hi <= 0.0:
            continue
        t = np.linspace(0.0, hi, nodes)
        vals = g.divergence_batch(base + t[:, None] * u, u)
        w = np.ones(nodes)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = hi / (nodes - 1)
        total += piece.weight * float(np.dot(w, vals)) * h / 3.0
    return total


def _reference_boundary(v, y, r, tangency_tol=1e-9):
    """Sphere crossings with per-type piece frames: the loop that the
    columnar boundary_variation replaced, kept as its reference.  A line is
    tangent or misses by the library's one rule: disc within
    core.TANGENT_REL_TOL of (d.u)^2 + r^2."""
    c = np.asarray(y, dtype=float)
    atoms = []
    for piece in v.segments + v.rays:
        if isinstance(piece, SegmentPiece):
            base, u, hi = piece.a, piece.direction, piece.length
            endpoints = (piece.a, piece.b)
        else:
            base, u, hi = piece.origin, piece.direction, math.inf
            endpoints = (piece.origin,)
        for e in endpoints:
            if abs(float(np.linalg.norm(e - c)) - r) <= tangency_tol:
                raise DegenerateGeometryError("endpoint")
        d = base - c
        bh = float(np.dot(d, u))
        q = float(np.dot(d, d)) - r * r
        disc = bh * bh - q
        noise = TANGENT_REL_TOL * (bh * bh + r * r)
        foot = -bh
        near_piece = (-tangency_tol <= foot <= hi + tangency_tol) or (
            math.isinf(hi) and foot >= -tangency_tol
        )
        if abs(disc) <= noise and near_piece:
            raise DegenerateGeometryError("tangent")
        if disc <= noise:
            continue
        s = math.sqrt(disc)
        for t, outward in ((-bh - s, -1.0), (-bh + s, +1.0)):
            if 0.0 < t < hi:
                atoms.append((base + t * u, outward * u, piece.weight))
    return atoms


def _float_bytes(x):
    return np.float64(x).tobytes()


def test_library_rows_build_no_checked_piece_or_atom(monkeypatch, tmp_path):
    # the writer, the vertex forces, the boundary atoms and the piece tuples
    # build from rows the library holds, through _trusted alone
    rng = np.random.default_rng(9001)
    # built from columns: a varifold built from pieces keeps those pieces
    v = dilate(random_varifold(rng, 3, n_segments=6, n_rays=3), np.zeros(3), 0.5)
    y, r = np.zeros(3), find_good_radius(v, np.zeros(3), 1.0, 2.0)

    def refuse(self):
        raise AssertionError(f"a checked {type(self).__name__} was built")

    for cls in (SegmentPiece, RayPiece, VariationAtom):
        monkeypatch.setattr(cls, "__post_init__", refuse)
        # the fixture's recheck of every _trusted build calls the constructor
        monkeypatch.setattr(cls, "_trusted", vars(_Trusted)["_trusted"])
    save_varifold(tmp_path / "v.json", discrete=v)
    assert len(vertex_residuals(v, 0.0)) > 0
    assert len(boundary_variation(v, y, r)) > 0
    assert (len(v.segments), len(v.rays)) == (6, 3)


def test_piece_frames_match_type_branches_bitwise():
    rng = np.random.default_rng(23)
    compared = 0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            v = random_varifold(rng, n, n_segments=int(rng.integers(0, 5)),
                                n_rays=int(rng.integers(1, 4)))
        else:
            v = random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 4)))
        center = rng.uniform(-1, 1, n)
        radius = float(rng.uniform(0.5, 2.5))
        for g in (bump_field(center, radius, rng.normal(size=n)),
                  linear_field(center, radius, rng.normal(size=(n, n)))):
            got = first_variation_quadrature(v, g, nodes=201)
            assert _float_bytes(got) == _float_bytes(_reference_quadrature(v, g, 201))
            assert _float_bytes(first_variation(v, g)) == _float_bytes(
                _reference_first_variation(v, g))
        y, r = rng.uniform(-1, 1, n), float(rng.uniform(0.3, 2.0))
        try:
            want = _reference_boundary(v, y, r)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                boundary_variation(v, y, r)
            continue
        got = boundary_variation(v, y, r)
        assert [(a.location.tobytes(), a.omega.tobytes(), _float_bytes(a.mass))
                for a in got] == [
            (x.tobytes(), omega.tobytes(), _float_bytes(m)) for x, omega, m in want]
        compared += len(got)
    assert compared > 20


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
       case=st.sampled_from(["generic", "endpoint", "tangent"]))
def test_boundary_variation_matches_reference_bitwise(seed, n, case):
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        v = random_varifold(rng, n, n_segments=int(rng.integers(0, 6)),
                            n_rays=int(rng.integers(1, 4)))
    else:
        v = random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 6)))
    y, r = rng.uniform(-1, 1, n), float(rng.uniform(0.3, 2.0))
    if case == "endpoint":
        # an end of some piece on the sphere; pieces sharing it come earlier
        ends = np.concatenate((v.seg_a, v.seg_b, v.ray_o))
        r = float(np.linalg.norm(ends[rng.integers(len(ends))] - y))
    elif case == "tangent":
        # the sphere touches some piece at an interior point
        pieces = v.segments + v.rays
        piece = pieces[rng.integers(len(pieces))]
        if isinstance(piece, SegmentPiece):
            foot = piece.a + rng.uniform(0.0, piece.length) * piece.direction
        else:
            foot = piece.origin + rng.uniform(0.0, 2.0) * piece.direction
        off = rng.normal(size=n)
        y = foot + r * unit(off - np.dot(off, piece.direction) * piece.direction)
    try:
        want = _reference_boundary(v, y, r)
    except DegenerateGeometryError as exc:
        with pytest.raises(DegenerateGeometryError, match=str(exc)):
            boundary_variation(v, y, r)
        return
    got = boundary_variation(v, y, r)
    assert [(a.location.tobytes(), a.omega.tobytes(), _float_bytes(a.mass))
            for a in got] == [
        (x.tobytes(), omega.tobytes(), _float_bytes(m)) for x, omega, m in want]


# ---------------------------------------------------------------------------
# vertex residuals (atomic representation)
# ---------------------------------------------------------------------------

def test_full_line_has_no_residuals():
    assert vertex_residuals(full_line([0.0, 0.0], [1.0, 0.0])) == []


def test_single_ray_atom_direction_and_identity():
    v = DiscreteVarifold(2, (), (ray([0, 0], [1, 0]),))
    atoms = vertex_residuals(v)
    assert len(atoms) == 1
    # reported omega is flipped so the representation identity holds verbatim
    assert np.allclose(atoms[0].omega, [-1.0, 0.0])
    assert atoms[0].mass == pytest.approx(1.0)
    g = plateau_field([0, 0], 1.0, [1.0, 0.0])
    dv = first_variation(v, g)
    assert dv == pytest.approx(-1.0, abs=1e-15)
    represented = sum(
        a.mass * float(np.dot(g.evaluate(a.location), a.omega)) for a in atoms
    )
    assert represented == pytest.approx(dv, abs=1e-15)


def test_unbalanced_y_junction_residual():
    dirs = [
        np.array([1.0, 0.0]),
        np.array([-0.5, math.sqrt(3) / 2]),
        np.array([-0.5, -math.sqrt(3) / 2]),
    ]
    balanced = DiscreteVarifold(2, (), tuple(ray([0, 0], d) for d in dirs))
    assert vertex_residuals(balanced) == []
    lopsided = DiscreteVarifold(
        2, (), tuple(ray([0, 0], d, w) for d, w in zip(dirs, (1.0, 1.0, 2.0)))
    )
    atoms = vertex_residuals(lopsided)
    assert len(atoms) == 1
    # 2 s3 + s1 + s2 = s3, so the residual has mass 1 along s3
    assert atoms[0].mass == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(atoms[0].omega, -dirs[2], atol=1e-14)


def test_representation_identity_random_battery():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        segs = tuple(
            segment(rng.uniform(-1, 1, n),
                    rng.uniform(-1, 1, n) + _unit(rng, n) * rng.uniform(0.4, 1.0),
                    float(rng.uniform(0.3, 2.0)))
            for _ in range(int(rng.integers(1, 4)))
        )
        rays = tuple(
            ray(rng.uniform(-1, 1, n), _unit(rng, n), float(rng.uniform(0.3, 2.0)))
            for _ in range(int(rng.integers(0, 3)))
        )
        v = DiscreteVarifold(n, segs, rays)
        atoms = vertex_residuals(v)
        for _ in range(20):
            g = bump_field(rng.uniform(-1.5, 1.5, n), float(rng.uniform(0.8, 2.5)),
                           rng.normal(size=n))
            dv = first_variation(v, g)
            rep = sum(
                a.mass * float(np.dot(g.evaluate(a.location), a.omega)) for a in atoms
            )
            assert rep == pytest.approx(dv, abs=1e-8)


def test_is_stationary():
    ok, worst = is_stationary(full_line([0.0, 0.0], [0.6, 0.8]), 1e-10)
    assert ok and worst == 0.0
    ok, worst = is_stationary(y_junction(), 1e-10)
    assert ok
    v = DiscreteVarifold(2, (segment([0, 0], [1, 0], 2.0),), ())
    ok, worst = is_stationary(v, 1e-10)
    assert not ok
    assert worst == pytest.approx(2.0)



@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_is_stationary_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        is_stationary(full_line([0.0, 0.0], [1.0, 0.0]), tol)


@pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf, math.inf])
def test_vertex_residuals_rejects_nan_or_negative_tolerance(tol):
    # a balanced vertex has residual 0, which a negative tol would turn
    # into an atom of mass 0; an infinite tol used to hide every residual
    with pytest.raises(ValueError, match="tolerance"):
        vertex_residuals(full_line([0.0, 0.0], [1.0, 0.0]), tol=tol)


@pytest.mark.parametrize("nodes", [0, 1, -3])
def test_first_variation_quadrature_needs_two_nodes(nodes):
    # at the parent, 0 and 1 divided by zero and -3 reached np.ones(-3)
    v, g = y_junction(), bump_field([0.0, 0.0], 1.0, [1.0, 0.0])
    with pytest.raises(ValueError, match="^nodes must be at least 2$"):
        first_variation_quadrature(v, g, nodes=nodes)
    assert first_variation_quadrature(v, g, nodes=2) == first_variation_quadrature(v, g, nodes=3)


def test_stationarity_dilation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = random_stationary_network(rng, 3, n_vertices=3)
        assert is_stationary(v, 1e-10)[0]
        for lam in (0.5, 2.0):
            x = rng.uniform(-1, 1, 3)
            assert is_stationary(dilate(v, x, lam), 1e-10)[0]


def test_row_norms_match_np_linalg_norm():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5):
        r = rng.normal(size=(5000, n)) * 10.0 ** rng.uniform(-8, 8, size=(5000, 1))
        r[::7] = 0.0
        want = np.array([np.linalg.norm(row) for row in r])
        assert _row_norms(r)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("w", [1e-160, 1e200])
def test_residual_norms_of_tiny_and_huge_weights(w):
    # the squared norm underflows to a subnormal (1e-160) or overflows (1e200)
    v = DiscreteVarifold(2, (), (ray([0, 0], [1, 0], w), ray([0, 0], [0, 1], w)))
    expected = w * math.sqrt(2.0)
    ok, worst = is_stationary(v, 1e-10)
    assert ok == (w < 1e-10)
    assert abs(worst - expected) <= 1e-15 * expected
    [atom] = vertex_residuals(v, 0.0)
    assert atom.mass == worst
    assert abs(float(np.dot(atom.omega, atom.omega)) - 1.0) <= 1e-15
    assert atom.omega[0] == atom.omega[1] < 0.0


def test_subnormal_residual_has_a_unit_direction():
    v = DiscreteVarifold(2, (), (ray([0, 0], [1, 0], 1e-320), ray([0, 0], [0, 1], 3e-320)))
    [atom] = vertex_residuals(v, 0.0)
    assert 0.0 < atom.mass < np.finfo(float).tiny
    assert abs(float(np.dot(atom.omega, atom.omega)) - 1.0) <= 1e-15
    assert np.allclose(atom.omega, -unit(np.array([1.0, 3.0])), rtol=0, atol=1e-15)


@pytest.mark.parametrize("dirs,mass", [
    # two of the three ends sum to inf: the direction comes from the vertex
    # summed again with scaled weights, and the mass stays inf
    ([[1, 0], [1, 0], [0, 1]], math.inf),
    # a partial sum overflows but the ends cancel, wholly or down to one
    ([[1, 0], [1, 0], [-1, 0], [-1, 0]], None),
    ([[1, 0], [1, 0], [-1, 0]], 1e308),
])
def test_overflowing_residual_has_a_unit_direction(dirs, mass):
    v = DiscreteVarifold(2, (), tuple(ray([0, 0], d, 1e308) for d in dirs))
    atoms = vertex_residuals(v, 0.0)
    assert is_stationary(v, 1.0) == (mass is None, mass or 0.0)
    if mass is None:
        assert atoms == []
        return
    [atom] = atoms
    assert atom.mass == mass
    assert abs(float(np.dot(atom.omega, atom.omega)) - 1.0) <= 1e-15
    expected = -unit(np.sum(np.array(dirs, float), axis=0))
    assert np.allclose(atom.omega, expected, rtol=0, atol=1e-15)


def test_variation_atom_rejects_nan_omega():
    for omega in ([math.nan, 0.0], [math.nan, math.nan], [2.0, 0.0]):
        with pytest.raises(ValueError, match="unit vector"):
            VariationAtom([0.0, 0.0], omega, 1.0)


def test_is_stationary_builds_no_atoms(monkeypatch):
    built = []
    check = VariationAtom.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(VariationAtom, "__post_init__", counting)
    v = random_stationary_network(np.random.default_rng(4), 3, n_vertices=300)
    last = v.rays[-1]
    control = DiscreteVarifold(3, v.segments, v.rays[:-1] + (
        RayPiece(last.origin, last.direction, 2.0 * last.weight),))
    assert is_stationary(v, 1e-10)[0]
    assert not is_stationary(control, 1e-10)[0]
    assert built == []
    # the counter sees the atoms that vertex_residuals builds
    assert len(vertex_residuals(control, 1e-10)) == 1 and len(built) == 1


# ---------------------------------------------------------------------------
# the vertex index
# ---------------------------------------------------------------------------

def _reference_residuals(v, tol):
    """Greedy first-representative grouping with one scan of every piece per
    vertex: the loop the vertex index replaced, kept as its reference."""
    ends = [e for s in v.segments for e in (s.a, s.b)] + [r.origin for r in v.rays]
    reps = []
    for q in ends:
        if all(np.linalg.norm(rep - q) > VERTEX_TOL for rep in reps):
            reps.append(q)
    atoms = []
    for x in reps:
        residual = np.zeros(v.ambient_dim)
        for s in v.segments:
            if np.linalg.norm(s.a - x) <= VERTEX_TOL:
                residual = residual + s.weight * unit(s.b - s.a)
            if np.linalg.norm(s.b - x) <= VERTEX_TOL:
                residual = residual + s.weight * unit(s.a - s.b)
        for r in v.rays:
            if np.linalg.norm(r.origin - x) <= VERTEX_TOL:
                residual = residual + r.weight * r.direction
        m = float(np.linalg.norm(residual))
        if m > tol:
            atoms.append((x, -residual / m, m))
    return atoms


def _atom_bytes(atoms):
    rows = sorted(tuple(x) + (m,) + tuple(omega) for x, omega, m in atoms)
    return np.array(rows).tobytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]),
       n_vertices=st.integers(2, 80))
def test_vertex_index_matches_greedy_reference_bitwise(seed, n, n_vertices):
    rng = np.random.default_rng(seed)
    v = random_stationary_network(rng, n, n_vertices=n_vertices)
    control = DiscreteVarifold(n, v.segments, v.rays[:-1] + (
        RayPiece(v.rays[-1].origin, v.rays[-1].direction, v.rays[-1].weight * 1.001),))
    projected = weighted_projection(v, random_subspace(rng, n, int(rng.integers(1, n))))
    for w in (v, control, projected):
        got = [(a.location, a.omega, a.mass) for a in vertex_residuals(w, tol=0.0)]
        ref = _reference_residuals(w, 0.0)
        assert _atom_bytes(got) == _atom_bytes(ref)
        worst = max((m for _, _, m in ref), default=0.0)
        assert is_stationary(w, 1e-10) == (worst <= 1e-10, worst)


def test_chained_ends_form_one_vertex_at_the_first_end():
    # 0.6e-9 steps: the first and last ends are 1.2e-9 apart, still one vertex
    v = DiscreteVarifold(2, (), (
        ray([0.0, 0.0], [1.0, 0.0]),
        ray([0.6e-9, 0.0], [0.0, 1.0]),
        ray([1.2e-9, 0.0], [-1.0, 0.0], 2.0),
    ))
    atoms = vertex_residuals(v)
    assert len(atoms) == 1
    assert np.array_equal(atoms[0].location, [0.0, 0.0])
    assert atoms[0].mass == math.sqrt(2.0)
    # listed out of order the group still takes its lowest index
    pts = np.array([[1.2e-9, 0.0], [0.0, 0.0], [0.6e-9, 0.0], [5.0, 5.0]])
    assert group_ends(pts).tolist() == [0, 0, 0, 3]


def test_ends_beyond_tolerance_form_two_vertices():
    v = DiscreteVarifold(2, (), (ray([0.0, 0.0], [1.0, 0.0]), ray([2e-9, 0.0], [0.0, 1.0])))
    atoms = vertex_residuals(v)
    assert [a.location.tolist() for a in atoms] == [[0.0, 0.0], [2e-9, 0.0]]
    assert [a.mass for a in atoms] == [1.0, 1.0]


def test_coincident_ends_form_one_vertex():
    v = DiscreteVarifold(2, (segment([0, 0], [1, 0]), segment([1, 0], [1, 1])), ())
    atoms = vertex_residuals(v)
    corner = [a for a in atoms if np.array_equal(a.location, [1.0, 0.0])]
    assert len(atoms) == 3 and len(corner) == 1
    assert corner[0].mass == math.sqrt(2.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
       count=st.integers(1, 60))
def test_group_ends_is_the_transitive_closure(seed, n, count):
    # points on a lattice of spacing near the tolerance, so groups chain and
    # windows need the exact pass
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 6, size=(count, n)) * 0.7e-9 + rng.uniform(0, 1e-10, (count, n))
    near = np.linalg.norm(pts[:, None] - pts[None], axis=2) <= VERTEX_TOL
    expected = np.arange(count)
    for _ in range(count):
        expected = np.where(near, expected[None, :], count).min(axis=1)
    assert np.array_equal(group_ends(pts), expected)


def test_is_stationary_budget_at_2000_pieces():
    v = random_stationary_network(np.random.default_rng(1), 3, n_vertices=670)
    assert 1900 <= len(v.segments) + len(v.rays) <= 2100
    t0 = time.perf_counter()
    ok, _ = is_stationary(v, 1e-10)
    assert time.perf_counter() - t0 < 0.5
    assert ok


# ---------------------------------------------------------------------------
# boundary variation
# ---------------------------------------------------------------------------

def test_boundary_line_through_center():
    v = full_line([0.0, 0.0], [1.0, 0.0])
    atoms = boundary_variation(v, [0, 0], 1.0)
    assert len(atoms) == 2
    omegas = sorted(tuple(a.omega) for a in atoms)
    assert np.allclose(omegas, [(-1.0, 0.0), (1.0, 0.0)])
    for a in atoms:
        radial = a.location / np.linalg.norm(a.location)
        assert float(np.dot(a.omega, radial)) >= -1e-12


def test_boundary_y_junction_three_arms():
    v = y_junction()
    atoms = boundary_variation(v, [0, 0], 0.5)
    assert len(atoms) == 3
    for a in atoms:
        assert a.mass == pytest.approx(1.0)
        assert float(np.dot(a.omega, a.location / 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_boundary_chord_angles():
    d, r = 0.6, 1.0
    v = DiscreteVarifold(2, (segment([-5, d], [5, d]),), ())
    atoms = boundary_variation(v, [0, 0], r)
    assert len(atoms) == 2
    expected_angle = math.acos(math.sqrt(1 - d * d / (r * r)))
    for a in atoms:
        radial = a.location / np.linalg.norm(a.location)
        dot = float(np.dot(a.omega, radial))
        assert dot >= 0.0
        assert math.acos(min(1.0, dot)) == pytest.approx(expected_angle, abs=1e-12)


def test_boundary_atoms_reproduce_first_variation():
    rng = np.random.default_rng(31)
    from varifold_lab import restrict

    for _ in range(10):
        v = random_stationary_network(rng, 3, n_vertices=2)
        y = rng.uniform(-0.5, 0.5, 3)
        r = float(rng.uniform(0.8, 1.6))
        try:
            atoms = boundary_variation(v, y, r)
        except DegenerateGeometryError:
            continue
        vr = restrict(v, y, r, "inside")
        interior = [
            a for a in vertex_residuals(vr)
            if np.linalg.norm(a.location - y) < r - 1e-9
        ]
        g = bump_field(rng.uniform(-1, 1, 3), float(rng.uniform(0.5, 3.0)),
                       rng.normal(size=3))
        dv = first_variation(vr, g)
        rep = sum(a.mass * float(np.dot(g.evaluate(a.location), a.omega))
                  for a in atoms + interior)
        assert rep == pytest.approx(dv, abs=1e-8)


def test_boundary_degeneracies_raise():
    # tangent line
    v = DiscreteVarifold(2, (segment([-2, 1], [2, 1]),), ())
    with pytest.raises(DegenerateGeometryError, match="tangent"):
        boundary_variation(v, [0, 0], 1.0)
    # endpoint on the sphere
    v2 = DiscreteVarifold(2, (segment([1, 0], [3, 0]),), ())
    with pytest.raises(DegenerateGeometryError, match="endpoint"):
        boundary_variation(v2, [0, 0], 1.0)
    # far endpoint on the sphere
    v3 = DiscreteVarifold(2, (segment([3, 0], [1, 0]),), ())
    with pytest.raises(DegenerateGeometryError, match="endpoint"):
        boundary_variation(v3, [0, 0], 1.0)


@pytest.mark.parametrize("pieces, message", [
    ([ray([-2, -1], [1, 0])], "tangent"),
    # a piece both tangent and ending on the sphere reports its endpoint
    ([segment([0, 1], [2, 1])], "endpoint"),
    # the first bad piece in piece order reports
    ([segment([-2, 1], [2, 1]), segment([1, 0], [3, 0])], "tangent"),
    ([segment([1, 0], [3, 0]), segment([-2, 1], [2, 1])], "endpoint"),
    ([segment([-2, 1], [2, 1]), ray([0, -1], [0, -1])], "tangent"),
    # segments come before rays
    ([ray([-2, -1], [1, 0]), segment([-3, 0], [3, 0]), segment([1, 0], [3, 0])],
     "endpoint"),
])
def test_boundary_degeneracy_reports_first_bad_piece(pieces, message):
    v = DiscreteVarifold(2, [p for p in pieces if isinstance(p, SegmentPiece)],
                         [p for p in pieces if isinstance(p, RayPiece)])
    with pytest.raises(DegenerateGeometryError, match=message):
        boundary_variation(v, [0, 0], 1.0)
