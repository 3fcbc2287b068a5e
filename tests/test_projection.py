import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import (
    ConicVarifold,
    DiscreteVarifold,
    RayPiece,
    SampledDensity,
    SegmentPiece,
    Subspace,
    circle_arc_mass,
    circle_grid,
    conic_atoms,
    counterexample_pair,
    dilate,
    halfline_multiplicity,
    mapping_projection,
    mass,
    vertex_residuals,
    weighted_projection,
    weighted_projection_conic,
)
from varifold_lab.core import unit
from varifold_lab.fixtures import (
    full_line,
    random_stationary_network,
    random_subspace,
    random_varifold,
)
from varifold_lab.projection import DROP_TOL, _density_halfline_mass, halfline_difference_table


def pieces_key(v: DiscreteVarifold):
    rows = []
    for s in v.segments:
        rows.append(("seg",) + tuple(np.round(s.a, 9)) + tuple(np.round(s.b, 9)) + (round(s.weight, 9),))
    for r in v.rays:
        rows.append(("ray",) + tuple(np.round(r.origin, 9)) + tuple(np.round(r.direction, 9)) + (round(r.weight, 9),))
    return sorted(rows)


def assert_same_pieces(v1: DiscreteVarifold, v2: DiscreteVarifold, tol=1e-12):
    assert len(v1.segments) == len(v2.segments)
    assert len(v1.rays) == len(v2.rays)
    s1 = sorted(v1.segments, key=lambda s: (tuple(s.a), tuple(s.b)))
    s2 = sorted(v2.segments, key=lambda s: (tuple(s.a), tuple(s.b)))
    for a, b in zip(s1, s2):
        assert np.allclose(a.a, b.a, atol=tol)
        assert np.allclose(a.b, b.b, atol=tol)
        assert a.weight == pytest.approx(b.weight, abs=tol)
    r1 = sorted(v1.rays, key=lambda r: (tuple(r.origin), tuple(r.direction)))
    r2 = sorted(v2.rays, key=lambda r: (tuple(r.origin), tuple(r.direction)))
    for a, b in zip(r1, r2):
        assert np.allclose(a.origin, b.origin, atol=tol)
        assert np.allclose(a.direction, b.direction, atol=tol)
        assert a.weight == pytest.approx(b.weight, abs=tol)


# ---------------------------------------------------------------------------
# mapping vs weighted projection of discrete varifolds
# ---------------------------------------------------------------------------

def test_diagonal_line_mapping_multiplicity_one():
    line = full_line([0.0, 0.0], [1.0, 1.0])
    p = Subspace.span([1.0, 0.0])
    image = mapping_projection(line, p)
    assert all(r.weight == 1.0 for r in image.rays)
    assert mass(image, [0, 0], 1.0) == pytest.approx(2.0, abs=1e-14)


def test_diagonal_line_weighted_multiplicity_sqrt2_over_2():
    line = full_line([0.0, 0.0], [1.0, 1.0])
    p = Subspace.span([1.0, 0.0])
    image = weighted_projection(line, p)
    for r in image.rays:
        assert r.weight == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_piece_parallel_to_target_is_unchanged():
    v = DiscreteVarifold(2, (SegmentPiece([0.0, 0.5], [1.0, 0.5], 1.3),), ())
    p = Subspace.span([1.0, 0.0])
    for op in (mapping_projection, weighted_projection):
        image = op(v, p)
        s = image.segments[0]
        assert s.weight == pytest.approx(1.3, abs=1e-15)
        assert np.allclose([s.a[0], s.b[0]], [0.0, 1.0])
        assert np.allclose([s.a[1], s.b[1]], [0.0, 0.0])


def test_orthogonal_piece_dropped():
    v = DiscreteVarifold(2, (SegmentPiece([0.3, 0.0], [0.3, 1.0], 1.0),), ())
    p = Subspace.span([1.0, 0.0])
    assert mapping_projection(v, p).is_empty
    assert weighted_projection(v, p).is_empty


def test_weighted_mass_is_cos_squared():
    alpha = 0.73
    v = DiscreteVarifold(
        2, (SegmentPiece([0.0, 0.0], [math.cos(alpha), math.sin(alpha)], 1.0),), ()
    )
    p = Subspace.span([1.0, 0.0])
    image = weighted_projection(v, p)
    assert image.segments[0].weight == pytest.approx(math.cos(alpha), abs=1e-14)
    total = image.segments[0].weight * image.segments[0].length
    assert total == pytest.approx(math.cos(alpha) ** 2, abs=1e-14)
    # domination by the mapping projection on test balls
    for radius in (0.2, 0.6, 1.5):
        assert mass(image, [0, 0], radius) <= mass(
            mapping_projection(v, p), [0, 0], radius
        ) + 1e-15


# ---------------------------------------------------------------------------
# composition and dilation commutation
# ---------------------------------------------------------------------------

def test_composition_through_nested_subspaces():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 6))
        v = random_varifold(rng, n)
        pdim = int(rng.integers(2, n))
        p = random_subspace(rng, n, pdim)
        qdim = int(rng.integers(1, pdim))
        mix = rng.normal(size=(qdim, pdim)) @ p.basis
        q = Subspace(n, np.linalg.qr(mix.T)[0].T)
        direct = weighted_projection(v, q)
        composed = weighted_projection(weighted_projection(v, p), q)
        assert_same_pieces(direct, composed)


def test_dilation_commutation():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        v = random_varifold(rng, n)
        p = random_subspace(rng, n, int(rng.integers(1, n)))
        x = rng.uniform(-1, 1, n)
        lam = float(rng.uniform(0.2, 4.0))
        left = weighted_projection(dilate(v, x, lam), p)
        right = dilate(weighted_projection(v, p), p.project(x), lam)
        assert_same_pieces(left, right)


def test_weighted_projection_preserves_vertex_balance():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        v = random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 4)))
        p = random_subspace(rng, n, int(rng.integers(1, n)))
        image = weighted_projection(v, p)
        worst = max((a.mass for a in vertex_residuals(image)), default=0.0)
        assert worst <= 1e-10


# ---------------------------------------------------------------------------
# conic specialization
# ---------------------------------------------------------------------------

def test_conic_atom_projection_mass():
    z = np.array([0.6, 0.0, 0.8])
    c = conic_atoms(3, [(z, 1.5)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))  # horizontal plane
    image = weighted_projection_conic(c, p)
    assert image.n_atoms == 1
    assert np.allclose(image.atom_directions[0], [1.0, 0.0, 0.0], atol=1e-15)
    assert image.atom_masses[0] == pytest.approx(1.5 * 0.6, abs=1e-14)


def test_conic_atom_in_target_unchanged():
    c = conic_atoms(3, [([0.0, 1.0, 0.0], 2.0)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    image = weighted_projection_conic(c, p)
    assert np.allclose(image.atom_directions[0], [0, 1, 0])
    assert image.atom_masses[0] == pytest.approx(2.0)


def test_conic_poles_dropped():
    c = conic_atoms(3, [([0, 0, 1.0], 1.0), ([0, 0, -1.0], 2.0)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    assert weighted_projection_conic(c, p).n_atoms == 0


def test_conic_image_merging():
    c = conic_atoms(3, [([0.6, 0.0, 0.8], 1.0), ([0.6, 0.0, -0.8], 2.0)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    image = weighted_projection_conic(c, p)
    assert image.n_atoms == 1
    assert image.atom_masses[0] == pytest.approx(0.6 * 3.0, abs=1e-14)


def _reference_projection_conic(c, p):
    """Atoms, then density nodes one by one (or the two mode-exact half-line
    masses from the circle to a line): the loop that mass_rows replaced,
    kept as its reference."""
    images = []
    for i in range(c.n_atoms):
        img = p.project(c.atom_directions[i])
        contraction = float(np.linalg.norm(img))
        if contraction <= DROP_TOL:
            continue
        images.append((unit(img), float(c.atom_masses[i]) * contraction))
    if c.density is not None:
        if c.ambient_dim == 2 and p.dim == 1:
            u = unit(p.basis[0])
            for sign in (1.0, -1.0):
                m = _density_halfline_mass(c.density, sign * u)
                if m > DROP_TOL:
                    images.append((sign * u, m))
        else:
            g = c.density.grid
            node_masses = g.weights * c.density.values
            for i in range(g.size):
                if node_masses[i] <= 0.0:
                    continue
                img = p.project(g.nodes[i])
                contraction = float(np.linalg.norm(img))
                if contraction <= DROP_TOL:
                    continue
                images.append((unit(img), float(node_masses[i]) * contraction))
    return conic_atoms(c.ambient_dim, images)


def test_projection_conic_matches_node_loop_bitwise(mixed_cones):
    rng = np.random.default_rng(77)
    for c in mixed_cones:
        n = c.ambient_dim
        for k in range(1, n):
            p = random_subspace(rng, n, k)
            got = weighted_projection_conic(c, p)
            want = _reference_projection_conic(c, p)
            assert got.density is None
            assert got.atom_directions.tobytes() == want.atom_directions.tobytes()
            assert got.atom_masses.tobytes() == want.atom_masses.tobytes()


# ---------------------------------------------------------------------------
# half-line multiplicities and the counterexample
# ---------------------------------------------------------------------------

def test_halfline_single_atom():
    c = conic_atoms(2, [([1.0, 0.0], 1.0)])
    assert halfline_multiplicity(c, [1.0, 0.0]) == pytest.approx(1.0)
    assert halfline_multiplicity(c, [-1.0, 0.0]) == 0.0


def test_halfline_uniform_density_is_two():
    grid = circle_grid(2048)
    c = ConicVarifold(2, density=SampledDensity(grid, np.ones(2048)))
    for ang in (0.0, 0.37, 2.1, 4.9):
        u = np.array([math.cos(ang), math.sin(ang)])
        assert halfline_multiplicity(c, u) == pytest.approx(2.0, abs=1e-12)


def test_halfline_matches_conic_projection():
    grid = circle_grid(512)
    c = ConicVarifold(
        2,
        np.array([[0.0, 1.0]]),
        np.array([0.8]),
        SampledDensity(grid, 1.0 + 0.3 * np.cos(grid.angles) ** 2),
    )
    for ang in (0.1, 1.0, 3.3):
        u = np.array([math.cos(ang), math.sin(ang)])
        image = weighted_projection_conic(c, Subspace.span(u))
        plus = sum(
            float(m)
            for d, m in zip(image.atom_directions, image.atom_masses)
            if float(np.dot(d, u)) > 0
        )
        assert halfline_multiplicity(c, u) == pytest.approx(plus, abs=1e-12)


def test_counterexample_pair_properties():
    v1, v2 = counterexample_pair()
    # equal total sphere masses
    assert v1.total_mass == pytest.approx(2 * np.pi, abs=1e-10)
    assert v2.total_mass == pytest.approx(2 * np.pi, abs=1e-10)
    # the masses differ on the arc (0, pi/3) by exactly 2/3
    diff = circle_arc_mass(v1, 0.0, np.pi / 3) - circle_arc_mass(v2, 0.0, np.pi / 3)
    assert diff == pytest.approx(2.0 / 3.0, abs=1e-10)
    # yet every half-line multiplicity agrees
    worst = 0.0
    for k in range(360):
        ang = 2 * np.pi * k / 360
        u = np.array([math.cos(ang), math.sin(ang)])
        worst = max(worst, abs(halfline_multiplicity(v1, u) - halfline_multiplicity(v2, u)))
    assert worst <= 1e-10


@pytest.mark.parametrize("n_directions", [0, -1])
def test_halfline_difference_table_needs_a_direction(n_directions):
    # at the parent 0 gave an empty table and -1 failed inside np.empty
    with pytest.raises(ValueError, match="^n_directions must be at least 1$"):
        halfline_difference_table(*counterexample_pair(), n_directions)
    assert halfline_difference_table(*counterexample_pair(), 1).shape == (1, 4)


# ---------------------------------------------------------------------------
# columnar projection against the per-piece loop it replaced
# ---------------------------------------------------------------------------

def _reference_project_pieces(v, p, weighted):
    segs, rays = [], []
    for s in v.segments:
        contraction = float(np.linalg.norm(p.project(s.direction)))
        if contraction <= DROP_TOL:
            continue
        w = s.weight * contraction if weighted else s.weight
        segs.append(SegmentPiece(p.project(s.a), p.project(s.b), w))
    for r in v.rays:
        img = p.project(r.direction)
        contraction = float(np.linalg.norm(img))
        if contraction <= DROP_TOL:
            continue
        w = r.weight * contraction if weighted else r.weight
        rays.append(RayPiece(p.project(r.origin), unit(img), w))
    return DiscreteVarifold(v.ambient_dim, tuple(segs), tuple(rays))


def _piece_bytes(v):
    return ([(s.a.tobytes(), s.b.tobytes(), np.float64(s.weight).tobytes()) for s in v.segments],
            [(r.origin.tobytes(), r.direction.tobytes(), np.float64(r.weight).tobytes())
             for r in v.rays])


def test_projections_match_piece_loop_bitwise():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = 2 + trial % 4
        v = random_varifold(rng, n, n_segments=int(rng.integers(0, 8)),
                            n_rays=int(rng.integers(0, 5)))
        p = random_subspace(rng, n, int(rng.integers(1, n)))
        got = (mapping_projection(v, p), weighted_projection(v, p))
        want = (_reference_project_pieces(v, p, False), _reference_project_pieces(v, p, True))
        assert [_piece_bytes(x) for x in got] == [_piece_bytes(x) for x in want]
    # a piece orthogonal to the target is dropped by both
    v = DiscreteVarifold(3, (SegmentPiece([0, 0, 0], [0, 0, 1.0], 1.0),),
                         (RayPiece([1.0, 0, 0], [0, 0, -1.0], 2.0),))
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    assert weighted_projection(v, p).is_empty and mapping_projection(v, p).is_empty


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), data=st.data())
def test_weighted_projection_of_stationary_network_is_stationary(seed, n, data):
    rng = np.random.default_rng(seed)
    v = random_stationary_network(rng, n, n_vertices=data.draw(st.integers(1, 12)))
    p = random_subspace(rng, n, data.draw(st.integers(1, n - 1)))
    worst = max((a.mass for a in vertex_residuals(weighted_projection(v, p))), default=0.0)
    assert worst <= 1e-10


_CONE_3D = conic_atoms(3, [([0.0, 0.0, 1.0], 1.0)])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: mapping_projection(DiscreteVarifold(3), Subspace.span([1.0, 0.0])),
                 "subspace lives in a different ambient space", id="mapping"),
    pytest.param(lambda: weighted_projection(DiscreteVarifold(3), Subspace.span([1.0, 0.0])),
                 "subspace lives in a different ambient space", id="weighted"),
    pytest.param(lambda: halfline_multiplicity(_CONE_3D, [1.0, 0.0]),
                 "half-line multiplicities are defined in the plane only", id="halfline"),
    pytest.param(lambda: weighted_projection_conic(_CONE_3D, Subspace.span([1.0, 0.0])),
                 "subspace lives in a different ambient space", id="conic"),
])
def test_projection_checks_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=message):
        build()
