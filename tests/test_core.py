import decimal
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from varifold_lab import (
    BandOracle,
    ConicVarifold,
    DensityValue,
    DiscreteVarifold,
    RayPiece,
    SampledDensity,
    SegmentPiece,
    SphereGrid,
    Subspace,
    band_marginal,
    circle_arc_mass,
    circle_grid,
    conic_atoms,
    conic_to_discrete,
    default_normals,
    dense_lines_fixture,
    density,
    dilate,
    gnomonic_pushforward,
    halfline_multiplicity,
    mass,
    radial_projection_cap_mass,
    reconstruct_conic,
    restrict,
    sphere_grid,
)
from varifold_lab.core import (
    ATOM_SEPARATION_TOL,
    SLIVER_TOL,
    VERTEX_TOL,
    DegenerateGeometryError,
    _chord_rows,
    _direction_distances,
    _is_unit,
    _piece_rows,
    _rowdot,
    _unit_rows,
    as_vector,
    incident_rays,
    piece_ends,
    split_at_point,
    unit,
)
from varifold_lab.tomography import LineMeasure, PlaneMeasure
from varifold_lab.variation import VariationAtom
from varifold_lab.fixtures import (
    full_line,
    random_conic,
    random_stationary_network,
    random_varifold,
    y_junction,
)

from varifold_lab import blowup, fixtures, projection, tomography, variation
from varifold_lab.io import document_from_dict, document_to_dict
from piece_reference import ball_interval, piece_frame
from tomography_reference import conic_atoms as reference_conic_atoms


def segment(a, b, w=1.0):
    return SegmentPiece(np.array(a, float), np.array(b, float), w)


def ray(o, d, w=1.0):
    return RayPiece(np.array(o, float), np.array(d, float), w)


# ---------------------------------------------------------------------------
# types and invariants
# ---------------------------------------------------------------------------

def test_subspace_orthonormality_enforced():
    with pytest.raises(ValueError):
        Subspace(3, np.array([[1.0, 1.0, 0.0]]))
    p = Subspace.span([1.0, 1.0, 0.0])
    assert p.dim == 1
    # idempotent projection
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=3)
        px = p.project(x)
        assert np.linalg.norm(p.project(px) - px) <= 1e-12 * max(1.0, np.linalg.norm(x))


def test_piece_validation():
    with pytest.raises(ValueError):
        segment([0, 0], [0, 0])
    with pytest.raises(ValueError):
        segment([0, 0], [1, 0], w=-1.0)
    with pytest.raises(ValueError):
        ray([0, 0], [2, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_pieces_rejected(bad):
    for make in (
        lambda: segment([bad, 0], [1, 0]),
        lambda: segment([0, 0], [1, bad]),
        lambda: segment([0, 0], [1, 0], w=bad),
        lambda: ray([bad, 0], [1, 0]),
        lambda: ray([0, 0], [bad, 0]),
        lambda: ray([0, 0], [1, 0], w=bad),
    ):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_cones_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        ConicVarifold(2, np.array([[1.0, 0.0]]), np.array([bad]))
    with pytest.raises(ValueError, match="finite"):
        ConicVarifold(2, np.array([[bad, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        SampledDensity(circle_grid(4), np.array([1.0, bad, 0.0, 0.0]))


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: as_vector([[1.0, 2.0]]), ValueError, "expected a 1-d vector",
                 id="vector-shape"),
    pytest.param(lambda: Subspace(3, [1.0, 0.0, 0.0]), ValueError,
                 "basis must have shape (k, ambient_dim)", id="basis-shape"),
    pytest.param(lambda: Subspace(2, np.eye(2)), ValueError,
                 "subspace dimension must satisfy 1 <= k < n", id="basis-rank"),
    pytest.param(lambda: DiscreteVarifold(2, (ray([0, 0], [1, 0]),)), TypeError,
                 "segments must be SegmentPiece objects", id="segment-type"),
    pytest.param(lambda: DiscreteVarifold(2, (), (segment([0, 0], [1, 0]),)), TypeError,
                 "rays must be RayPiece objects", id="ray-type"),
    pytest.param(lambda: DiscreteVarifold(3, (segment([0, 0], [1, 0]),)), ValueError,
                 "piece is in R^2, not R^3", id="piece-dimension"),
    pytest.param(lambda: DiscreteVarifold(2) + DiscreteVarifold(3), ValueError,
                 "summand is in R^3, not R^2", id="sum-dimension"),
    pytest.param(lambda: circle_grid(3), ValueError, "n_nodes must be an integer of at least 4",
                 id="circle-grid"),
    pytest.param(lambda: sphere_grid(1, 8), ValueError, "n_polar must be an integer of at least 2",
                 id="sphere-grid"),
    pytest.param(lambda: SampledDensity(circle_grid(8), np.ones(7)), ValueError,
                 "values must match the grid size", id="density-size"),
    pytest.param(lambda: SampledDensity(circle_grid(8), -np.ones(8)), ValueError,
                 "density values must be nonnegative", id="density-sign"),
    pytest.param(lambda: ConicVarifold(3, [[1.0, 0.0]], [1.0]), ValueError,
                 "atom_directions must have shape (k, ambient_dim)", id="cone-directions"),
    pytest.param(lambda: ConicVarifold(2, [[1.0, 0.0]], [1.0, 2.0]), ValueError,
                 "atom masses must match atom directions", id="cone-masses"),
    pytest.param(lambda: conic_atoms(3, [([1.0, 0.0], 1.0)]), ValueError,
                 "atom_directions must have shape (k, ambient_dim)", id="conic-atoms-directions"),
    pytest.param(lambda: DensityValue(1.0, 1.0, 2.0), ValueError,
                 "value must equal lower when present", id="density-value"),
    pytest.param(lambda: restrict(full_line([0, 0], [1, 0]), [0, 0], 1.0, "both"), ValueError,
                 "keep must be 'inside' or 'outside'", id="restrict-keep"),
    pytest.param(lambda: circle_arc_mass(conic_atoms(3, [([0.0, 0.0, 1.0], 1.0)]), 0.0, 1.0),
                 ValueError, "cone is in R^3, not R^2", id="arc-dimension"),
])
def test_core_checks_name_what_is_wrong(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_mass_rows_lists_atoms_then_positive_density_nodes():
    grid = circle_grid(4)
    c = ConicVarifold(2, np.array([[0.6, 0.8]]), np.array([1.5]),
                      SampledDensity(grid, np.array([1.0, 0.0, 2.0, 0.0])))
    dirs, masses = c.mass_rows()
    assert np.array_equal(dirs, np.vstack([[[0.6, 0.8]], grid.nodes[[0, 2]]]))
    assert np.array_equal(masses, [1.5, grid.weights[0] * 1.0, grid.weights[2] * 2.0])


def test_conic_atoms_must_be_distinct():
    with pytest.raises(ValueError):
        ConicVarifold(2, np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))
    merged = conic_atoms(2, [([1.0, 0.0], 1.0), ([1.0, 0.0], 2.0)])
    assert merged.n_atoms == 1
    assert merged.atom_masses[0] == 3.0


@st.composite
def _atom_pairs(draw):
    """(n, [(direction, mass)]) in R^2 to R^4: fresh rows, unit rows, rows
    1e-13 to 1e-8 from an earlier row, rescaled rows and zero rows."""
    n = draw(st.sampled_from([2, 3, 4]))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    pairs = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "unit", "near", "near", "zero"]))
        d = np.array(draw(coords))
        if kind == "unit" and np.linalg.norm(d) > 0.0:
            d = d / np.linalg.norm(d)
        elif kind == "near" and pairs:
            step = 10.0 ** draw(st.floats(-13.0, -8.0))
            offset = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
            d = pairs[draw(st.integers(0, len(pairs) - 1))][0] + step * offset
        elif kind == "zero":
            d = np.zeros(n)
        if draw(st.booleans()):
            d = d * draw(st.floats(0.5, 2.0))
        pairs.append((d, draw(st.floats(0.01, 10.0))))
    return n, pairs


@settings(max_examples=300, deadline=None)
@given(_atom_pairs())
@example((3, []))
@example((2, [(np.array([1.0, 0.0]), 1.0), (np.array([0.0, 0.0]), 2.0)]))
@example((4, [(np.array([0.6, 0.0, 0.8, 0.0]), 1.0),
              (np.array([0.6, 0.0, 0.8, 5e-10]), 2.0),
              (np.array([0.6, 0.0, 0.8, 1e-9]), 0.5)]))
@example((2, [(np.array([1.0, 0.0]), 1.0), (np.array([1.0, 1.6e-9]), 2.0),
              (np.array([1.0, 0.8e-9]), 0.5)]))  # within the tolerance of both kept atoms
def test_conic_atoms_matches_pair_loop_bitwise(case):
    n, pairs = case
    try:
        want = reference_conic_atoms(n, pairs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            conic_atoms(n, pairs)
        return
    got = conic_atoms(n, pairs)
    assert got.atom_directions.tobytes() == want.atom_directions.tobytes()
    assert got.atom_masses.tobytes() == want.atom_masses.tobytes()


@st.composite
def _merged_cones(draw):
    """(n, [(direction, mass)]) in R^2 to R^5: random rows; rows a fraction
    or a multiple of ATOM_SEPARATION_TOL from an earlier unit row; rows
    scaled by 1e-200 or 1e200."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 5))
    units, pairs = [], []
    for _ in range(draw(st.integers(0, 8))):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        kind = draw(st.sampled_from(["fresh", "near", "scaled"]))
        if kind == "near" and units:
            step = ATOM_SEPARATION_TOL * draw(st.sampled_from([0.3, 0.999, 1.001, 3.0]))
            d = units[draw(st.integers(0, len(units) - 1))] + step * d
        units.append(d / np.linalg.norm(d))
        if kind == "scaled":
            d = d * draw(st.sampled_from([1e-200, 1e200]))
        pairs.append((d, draw(st.floats(0.01, 10.0))))
    return n, pairs


@settings(max_examples=200, deadline=None)
@given(_merged_cones())
def test_the_constructor_accepts_every_conic_atoms_result(case):
    # conic_atoms builds its cone without re-deriving unit norms and
    # distances; the public constructor must agree with what it skipped
    n, pairs = case
    c = conic_atoms(n, pairs)
    again = ConicVarifold(n, c.atom_directions, c.atom_masses)
    for got, want in ((c.atom_directions, again.atom_directions),
                      (c.atom_masses, again.atom_masses)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


@pytest.mark.parametrize("masses, merge", [
    ([math.nan], False), ([math.inf], False), ([-math.inf], False), ([0.0], False),
    ([-1.0], False), ([1.0, 0.0], False),
    ([1e308, 1e308], True),  # merged into an infinite mass
    ([-1.0, 0.5], True),     # merged into a negative one
])
def test_conic_atoms_rejects_masses_as_the_constructor(masses, merge):
    rows = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
    dirs = rows[[0] * len(masses)] if merge else rows[:len(masses)]
    with pytest.raises(ValueError) as public:
        if merge:
            ConicVarifold(3, rows[:1], np.array([sum(masses)]))
        else:
            ConicVarifold(3, dirs, np.array(masses))
    with pytest.raises(ValueError, match=re.escape(str(public.value))):
        conic_atoms(3, zip(dirs, masses))


def test_conic_atoms_rejects_a_density_of_another_dimension():
    density_2d = SampledDensity(circle_grid(4), np.ones(4))
    with pytest.raises(ValueError) as public:
        ConicVarifold(3, np.array([[0.0, 0.0, 1.0]]), np.array([1.0]), density_2d)
    with pytest.raises(ValueError, match=re.escape(str(public.value))):
        conic_atoms(3, [([0.0, 0.0, 1.0], 1.0)], density_2d)


def test_atom_validation_reads_the_merge_distances():
    # e1 and e1 + (0, d) with |d| within a few ulps of ATOM_SEPARATION_TOL:
    # ConicVarifold rejects exactly the pairs conic_atoms merges, where
    # np.linalg.norm over an axis reads some of these distances on the other
    # side of the tolerance
    rng = np.random.default_rng(19)
    seen = set()
    for n in (2, 3, 4):
        for _ in range(200):
            d = rng.normal(size=n - 1)
            for k in range(-3, 4):
                scale = ATOM_SEPARATION_TOL * (1.0 + k * 2.2e-16) / np.linalg.norm(d)
                dirs = np.array([np.eye(n)[0], np.concatenate(([1.0], scale * d))])
                close = bool(_direction_distances(dirs)[0, 1] <= ATOM_SEPARATION_TOL)
                assert conic_atoms(n, zip(dirs, (1.0, 2.0))).n_atoms == (1 if close else 2)
                if close:
                    with pytest.raises(ValueError, match="pairwise distinct"):
                        ConicVarifold(n, dirs, [1.0, 2.0])
                else:
                    ConicVarifold(n, dirs, [1.0, 2.0])
                seen.add(close)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the unit-vector rule
# ---------------------------------------------------------------------------

def _exact_unit(v):
    """v / |v| from the exact values of v's entries, each entry rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = [decimal.Decimal(float(x)) for x in v]
        norm = sum(x * x for x in d).sqrt()
        return np.array([float(x / norm) for x in d])


# entries across the float range: zero, subnormal, ordinary, near 1e-300 and 1e300
_exponent = st.integers(-323, 307) | st.sampled_from([-323, -310, -300, -155, 154, 300, 307])
_entry = st.one_of(
    st.just(0.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), _exponent),
)


@st.composite
def _unit_batches(draw):
    """One to four rows of 1 to 6 entries each."""
    n = draw(st.integers(1, 6))
    row = st.lists(_entry, min_size=n, max_size=n)
    return np.array(draw(st.lists(row, min_size=1, max_size=4)), dtype=float)


@settings(max_examples=300, deadline=None)
@given(_unit_batches())
@example(np.array([[1e200, 0.0, 0.0], [1e-200, 0.0, 0.0], [5e-324, 0.0, 0.0]]))
@example(np.array([[1e308, -1e308], [3e-200, 4e-200], [1.2e-154, 1.2e-154]]))
def test_unit_rule_over_the_float_range(rows):
    nonzero = rows[rows.any(axis=1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        units = [unit(v) for v in nonzero]
        for v, u in zip(nonzero, units):
            assert abs(math.sqrt(math.fsum(u * u)) - 1.0) <= 1e-15
            assert np.max(np.abs(u - _exact_unit(v))) <= 1e-15  # parallel to v
            with np.errstate(over="ignore"):
                sq = float(np.dot(v, v))
            if np.finfo(float).tiny <= sq < math.inf:
                assert u.tobytes() == (v / math.sqrt(sq)).tobytes()
        if len(nonzero):
            assert _unit_rows(nonzero)[0].tobytes() == np.array(units).tobytes()
            with np.errstate(over="ignore"):
                squares = _rowdot(nonzero, nonzero)
            # squared norms taken already, as a projection passes them in
            assert _unit_rows(nonzero, squares)[0].tobytes() == np.array(units).tobytes()
        for v in rows:
            with pytest.raises(ValueError, match="^cannot normalize the zero vector$"):
                unit(np.zeros_like(v))
            for bad in (math.inf, -math.inf, math.nan):
                w = v.copy()
                w[-1] = bad
                with pytest.raises(ValueError):
                    unit(w)
                with pytest.raises(ValueError):
                    _unit_rows(np.vstack((nonzero, w)))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_scaled_directions_give_the_unit_result(scale):
    rng = np.random.default_rng(23)
    cone = random_conic(rng, 3, n_atoms=4)
    v, xi = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    plane = random_conic(rng, 2, n_atoms=3)
    net = random_stationary_network(rng, 3, n_vertices=5)
    cap = np.array([1.0, 2.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normals = default_normals(3)
        got = reconstruct_conic(BandOracle(cone), 3, normals=[scale * nv for nv in normals])
        want = reconstruct_conic(BandOracle(cone), 3, normals=[unit(scale * nv) for nv in normals])
        assert got.atom_directions.tobytes() == want.atom_directions.tobytes()
        assert got.atom_masses.tobytes() == want.atom_masses.tobytes()
        # the signed axes scale exactly, so their charts are the unit normals' own
        axes = reconstruct_conic(BandOracle(cone), 3, normals=normals[:6])
        got = reconstruct_conic(BandOracle(cone), 3, normals=[scale * nv for nv in normals[:6]])
        assert got.atom_directions.tobytes() == axes.atom_directions.tobytes()
        assert got.atom_masses.tobytes() == axes.atom_masses.tobytes()
        g = gnomonic_pushforward(cone, scale * v).measure
        g1 = gnomonic_pushforward(cone, v).measure
        assert g.points.tobytes() == g1.points.tobytes()
        assert g.masses.tobytes() == g1.masses.tobytes()
        m = band_marginal(cone, scale * v, scale * xi, [(-1.0, 1.0)])
        m1 = band_marginal(cone, v, xi, [(-1.0, 1.0)])
        assert m.coordinates.tobytes() == m1.coordinates.tobytes()
        assert m.masses.tobytes() == m1.masses.tobytes()
        u = np.array([3.0, 4.0])
        assert halfline_multiplicity(plane, scale * u) == halfline_multiplicity(plane, u / 5.0)
        assert math.isclose(radial_projection_cap_mass(net, scale * cap, 0.7),
                            radial_projection_cap_mass(net, cap / 3.0, 0.7), rel_tol=1e-14)
        line = full_line([0.0, 0.0], scale * u)
        assert line.ray_d.tobytes() == full_line([0.0, 0.0], u).ray_d.tobytes()
        atoms = conic_atoms(2, [(scale * u, 1.0)])
        assert atoms.atom_directions.tobytes() == np.array([[0.6, 0.8]]).tobytes()
    for bad in ([0.0, 0.0, 0.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.inf]):
        for call in (lambda d: reconstruct_conic(BandOracle(cone), 3, normals=[np.array(d)]),
                     lambda d: gnomonic_pushforward(cone, d),
                     lambda d: band_marginal(cone, d, xi, [(-1.0, 1.0)]),
                     lambda d: halfline_multiplicity(plane, d[1:]),
                     lambda d: radial_projection_cap_mass(net, d, 0.7),
                     lambda d: full_line([0.0, 0.0], d[1:]),
                     lambda d: conic_atoms(3, [(d, 1.0)])):
            with pytest.raises(ValueError):
                call(bad)


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------

def test_mass_full_diameter():
    v = DiscreteVarifold(2, (segment([-1, 0], [1, 0]),), ())
    assert mass(v, [0, 0], 1.0) == pytest.approx(2.0, abs=1e-15)


def test_mass_radial_ray():
    v = DiscreteVarifold(2, (), (ray([0, 0], [1, 0]),))
    for r in (0.3, 1.0, 2.5):
        assert mass(v, [0, 0], r) == pytest.approx(r, abs=1e-15)


def test_cone_ball_mass_is_radius_times_total():
    # cone over atoms of total mass m has |C|(B(0,r)) = m*r, i.e. density m/2
    c = conic_atoms(3, [([1, 0, 0], 0.7), ([0, 1, 0], 1.3), ([0, 0, -1], 0.5)])
    d = conic_to_discrete(c)
    total = 0.7 + 1.3 + 0.5
    for r in (0.25, 1.0, 3.0):
        assert mass(d, [0, 0, 0], r) == pytest.approx(total * r, rel=1e-14)
    assert density(d, [0, 0, 0]).value == pytest.approx(total / 2.0, rel=1e-14)


def test_mass_chord_geometry():
    # line at distance d from the center: chord length 2*sqrt(r^2-d^2)
    d, r = 0.4, 1.0
    v = DiscreteVarifold(2, (segment([-5, d], [5, d], 2.0),), ())
    expected = 2.0 * 2.0 * math.sqrt(r * r - d * d)
    assert mass(v, [0, 0], r) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_on_line_interior():
    v = DiscreteVarifold(2, (segment([-1, 0], [1, 0]),), ())
    assert density(v, [0.3, 0]).value == 1.0
    assert density(v, [0, 1]).value == 0.0


def test_density_ray_endpoint_half():
    v = DiscreteVarifold(2, (), (ray([0, 0], [1, 0]),))
    assert density(v, [0, 0]).value == 0.5


def test_density_y_junction_three_halves():
    dirs = [(1.0, 0.0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)]
    v = DiscreteVarifold(2, (), tuple(ray([0, 0], d) for d in dirs))
    dv = density(v, [0, 0])
    assert dv.value == pytest.approx(1.5, abs=1e-15)
    # independent oracle: mass ratio stabilizes at the density
    for r in (1e-1, 1e-2, 1e-3):
        assert mass(v, [0, 0], r) / (2 * r) == pytest.approx(1.5, rel=1e-12)


def test_density_mass_ratio_stabilizes_below_clearance():
    # the mass ratio equals the density for every radius 2^-k below the
    # distance from the point to all non-incident pieces
    v = DiscreteVarifold(
        2,
        (segment([-1, 0], [1, 0], 1.2), segment([-1, 0.75], [1, 0.75], 0.7)),
        (ray([0, 0], [0, -1], 0.4),),
    )
    x = np.array([0.0, 0.0])
    clearance = 0.75  # distance to the offset line, the only non-incident piece
    K = math.ceil(-math.log2(clearance)) + 1
    theta = density(v, x).value
    assert theta == pytest.approx(1.2 + 0.2, abs=1e-15)
    for k in range(K, K + 6):
        r = 2.0 ** -k
        assert mass(v, x, r) / (2 * r) == pytest.approx(theta, abs=1e-12)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilate_examples():
    v = DiscreteVarifold(2, (segment([0, 0], [1, 0]),), ())
    d = dilate(v, [0, 0], 0.5)
    assert np.allclose(d.segments[0].b, [2, 0])
    same = dilate(v, [0, 0], 1.0)
    assert np.array_equal(same.segments[0].a, v.segments[0].a)
    assert np.array_equal(same.segments[0].b, v.segments[0].b)


def test_dilate_cone_invariance():
    c = conic_atoms(2, [([1, 0], 1.0), ([0, 1], 2.0)])
    v = conic_to_discrete(c)
    for lam in (0.5, 0.25, 2.0):
        d = dilate(v, [0, 0], lam)
        for r1, r2 in zip(d.rays, v.rays):
            assert np.array_equal(r1.origin, r2.origin)
            assert np.array_equal(r1.direction, r2.direction)
            assert r1.weight == r2.weight


@settings(max_examples=50, deadline=None)
@given(
    lam=st.floats(0.1, 8.0),
    radius=st.floats(0.2, 3.0),
    cx=st.floats(-1.5, 1.5),
    cy=st.floats(-1.5, 1.5),
)
def test_dilation_mass_scaling(lam, radius, cx, cy):
    # mass(dilate(V,x,lam), 0, R) == mass(V, x, lam R) / lam
    v = DiscreteVarifold(
        2,
        (segment([-1, 0.2], [2, 0.7], 1.3), segment([0, -1], [0.5, 2], 0.4)),
        (ray([0.3, 0.1], [0.6, 0.8], 2.0),),
    )
    x = np.array([cx, cy])
    lhs = mass(dilate(v, x, lam), [0, 0], radius)
    rhs = mass(v, x, lam * radius) / lam
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_line_to_diameter():
    v = DiscreteVarifold(2, (), (ray([0, 0], [1, 0]), ray([0, 0], [-1, 0])))
    inside = restrict(v, [0, 0], 1.0, "inside")
    assert mass(inside, [0, 0], 2.0) == pytest.approx(2.0, abs=1e-14)
    assert not inside.rays


def test_restrict_fully_outside_is_empty():
    v = DiscreteVarifold(2, (segment([3, 3], [4, 3]),), ())
    assert restrict(v, [0, 0], 1.0, "inside").is_empty


def test_restrict_chord_pythagoras():
    d, r = 0.3, 1.0
    v = DiscreteVarifold(2, (segment([-9, d], [9, d]),), ())
    inside = restrict(v, [0, 0], r, "inside")
    chord = inside.segments[0].length
    assert chord == pytest.approx(2 * math.sqrt(r * r - d * d), rel=1e-14)
    # quadrature of the ball indicator along the line as the oracle
    t = np.linspace(-9, 9, 2_000_001)
    indicator = (t * t + d * d) < r * r
    approx = 18.0 * np.mean(indicator)
    assert chord == pytest.approx(approx, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(
    radius=st.floats(0.3, 2.5),
    tx=st.floats(-1.0, 1.0),
    ty=st.floats(-1.0, 1.0),
    probe=st.floats(0.2, 4.0),
)
# the ray is tangent to the probe sphere in both cases
@example(radius=0.5, tx=0.1, ty=0.3, probe=0.2)
@example(radius=1.0, tx=0.5, ty=0.0, probe=0.2)
def test_restriction_partition(radius, tx, ty, probe):
    v = DiscreteVarifold(
        2,
        (segment([-2, -0.4], [1.5, 1.0], 0.8), segment([0.3, -2], [0.2, 2], 1.1)),
        (ray([-0.5, 0.5], [0.8, -0.6], 0.7),),
    )
    center = np.array([tx, ty])
    inside = restrict(v, center, radius, "inside")
    outside = restrict(v, center, radius, "outside")
    for ball_center, ball_radius in [((0.0, 0.0), probe), ((tx, ty), probe)]:
        whole = mass(v, ball_center, ball_radius)
        split = mass(inside, ball_center, ball_radius) + mass(
            outside, ball_center, ball_radius
        )
        assert split == pytest.approx(whole, rel=1e-11, abs=1e-12)


# ---------------------------------------------------------------------------
# conic conversion and circle quadrature
# ---------------------------------------------------------------------------

def test_conic_to_discrete_atoms():
    c = conic_atoms(2, [([1, 0], 2.0)])
    d = conic_to_discrete(c)
    assert len(d.rays) == 1
    assert d.rays[0].weight == 2.0
    both = conic_atoms(2, [([1, 0], 1.0), ([-1, 0], 1.0)])
    line = conic_to_discrete(both)
    assert mass(line, [0, 0], 1.0) == pytest.approx(2.0, abs=1e-14)


def test_conic_to_discrete_rejects_empty():
    with pytest.raises(ValueError):
        conic_to_discrete(ConicVarifold(2))


def _reference_conic_rays(c):
    """Atom rays, then one ray per density node of positive quadrature mass,
    node by node: the loop that mass_rows replaced, kept as its reference."""
    rays = [
        RayPiece(np.zeros(c.ambient_dim), c.atom_directions[i], c.atom_masses[i])
        for i in range(c.n_atoms)
    ]
    if c.density is not None:
        g = c.density.grid
        for i in range(g.size):
            w = g.weights[i] * c.density.values[i]
            if w > 0.0:
                rays.append(RayPiece(np.zeros(c.ambient_dim), g.nodes[i], w))
    return rays


def _rays_bytes(rays):
    return [(r.origin.tobytes(), r.direction.tobytes(), np.float64(r.weight).tobytes())
            for r in rays]


def test_conic_to_discrete_matches_node_loop_bitwise(mixed_cones):
    for c in mixed_cones:
        d = conic_to_discrete(c)
        assert d.segments == ()
        assert _rays_bytes(d.rays) == _rays_bytes(_reference_conic_rays(c))


def test_uniform_density_quadrature_mass():
    n = 720
    grid = circle_grid(n)
    c = ConicVarifold(2, density=SampledDensity(grid, np.ones(n)))
    d = conic_to_discrete(c)
    assert len(d.rays) == n
    assert all(r.weight == pytest.approx(2 * np.pi / n, rel=1e-15) for r in d.rays)
    assert mass(d, [0, 0], 1.0) == pytest.approx(2 * np.pi, abs=1e-12)


def test_circle_arc_mass_mode_exact():
    n = 2048
    grid = circle_grid(n)
    c = ConicVarifold(2, density=SampledDensity(grid, 1.0 - np.sin(3 * grid.angles)))
    # integral of 1 - sin(3t) over (0, pi/3) equals pi/3 - 2/3
    assert circle_arc_mass(c, 0.0, np.pi / 3) == pytest.approx(
        np.pi / 3 - 2.0 / 3.0, abs=1e-12
    )
    assert circle_arc_mass(c, 0.0, 2 * np.pi) == pytest.approx(2 * np.pi, abs=1e-12)


def test_sphere_grid_total_area():
    g = sphere_grid(64, 128)
    assert float(np.sum(g.weights)) == pytest.approx(4 * np.pi, rel=1e-3)


def test_mass_additivity_disjoint_balls():
    v = DiscreteVarifold(2, (segment([-3, 0], [3, 0]),), ())
    a = mass(v, [-1.5, 0], 0.5)
    b = mass(v, [1.5, 0], 0.5)
    assert a + b <= mass(v, [0, 0], 3.0) + 1e-15
    # no pieces outside the two balls' slice on the segment between them
    assert a + b == pytest.approx(2.0, abs=1e-14)


def test_chord_rows_miss():
    # a line at distance 2 from the unit ball's center, one tangent to it and
    # one through it: only the last has a chord
    bh, disc, noise = _chord_rows(np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 0.5]]),
                                  np.array([[1.0, 0.0]] * 3), np.zeros(2), 1.0)
    assert list(disc <= 0.0) == [True, True, False]
    assert list(disc > noise) == [False, False, True]
    assert list(np.abs(disc) <= noise) == [False, True, False]
    assert ball_interval(np.array([0.0, 2.0]), np.array([1.0, 0.0]),
                         np.array([0.0, 0.0]), 1.0) is None


def test_split_at_point_preserves_mass():
    v = DiscreteVarifold(2, (segment([-1, 0], [1, 0], 1.5),), (ray([0, -1], [0, 1], 0.5),))
    s = split_at_point(v, [0, 0])
    assert len(s.segments) == 3  # segment split in two, ray tail split off
    assert len(s.rays) == 1
    for center, radius in [((0, 0), 0.7), ((0.4, 0.1), 1.2)]:
        assert mass(s, center, radius) == pytest.approx(mass(v, center, radius), abs=1e-14)


# ---------------------------------------------------------------------------
# columnar storage against the per-piece loops it replaced
# ---------------------------------------------------------------------------

def test_rowdot_matches_np_dot():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        a = rng.normal(size=(4000, n)) * 10.0 ** rng.integers(-3, 4, size=(4000, 1))
        b = rng.normal(size=(4000, n))
        want = np.array([np.dot(x, y) for x, y in zip(a, b)])
        assert _rowdot(a, b).tobytes() == want.tobytes()
        # strided operands are made C-ordered first
        assert _rowdot(np.asfortranarray(a), np.asfortranarray(b)).tobytes() == want.tobytes()
        # leading axes broadcast: every row of a against every row of b[:7]
        table = _rowdot(a[:, None, :], b[:7])
        assert table.tobytes() == np.array(
            [[np.dot(x, y) for y in b[:7]] for x in a]).tobytes()


def _column_cases():
    rng = np.random.default_rng(12)
    cases = [random_varifold(rng, n, n_segments=int(rng.integers(0, 7)),
                             n_rays=int(rng.integers(0, 5)), box=1.5)
             for n in (2, 3, 4) for _ in range(6)]
    # pieces through, inside, beyond and tangent-free around the unit ball
    cases.append(DiscreteVarifold(
        2,
        (segment([-2, 0], [2, 0], 1.5), segment([-0.2, 0.1], [0.3, -0.2], 0.7),
         segment([3, 3], [4, 3]), segment([0.5, 0.5], [2, 2], 2.0)),
        (ray([0, 0], [0, 1], 0.5), ray([-3, 0.5], [1, 0]), ray([0.2, 0.2], [-0.6, 0.8]),
         ray([5, 5], [1, 0])),
    ))
    cases.append(DiscreteVarifold(3))
    return cases


def _piece_bytes(v):
    segs = [(s.a.tobytes(), s.b.tobytes(), np.float64(s.weight).tobytes()) for s in v.segments]
    return segs, _rays_bytes(v.rays)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e200])
def test_segment_length_when_its_square_leaves_the_normal_range(scale):
    # |(3, 4)| scale with a subnormal, zero or infinite squared length
    s = segment([0.0, 0.0], [3.0 * scale, 4.0 * scale])
    assert abs(s.length - 5.0 * scale) <= 1e-15 * 5.0 * scale
    assert np.abs(s.direction - [0.6, 0.8]).max() <= 1e-15
    v = DiscreteVarifold(2, (s,))
    assert v.seg_len.tobytes() == np.float64(s.length).tobytes()
    assert v.seg_u.tobytes() == s.direction.tobytes()


def test_columns_carry_piece_bits():
    for v in _column_cases():
        assert v.seg_u.tobytes() == np.array(
            [s.direction for s in v.segments]).reshape(-1, v.ambient_dim).tobytes()
        assert v.seg_len.tobytes() == np.array([s.length for s in v.segments]).tobytes()
        for arr in (v.seg_a, v.seg_b, v.seg_w, v.seg_u, v.seg_len, v.ray_o, v.ray_d, v.ray_w):
            assert arr.flags.c_contiguous and not arr.flags.writeable
        # built from columns, the pieces come back with the same bits
        again = DiscreteVarifold._from_columns(
            v.ambient_dim, v.seg_a, v.seg_b, v.seg_w, v.ray_o, v.ray_d, v.ray_w)
        assert _piece_bytes(again) == _piece_bytes(v)
        assert again.seg_u.tobytes() == v.seg_u.tobytes()
        assert pickle.loads(pickle.dumps(v)).seg_u.tobytes() == v.seg_u.tobytes()
    with pytest.raises(AttributeError):
        v.seg_w = np.zeros(0)


_SEG_W = "segment weight must be positive and finite"
_SEG_ENDS = "segment endpoints must be finite and distinct"
_RAY_W = "ray weight must be positive and finite"


@pytest.mark.parametrize("edits,message", [
    *[([("seg_w", 1, bad)], _SEG_W) for bad in (math.nan, math.inf, 0.0, -1.0)],
    *[([("seg_a", (0, 0), bad)], _SEG_ENDS) for bad in (math.nan, math.inf, -math.inf)],
    ([("seg_b", 1, [1.0, 1.0])], _SEG_ENDS),
    # the first failing row reports, as constructing the pieces in order does
    ([("seg_b", 0, [0.0, 0.0]), ("seg_w", 1, -1.0)], _SEG_ENDS),
    ([("seg_w", 0, 0.0), ("seg_b", 1, [1.0, 1.0])], _SEG_W),
    *[([("ray_w", 1, bad)], _RAY_W) for bad in (math.nan, math.inf, 0.0, -1.0)],
    *[([("ray_o", (0, 1), bad)], "ray origin must be finite") for bad in (math.nan, math.inf)],
    *[([("ray_d", 1, bad)], "ray direction must be a unit vector")
      for bad in ([math.nan, 0.0], [math.inf, 0.0], [2.0, 0.0], [0.6, 0.6])],
])
def test_from_columns_applies_piece_checks(edits, message):
    cols = {
        "seg_a": np.array([[0.0, 0.0], [1.0, 1.0]]), "seg_b": np.array([[1.0, 0.0], [1.0, 2.0]]),
        "seg_w": np.array([1.0, 2.0]), "ray_o": np.array([[0.0, 0.0], [1.0, 0.0]]),
        "ray_d": np.array([[0.0, 1.0], [1.0, 0.0]]), "ray_w": np.array([1.0, 0.5]),
    }
    DiscreteVarifold._from_columns(2, *cols.values())
    for column, index, value in edits:
        cols[column][index] = value
    with pytest.raises(ValueError, match=message):
        DiscreteVarifold._from_columns(2, *cols.values())


def _reference_mass(v, center, radius):
    total = 0.0
    for piece in v.segments + v.rays:
        base, u, hi = piece_frame(piece)
        iv = ball_interval(base, u, np.asarray(center, float), radius)
        if iv is None:
            continue
        lo = max(iv[0], 0.0)
        hi_t = min(iv[1], hi)
        if hi_t > lo:
            total += piece.weight * (hi_t - lo)
    return total


def _reference_restrict(v, center, radius, keep):
    c = np.asarray(center, float)
    segs, rays = [], []

    def emit_segment(base, u, lo, hi, w):
        if hi - lo > SLIVER_TOL:
            segs.append(SegmentPiece(base + lo * u, base + hi * u, w))

    for piece in v.segments + v.rays:
        base, u, hi = piece_frame(piece)
        iv = ball_interval(base, u, c, radius)
        inside = None
        if iv is not None:
            lo_t, hi_t = max(iv[0], 0.0), min(iv[1], hi)
            if hi_t > lo_t:
                inside = (lo_t, hi_t)
        if keep == "inside":
            if inside is not None:
                emit_segment(base, u, inside[0], inside[1], piece.weight)
            continue
        if inside is None:
            (segs if isinstance(piece, SegmentPiece) else rays).append(piece)
            continue
        lo_t, hi_t = inside
        emit_segment(base, u, 0.0, lo_t, piece.weight)
        if math.isfinite(hi):
            emit_segment(base, u, hi_t, hi, piece.weight)
        elif hi_t < math.inf:
            rays.append(RayPiece(base + hi_t * u, u, piece.weight))
    return DiscreteVarifold(v.ambient_dim, tuple(segs), tuple(rays))


def _reference_dilate(v, x, lam):
    c = np.asarray(x, float)
    segs = tuple(SegmentPiece((s.a - c) / lam, (s.b - c) / lam, s.weight) for s in v.segments)
    rays = tuple(RayPiece((r.origin - c) / lam, r.direction, r.weight) for r in v.rays)
    return DiscreteVarifold(v.ambient_dim, segs, rays)


def _reference_piece_ends(v):
    rows = []
    for s in v.segments:
        rows.append((s.a, s.direction, s.weight))
        rows.append((s.b, -s.direction, s.weight))
    rows += [(r.origin, r.direction, r.weight) for r in v.rays]
    n = v.ambient_dim
    return (np.array([p for p, _, _ in rows]).reshape(-1, n),
            np.array([a for _, a, _ in rows]).reshape(-1, n),
            np.array([w for _, _, w in rows]))


def test_columnar_core_matches_piece_loops_bitwise():
    rng = np.random.default_rng(13)
    for v in _column_cases():
        n = v.ambient_dim
        got = piece_ends(v)
        want = _reference_piece_ends(v)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        for _ in range(8):
            center = rng.uniform(-1.5, 1.5, n)
            radius = float(rng.uniform(0.2, 2.5))
            assert mass(v, center, radius) == _reference_mass(v, center, radius)
            for keep in ("inside", "outside"):
                assert _piece_bytes(restrict(v, center, radius, keep)) == _piece_bytes(
                    _reference_restrict(v, center, radius, keep))
            lam = float(rng.uniform(0.05, 4.0))
            assert _piece_bytes(dilate(v, center, lam)) == _piece_bytes(
                _reference_dilate(v, center, lam))


def test_restrict_edge_cases_match_piece_loop_bitwise():
    # slivers below SLIVER_TOL are dropped, and a clipped piece restarts at
    # base + 0.0 * u, which turns a -0.0 coordinate into +0.0
    v = DiscreteVarifold(
        2,
        (segment([0.0, 0.0], [1.0 + 4e-15, 0.0]), segment([-1.0 - 4e-15, 0.0], [3.0, 0.0]),
         segment([-0.0, -2.0], [0.0, 2.0], 1.5), segment([-0.0, -0.5], [-0.0, 0.5])),
        (ray([1.0 - 4e-15, 0.0], [1.0, 0.0]), ray([-0.0, -2.0], [0.0, 1.0], 0.5),
         ray([0.0, 0.0], [-1.0, 0.0])),
    )
    for keep, counts in (("inside", (6, 0)), ("outside", (4, 3))):
        got = restrict(v, [0.0, 0.0], 1.0, keep)
        assert (len(got.segments), len(got.rays)) == counts
        assert _piece_bytes(got) == _piece_bytes(_reference_restrict(v, [0.0, 0.0], 1.0, keep))


def _on_piece(p, base, u, hi):
    """Whether p is inside the piece (base, u, hi) away from its ends: its
    perpendicular offset is at most VERTEX_TOL and its parameter lies in
    (VERTEX_TOL, hi - VERTEX_TOL)."""
    d = p - base
    t = float(np.dot(d, u))
    off = float(np.linalg.norm(d - t * u))
    return off <= VERTEX_TOL and VERTEX_TOL < t < hi - VERTEX_TOL


def _reference_density(v, x):
    # an end at x counts half the weight, a piece through x its weight
    p = np.asarray(x, float)
    total = 0.0
    for piece in v.segments + v.rays:
        base, u, hi = piece_frame(piece)
        ends = (base, piece.b) if isinstance(piece, SegmentPiece) else (base,)
        at = sum(float(np.linalg.norm(e - p)) <= VERTEX_TOL for e in ends)
        share = 0.5 * at if at else float(_on_piece(p, base, u, hi))
        if share:
            total += share * piece.weight
    return total


def _reference_split(v, x):
    p = np.array(x, float)
    segs, rays = [], []
    for s in v.segments:
        a, b = s.a, s.b
        if np.linalg.norm(a - p) <= VERTEX_TOL:
            a = p
        if np.linalg.norm(b - p) <= VERTEX_TOL and a is not p:
            b = p
        if b is p and a is not p:
            a, b = b, a
        u, L = unit(b - a), float(np.linalg.norm(b - a))
        if a is not p and _on_piece(p, a, u, L):
            segs.append(SegmentPiece(p, a, s.weight))
            segs.append(SegmentPiece(p, b, s.weight))
        else:
            segs.append(SegmentPiece(a, b, s.weight))
    for r in v.rays:
        o = r.origin
        if np.linalg.norm(o - p) <= VERTEX_TOL:
            o = p
        if o is not p and _on_piece(p, o, r.direction, math.inf):
            segs.append(SegmentPiece(p, o, r.weight))
            rays.append(RayPiece(p, r.direction, r.weight))
        else:
            rays.append(RayPiece(o, r.direction, r.weight))
    return DiscreteVarifold(v.ambient_dim, tuple(segs), tuple(rays))


def _column_bytes(v):
    return [(getattr(v, name).shape, getattr(v, name).tobytes()) for name in (
        "seg_a", "seg_b", "seg_w", "seg_u", "seg_len", "ray_o", "ray_d", "ray_w")]


def _probe_points(v, rng):
    """Piece ends, points 5e-10 and 2e-9 from them, points inside pieces
    and just off them, points on the piece lines 5e-10, 1.2e-9 and 2e-9
    from the ends, and random points."""
    n = v.ambient_dim
    ends = np.concatenate((v.seg_a, v.seg_b, v.ray_o))
    along = np.concatenate((v.seg_u, -v.seg_u, v.ray_d))
    inside = np.concatenate((v.seg_a + rng.uniform(0.1, 0.9, (len(v.seg_w), 1)) * (v.seg_b - v.seg_a),
                             v.ray_o + rng.uniform(0.1, 3.0, (len(v.ray_w), 1)) * v.ray_d))
    points = [ends, inside, rng.uniform(-1.5, 1.5, (4, n))]
    for eps in (5e-10, 2e-9):
        for base in (ends, inside):
            off = rng.normal(size=base.shape)
            points.append(base + eps * off / np.linalg.norm(off, axis=1)[:, None])
    points += [ends + eps * along for eps in (5e-10, 1.2e-9, 2e-9)]
    return np.concatenate(points)


def _split_cases():
    rng = np.random.default_rng(14)
    cases = _column_cases()
    cases += [random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 5)))
              for n in (2, 3, 4) for _ in range(3)]
    cases += [dense_lines_fixture(k, seed=k, ambient_dim=n) for n in (2, 3) for k in (3, 12)]
    cases += [y_junction(2), y_junction(3, arm_length=0.75)]
    # ends within the tolerance of each other, so that a probe snaps one end
    # or both; the second case collapses at its far end
    cases.append(DiscreteVarifold(
        2, (segment([0.0, 0.0], [5e-10, 0.0]), segment([1.0, 1.0], [1.0, 1.0 + 2e-9], 0.5),
            segment([-1.0, 0.0], [0.0, 0.0], 2.0)),
        (ray([5e-10, 0.0], [1.0, 0.0]), ray([0.0, 0.0], [-1.0, 0.0], 0.7)),
    ))
    cases.append(DiscreteVarifold(
        2, (segment([0.0, 0.0], [1e-10, 0.0]),),
        (ray([1e-10, 0.0], [1.0, 0.0]), ray([0.0, 0.0], [-1.0, 0.0])),
    ))
    return cases, rng


def test_split_and_density_match_piece_loops_bitwise():
    cases, rng = _split_cases()
    split = collapsed = 0
    for v in cases:
        for x in _probe_points(v, rng):
            assert np.float64(density(v, x).value).tobytes() == np.float64(
                _reference_density(v, x)).tobytes()
            try:
                want = _reference_split(v, x)
            except ValueError as exc:
                # the one intended change: a collapsing snap is a typed error
                assert str(exc) == "cannot normalize the zero vector"
                with pytest.raises(DegenerateGeometryError, match="collapses"):
                    split_at_point(v, x)
                collapsed += 1
                continue
            got = split_at_point(v, x)
            assert _column_bytes(got) == _column_bytes(want)
            split += len(got.seg_w) > len(v.seg_w)
    assert split > 100 and collapsed > 0


_box = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _varifolds(draw):
    """Random segments and rays in R^2..R^4 with coordinates in [-1, 1]."""
    n = draw(st.integers(2, 4))
    point = st.lists(_box, min_size=n, max_size=n).map(np.array)
    weight = st.floats(0.1, 3.0)
    segs = [SegmentPiece(a, b, w) for a, b, w in draw(st.lists(
        st.tuples(point, point, weight), max_size=4)) if np.linalg.norm(b - a) > 0.1]
    rays = [RayPiece(o, d / np.linalg.norm(d), w) for o, d, w in draw(st.lists(
        st.tuples(point, point, weight), max_size=3)) if np.linalg.norm(d) > 0.1]
    return DiscreteVarifold(n, tuple(segs), tuple(rays))


def _clear_of_sphere(v, center, radius, margin):
    """No piece line is within margin of tangency to the sphere and no piece
    end is within margin of it: away from these the chord is well posed."""
    base, u, _, _ = _piece_rows(v)
    d = base - center
    perp = np.linalg.norm(d - np.sum(d * u, axis=1)[:, None] * u, axis=1)
    ends = np.concatenate((v.seg_a, v.seg_b, v.ray_o))
    gap = np.linalg.norm(ends - center, axis=1)
    return bool(np.all(np.abs(perp - radius) > margin)
                and np.all(np.abs(gap - radius) > margin))


@settings(max_examples=200, deadline=None)
@given(v=_varifolds(), data=st.data(), lam=st.floats(0.5, 2.0), r=st.floats(0.5, 1.5))
def test_dilation_scales_ball_mass(v, data, lam, r):
    # mass(dilate(v, x, lam), c, r) == mass(v, x + lam c, lam r) / lam
    n = v.ambient_dim
    x = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    c = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    assume(_clear_of_sphere(v, x + lam * c, lam * r, 0.05 * lam * r))
    lhs = mass(dilate(v, x, lam), c, r)
    rhs = mass(v, x + lam * c, lam * r) / lam
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


_NEAR = st.sampled_from([0.0, 5e-10, 0.9e-9, -0.9e-9, 1.2e-9, 2e-9])


@st.composite
def _probed_varifolds(draw):
    """(v, x, floor): a _varifolds() draw and a probe point x, either in the
    box, inside a piece (floor is that piece's weight, which x's density
    reaches), or a piece end moved by up to 2e-9 along and across its piece
    (floor 0)."""
    v = draw(_varifolds())
    n = v.ambient_dim
    base, u, hi, w = _piece_rows(v)
    kind = draw(st.sampled_from(["box", "inside", "end"]) if len(w) else st.just("box"))
    if kind == "box":
        return v, np.array(draw(st.lists(_box, min_size=n, max_size=n))), 0.0
    i = draw(st.integers(0, len(w) - 1))
    if kind == "inside":
        t = draw(st.floats(0.05, 0.95)) * min(hi[i], 2.0)
        return v, base[i] + t * u[i], float(w[i])
    end = base[i] if i >= len(v.seg_w) or draw(st.booleans()) else v.seg_b[i]
    e = np.array(draw(st.lists(_box, min_size=n, max_size=n)))
    across = e - np.dot(e, u[i]) * u[i]
    assume(np.linalg.norm(across) > 0.1)
    across /= np.linalg.norm(across)
    return v, end + draw(_NEAR) * u[i] + draw(_NEAR) * across, 0.0


@settings(max_examples=300, deadline=None)
@given(_probed_varifolds())
# a generic segment through x: |d|^2 - (d.u)^2 cancelled to above VERTEX_TOL^2
@example((DiscreteVarifold(3, (SegmentPiece([-1.0, 0.5, 0.25], [1.2, -0.1, 0.35], 1.0),), ()),
          np.array([0.1, 0.2, 0.3]), 1.0))
# an end 0.9e-9 along and 0.9e-9 across from x, 1.27e-9 away: half the
# weight by the old end rule, but no incident end
@example((DiscreteVarifold(2, (SegmentPiece([-1.0, 0.0], [-0.9e-9, 0.0], 1.0),), ()),
          np.array([0.0, 0.9e-9]), 0.0))
def test_density_is_half_the_incident_weights_after_split(case):
    v, x, floor = case
    theta = density(v, x).value
    incident = sum(w for _, w in incident_rays(split_at_point(v, x), x))
    assert math.isclose(theta, 0.5 * incident, rel_tol=1e-12)
    assert theta >= floor


def test_piece_rows_are_built_once_and_read_only():
    v = random_stationary_network(np.random.default_rng(61), 3, 12)
    rows = _piece_rows(v)
    assert _piece_rows(v) is rows
    want = (
        np.concatenate((v.seg_a, v.ray_o)),
        np.concatenate((v.seg_u, v.ray_d)),
        np.concatenate((v.seg_len, np.full(len(v.ray_w), math.inf))),
        np.concatenate((v.seg_w, v.ray_w)),
    )
    for got, expect in zip(rows, want):
        assert got.tobytes() == expect.tobytes()
        assert not got.flags.writeable
    # a copy made by pickling builds its own rows
    clone = pickle.loads(pickle.dumps(v))
    assert _piece_rows(clone) is not rows
    assert all(a.tobytes() == b.tobytes() for a, b in zip(_piece_rows(clone), rows))


# ---------------------------------------------------------------------------
# One construction rule: public constructors check, _trusted builds do not
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1 + 4e-11, 1 + 9e-11, 1 - 4e-11, 1 - 9e-11])
def test_one_unit_rule_for_every_direction(scale):
    # |d.d - 1| <= 1e-10 everywhere; by |d| - 1 the constructor of a cone
    # used to accept 1 + 9e-11, which conic_to_discrete then refused
    d = [scale, 0.0, 0.0]
    unit_ok = abs(scale * scale - 1.0) <= 1e-10
    makes = {
        "atom directions must be unit vectors":
            lambda: ConicVarifold(3, [d, [0.0, 1.0, 0.0]], [1.0, 2.0]),
        "ray direction must be a unit vector": lambda: RayPiece(np.zeros(3), d, 1.0),
        "omega must be a unit vector": lambda: VariationAtom(np.zeros(3), d, 1.0),
        "grid nodes must be finite unit vectors":
            lambda: SphereGrid("x", [d, [0.0, 1.0, 0.0]], [1.0, 1.0]),
    }
    for message, make in makes.items():
        if unit_ok:
            make()
        else:
            with pytest.raises(ValueError, match=message):
                make()
    if unit_ok:
        cone = ConicVarifold(3, [d, [0.0, 1.0, 0.0]], [1.0, 2.0])
        assert conic_to_discrete(cone).ray_d.tobytes() == cone.atom_directions.tobytes()
    # b - a with a squared norm below the smallest normal float: dividing
    # it by its length gave (1, 1) and |u|^2 = 1.00012
    for b in ([5e-324, 5e-324], [3e-320, 1e-321]):
        piece = SegmentPiece([0.0, 0.0], b, 1.0)
        v = DiscreteVarifold(2, [piece])
        assert _is_unit(v.seg_u).all()
        assert v.seg_u[0].tobytes() == piece.direction.tobytes() == unit(np.array(b)).tobytes()


@pytest.mark.parametrize("nodes,weights,angles,message", [
    ([[2.0, 0.0], [0.0, 1.0], [math.nan, 0.0]], [1.0, -1.0, math.inf], None,
     "grid nodes must be finite unit vectors"),
    ([[1.0, 0.0], [0.0, 1.0], [math.inf, 0.0]], [1.0, 1.0, 1.0], None,
     "grid nodes must be finite unit vectors"),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], [1.0, 1.0, 1.0, 1.0], None, "one weight each"),
    ([1.0, 0.0], [1.0], None, "one weight each"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0], None, "grid weights must be finite and nonnegative"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, math.inf], None, "finite and nonnegative"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, math.nan], None, "finite and nonnegative"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.0], "grid angles must be finite, one per node"),
    ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], [0.0, math.nan], "one per node"),
])
def test_sphere_grid_checks_its_nodes_weights_and_angles(nodes, weights, angles, message):
    with pytest.raises(ValueError, match=message):
        SphereGrid("x", nodes, weights, angles)


def test_sampled_density_node_masses_must_be_finite():
    grid = SphereGrid("x", [[1.0, 0.0], [0.0, 1.0]], [1e300, 1.0])
    SampledDensity(grid, [1e8, 1e300])
    with pytest.raises(ValueError, match="density node masses must be finite"):
        SampledDensity(grid, [1e10, 1.0])


def test_grids_of_descriptors_pass_their_own_checks():
    for grid in (circle_grid(4), circle_grid(720), sphere_grid(2, 4), sphere_grid()):
        again = SphereGrid(grid.descriptor, grid.nodes, grid.weights, grid.angles)
        assert again.nodes.tobytes() == grid.nodes.tobytes()


@pytest.mark.parametrize("atoms,density,message", [
    ([([1.0, 0.0], math.nan)], None, "atom directions and masses must be finite"),
    ([([1.0, 0.0], -1.0)], None, "atom masses must be positive"),
    # two finite masses merge into an infinite one
    ([([1.0, 0.0], 1e308), ([1.0, 0.0], 1e308)], None, "must be finite"),
    ([([1.0, 0.0], 1.0)], "s2", "density grid is in R^3, not R^2"),
])
def test_conic_atoms_checks_its_masses_and_density(atoms, density, message):
    dens = SampledDensity(sphere_grid(2, 4), np.ones(8)) if density else None
    with pytest.raises(ValueError, match=re.escape(message)):
        conic_atoms(2, atoms, dens)


def test_restrict_keeps_its_checks_where_clipped_ends_round_together():
    # 1e17 + 95.1 and 1e17 + 96.9 both round to 1e17 + 96: the clipped
    # segment has no length, so restrict must build through the checks
    v = DiscreteVarifold(2, (SegmentPiece([1e17, 0.0], [1e17 + 1000.0, 0.0], 1.0),))
    with pytest.raises(ValueError, match="segment endpoints must be finite and distinct"):
        restrict(v, [1e17 + 100.0, 0.5], 1.0)


_NO_SEGMENTS = (np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
_XY = Subspace(3, np.eye(3)[:2])


@pytest.mark.parametrize("cls,args,message", [
    (DiscreteVarifold, (2, *_NO_SEGMENTS, np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                        np.array([math.nan])), "ray weight must be positive and finite"),
    (DiscreteVarifold, (2, *_NO_SEGMENTS, np.zeros((1, 2)), np.array([[2.0, 0.0]]), np.ones(1)),
     "ray direction must be a unit vector"),
    # a seg_len that is not |b - a|
    (DiscreteVarifold, (2, np.zeros((1, 2)), np.array([[3.0, 4.0]]), np.ones(1), np.array([4.0]),
                        np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)), "seg_len differs"),
    (ConicVarifold, (2, np.array([[1.0, 0.0]]), np.array([math.nan]), None),
     "atom directions and masses must be finite"),
    (ConicVarifold, (2, np.array([[0.6, 0.6]]), np.ones(1), None),
     "atom directions must be unit vectors"),
    (PlaneMeasure, (_XY, np.array([[0.0, 1.0, 1e-3]]), np.ones(1)),
     "atom points must lie in the plane"),
    (PlaneMeasure, (_XY, np.array([[0.0, 1.0, 0.0]]), np.array([math.nan])),
     "atom points and masses must be finite"),
    (LineMeasure, (np.array([1.0, 0.0]), np.zeros(1), np.array([math.nan])),
     "atom coordinates and masses must be finite"),
    (LineMeasure, (np.array([0.6, 0.6]), np.zeros(1), np.ones(1)),
     "direction must be a unit vector"),
    (SegmentPiece, (np.zeros(2), np.zeros(2), 1.0), "segment endpoints must be finite and distinct"),
    (RayPiece, (np.zeros(2), np.array([2.0, 0.0]), 1.0), "ray direction must be a unit vector"),
    (VariationAtom, (np.zeros(2), np.array([1.0, 0.0]), 0.0), "atom mass must be positive"),
    (VariationAtom, (np.zeros(2), np.array([1.0, 0.0]), math.nan), "atom mass must be positive"),
    (VariationAtom, (np.array([math.nan, 0.0]), np.array([1.0, 0.0]), 1.0),
     "point coordinates must be finite"),
])
def test_recheck_fixture_fails_an_invalid_trusted_build(cls, args, message):
    with pytest.raises(AssertionError, match=message):
        cls._trusted(*args)


def test_density_value_rejects_nan_and_keeps_inf():
    # at the parent DensityValue(nan, nan) was accepted
    for lower, upper in [(math.nan, math.nan), (0.0, math.nan), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="need 0 <= lower <= upper"):
            DensityValue(lower, upper)
    assert DensityValue(math.inf, math.inf).upper == math.inf


def test_every_trusted_constructor_is_rechecked():
    import varifold_lab
    from varifold_lab.core import _Trusted

    classes = {
        obj for mod in (varifold_lab.core, varifold_lab.tomography, varifold_lab.variation)
        for obj in vars(mod).values()
        if isinstance(obj, type) and hasattr(obj, "_trusted") and obj is not _Trusted
    }
    assert classes == {DiscreteVarifold, ConicVarifold, PlaneMeasure, LineMeasure,
                       SegmentPiece, RayPiece, VariationAtom}
    assert all(c._trusted.__func__.__module__ == "conftest" for c in classes)


# ---------------------------------------------------------------------------
# one rule for a point and one for a radius or scale
# ---------------------------------------------------------------------------

def _hostile_calls():
    from varifold_lab.blowup import tangent_estimate
    from varifold_lab.surgery import cut_and_paste
    from varifold_lab.variation import TestField, boundary_variation

    v = y_junction(2, arm_length=1.0)
    field = lambda x, r: TestField(lambda p: p, x, r, lambda p, s: p[:, 0])  # noqa: E731
    # (entry, call on a point, call on a radius or scale)
    return {
        "mass": (lambda x: mass(v, x, 1.0), lambda r: mass(v, [0, 0], r)),
        "restrict": (lambda x: restrict(v, x, 1.0), lambda r: restrict(v, [0, 0], r)),
        "density": (lambda x: density(v, x), None),
        "dilate": (lambda x: dilate(v, x, 0.5), lambda r: dilate(v, [0, 0], r)),
        "split_at_point": (lambda x: split_at_point(v, x), None),
        "incident_rays": (lambda x: incident_rays(v, x), None),
        "boundary_variation": (lambda x: boundary_variation(v, x, 0.5),
                               lambda r: boundary_variation(v, [0, 0], r)),
        "cut_and_paste": (lambda x: cut_and_paste(v, x, 0.5),
                          lambda r: cut_and_paste(v, [0, 0], r)),
        "tangent_estimate": (lambda x: tangent_estimate(v, x, [0.5]),
                             lambda r: tangent_estimate(v, [0, 0], [r])),
        "TestField": (lambda x: field(x, 1.0), lambda r: field([0, 0], r)),
    }


@pytest.mark.parametrize("entry", sorted(_hostile_calls()))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_entry_rejects_a_non_finite_point(entry, bad):
    # at the parent, mass and density read 0.0 and cut_and_paste came back empty
    at_point, _ = _hostile_calls()[entry]
    for x in ([bad, 0.0], [0.0, bad]):
        with pytest.raises(ValueError, match="^point coordinates must be finite$"):
            at_point(x)


@pytest.mark.parametrize("entry", sorted(k for k, (_, r) in _hostile_calls().items() if r))
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, -math.inf])
def test_every_entry_rejects_a_radius_or_scale_outside_0_inf(entry, bad):
    # at the parent, mass(v, [0, 0], inf) read 0.0 though the mass is 3
    _, at_radius = _hostile_calls()[entry]
    with pytest.raises(ValueError, match="must be positive and finite$"):
        at_radius(bad)


def test_find_good_radius_needs_a_finite_radius_range():
    from varifold_lab.surgery import find_good_radius

    v = y_junction()
    for lo, hi in [(0.1, math.inf), (math.nan, 1.0), (0.1, math.nan), (0.0, 1.0), (1.0, 0.5)]:
        with pytest.raises(ValueError, match=r"need 0 < r_lo <= r_hi < inf"):
            find_good_radius(v, [0, 0], lo, hi)
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        find_good_radius(v, [math.nan, 0], 0.1, 1.0)


def test_a_nan_radius_breaks_a_precondition_not_the_bound():
    from varifold_lab.blowup import PreconditionViolated, density_bound_check

    c = conic_atoms(3, [([0, 0, 1], 1.0)])
    p = Subspace.span([1, 0, 0.2], [0, 1, 0])
    for r in (math.nan, math.inf, 0.0, 1e-5):
        with pytest.raises(PreconditionViolated, match="need 0 < r < 1e-5"):
            density_bound_check(c, [0, 0, 1], p, r, 0.1)


def test_circle_arc_mass_needs_finite_ends_in_order():
    c = conic_atoms(2, [([1, 0], 1.0)])
    nan, inf = math.nan, math.inf
    for lo, hi in [(nan, 1.0), (0.0, nan), (-inf, 1.0), (0.0, inf), (1.0, 1.0)]:
        with pytest.raises(ValueError, match="need finite lo < hi"):
            circle_arc_mass(c, lo, hi)


def test_circle_arc_mass_counts_atoms_modulo_two_pi():
    c = conic_atoms(2, [([math.cos(0.1), math.sin(0.1)], 1.0),
                        ([math.cos(3.0), math.sin(3.0)], 2.0),
                        ([math.cos(-3.0), math.sin(-3.0)], 4.0)])
    assert circle_arc_mass(c, -0.5, 0.5) == 1.0
    # the atom at -3.0 sits at 2 pi - 3.0 past 3.0 on the circle
    assert circle_arc_mass(c, 2.5, 3.5) == 6.0
    assert circle_arc_mass(c, 6.0, 6.5) == 1.0  # 0.1 + 2 pi
    assert circle_arc_mass(c, -7.0, -6.0) == 1.0  # 0.1 - 2 pi
    assert circle_arc_mass(c, 0.2, 2.9) == 0.0


@pytest.mark.parametrize("n", [7, 9, 8])
def test_circle_arc_mass_of_a_band_limited_density_on_any_grid(n):
    # an odd node count has no Nyquist mode: _integrate_modes sums every mode
    # twice, the top one k = n // 2 included
    grid, k = circle_grid(n), n // 2
    values = 1.5 + np.cos(grid.angles) + 0.5 * np.cos(k * grid.angles)
    c = ConicVarifold(2, density=SampledDensity(grid, values))
    for lo, hi in [(0.0, 1.0), (-2.0, 0.5), (1.0, 1.0 + 2 * np.pi)]:
        want = (1.5 * (hi - lo) + math.sin(hi) - math.sin(lo)
                + 0.5 * (math.sin(k * hi) - math.sin(k * lo)) / k)
        assert circle_arc_mass(c, lo, hi) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# value classes compare by identity
# ---------------------------------------------------------------------------

def _value_builders():
    from varifold_lab.blowup import BatteryTable, TestBattery
    from varifold_lab.io import VarifoldDocument
    from varifold_lab.surgery import SurgeryResult, cut_and_paste
    from varifold_lab.tomography import GnomonicResult, gnomonic_pushforward, hyperplane_of
    from varifold_lab.variation import TestField, bump_field

    grid = circle_grid(8)
    pole = conic_atoms(3, [([0, 0, 1], 1.0)])
    table = lambda: BatteryTable(np.array([0.5]), np.array([0.1]), np.eye(2))  # noqa: E731
    return {
        SegmentPiece: lambda: segment([0, 0], [1, 0]),
        RayPiece: lambda: ray([0, 0], [1, 0]),
        Subspace: lambda: Subspace.span([1.0, 0.0, 0.0]),
        SphereGrid: lambda: circle_grid(8),
        SampledDensity: lambda: SampledDensity(grid, np.ones(8)),
        ConicVarifold: lambda: conic_atoms(2, [([1, 0], 1.0)]),
        VariationAtom: lambda: VariationAtom([0, 0], [1, 0], 1.0),
        TestField: lambda: bump_field([0, 0], 1.0, [1, 0]),
        PlaneMeasure: lambda: PlaneMeasure(hyperplane_of([0, 0, 1]), [[0.5, 0, 0]], [1.0]),
        LineMeasure: lambda: LineMeasure([1, 0, 0], [0.5], [1.0]),
        GnomonicResult: lambda: gnomonic_pushforward(pole, [0, 0, 1]),
        BatteryTable: table,
        TestBattery: lambda: TestBattery(2, 1.0, table=table()),
        SurgeryResult: lambda: cut_and_paste(y_junction(), [0, 0], 0.5),
        VarifoldDocument: lambda: VarifoldDocument(2, discrete=y_junction()),
        DiscreteVarifold: lambda: y_junction(),
    }


@pytest.mark.parametrize("cls", list(_value_builders()), ids=lambda c: c.__name__)
def test_value_classes_compare_by_identity_and_hash(cls):
    # at the parent, == of two such values raised on their arrays, and hash() too
    make = _value_builders()[cls]
    a, b = make(), make()
    assert type(a) is cls
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


# ---------------------------------------------------------------------------
# one projection routine
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.integers(1, n - 1).flatmap(lambda k: st.lists(
        st.lists(st.floats(-4, 4), min_size=n, max_size=n), min_size=k, max_size=k)),
    st.lists(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n), min_size=1, max_size=9))))
def test_subspace_projects_each_row_of_a_batch_as_that_row_alone(case):
    spanning, rows = case
    m = np.array(spanning, dtype=float)
    assume(np.linalg.matrix_rank(m) == m.shape[0] and np.linalg.svd(m)[1].min() > 1e-3)
    p = Subspace.span(*m)
    x = np.array(rows, dtype=float)
    batch = p.project(x)
    assert batch.shape == x.shape
    for i in range(len(x)):
        assert batch[i].tobytes() == p.project(x[i]).tobytes()


# ---------------------------------------------------------------------------
# one owner per input rule: counts, dimensions and tolerances
# ---------------------------------------------------------------------------
# Each case names what the parent did with the same call.

_LINE = full_line([0.0, 0.0], [1.0, 0.0])
_CONE3 = conic_atoms(3, [([0.0, 0.0, 1.0], 1.0)])
_FIELD2 = variation.bump_field([0.0, 0.0], 1.0, [1.0, 0.0])
_POLE = unit(np.array([0.1, 0.2, 0.97]))
_RAYS = [{"origin": [0.0, 0.0], "direction": [1.0, 0.0], "weight": 1.0}]


def _rule_message(call) -> str:
    with pytest.raises(ValueError) as exc:
        call()
    return str(exc.value)


@pytest.mark.parametrize("call, message", [
    # numpy's "cannot reshape", and two TypeErrors from numpy
    pytest.param(lambda: DiscreteVarifold(0), "ambient_dim must be an integer of at least 1",
                 id="varifold-0"),
    pytest.param(lambda: DiscreteVarifold(2.5), "ambient_dim must be an integer of at least 1",
                 id="varifold-float"),
    pytest.param(lambda: DiscreteVarifold(True), "ambient_dim must be an integer of at least 1",
                 id="varifold-bool"),
    # accepted
    pytest.param(lambda: ConicVarifold(0), "ambient_dim must be an integer of at least 1",
                 id="cone-0"),
    pytest.param(lambda: conic_atoms(0, []), "ambient_dim must be an integer of at least 1",
                 id="conic-atoms-0"),
    pytest.param(lambda: Subspace(3.0, [[1.0, 0.0, 0.0]]),
                 "ambient_dim must be an integer of at least 1", id="subspace-float"),
    pytest.param(lambda: blowup.TestBattery(0, 1.0), "ambient_dim must be an integer of at least 1",
                 id="battery-0"),
    # numpy's "zero-size array to reduction operation", and a TypeError
    pytest.param(lambda: blowup.default_battery(0),
                 "ambient_dim must be an integer of at least 1", id="default-battery-0"),
    pytest.param(lambda: blowup.default_battery(2.0),
                 "ambient_dim must be an integer of at least 1", id="default-battery-float"),
    # the grid's own message, a TypeError from numpy, and accepted
    pytest.param(lambda: circle_grid(3), "n_nodes must be an integer of at least 4",
                 id="circle-grid-3"),
    pytest.param(lambda: circle_grid(4.5), "n_nodes must be an integer of at least 4",
                 id="circle-grid-float"),
    pytest.param(lambda: sphere_grid(2, 4.5), "n_azimuth must be an integer of at least 4",
                 id="sphere-grid-float"),
    # "need ambient dimension >= 2", and a TypeError from numpy
    pytest.param(lambda: y_junction(1), "ambient_dim must be an integer of at least 2",
                 id="y-junction-1"),
    pytest.param(lambda: y_junction(2.5), "ambient_dim must be an integer of at least 2",
                 id="y-junction-float"),
    # the star's own message, and a TypeError from range()
    pytest.param(lambda: fixtures.random_balanced_star(np.random.default_rng(0), 2, 2),
                 "arms must be an integer of at least 3", id="star-2"),
    pytest.param(lambda: fixtures.random_balanced_star(np.random.default_rng(0), 2, 3.5),
                 "arms must be an integer of at least 3", id="star-float"),
    # "need k >= 1", and two TypeErrors
    pytest.param(lambda: dense_lines_fixture(0), "k must be an integer of at least 1", id="k-0"),
    pytest.param(lambda: dense_lines_fixture(2.5), "k must be an integer of at least 1",
                 id="k-float"),
    pytest.param(lambda: dense_lines_fixture(2, ambient_dim=2.5),
                 "ambient_dim must be an integer of at least 1", id="dense-lines-dim"),
    # the table's own message, and a TypeError from np.empty
    pytest.param(lambda: projection.halfline_difference_table(*projection.counterexample_pair(), 0),
                 "n_directions must be an integer of at least 1", id="directions-0"),
    pytest.param(lambda: projection.halfline_difference_table(_LINE, _LINE, 2.5),
                 "n_directions must be an integer of at least 1", id="directions-float"),
    # the normals' own message, a TypeError from range(), and [e1, -e1]
    pytest.param(lambda: default_normals(3, -1), "extra normals must be an integer of at least 0",
                 id="normals-negative"),
    pytest.param(lambda: default_normals(3, 1.5), "extra normals must be an integer of at least 0",
                 id="normals-float"),
    pytest.param(lambda: default_normals(1), "ambient_dim must be an integer of at least 2",
                 id="normals-dim"),
    # "subspace dimension must satisfy 1 <= k < n" from a chart, and an
    # empty cone
    pytest.param(lambda: reconstruct_conic(BandOracle(_CONE3), 1),
                 "ambient_dim must be an integer of at least 2", id="reconstruct-dim"),
    pytest.param(lambda: tomography.reconstruct_from_marginals(1, []),
                 "ambient_dim must be an integer of at least 2", id="marginals-dim"),
    # the quadrature's own message, and a TypeError from numpy
    pytest.param(lambda: variation.first_variation_quadrature(_LINE, _FIELD2, nodes=1),
                 "nodes must be an integer of at least 2", id="nodes-1"),
    pytest.param(lambda: variation.first_variation_quadrature(_LINE, _FIELD2, nodes=2.5),
                 "nodes must be an integer of at least 2", id="nodes-float"),
    # accepted (axis -1 wrapped round), and a TypeError from numpy
    pytest.param(lambda: variation.rotation_field([0.0, 0.0], 1.0, 0, -1, 2),
                 "axis j must be an integer of at least 0", id="rotation-axis"),
    pytest.param(lambda: variation.rotation_field([0.0, 0.0], 1.0, 0, 1, 2.0),
                 "n must be an integer of at least 2", id="rotation-n"),
    # loaded as R^2
    pytest.param(lambda: document_from_dict({"ambient_dim": 2.9, "rays": _RAYS}),
                 "malformed varifold document: ambient_dim must be an integer of at least 1",
                 id="document-float"),
    pytest.param(lambda: document_from_dict({"ambient_dim": "2", "rays": _RAYS}),
                 "malformed varifold document: ambient_dim must be an integer of at least 1",
                 id="document-string"),
])
def test_count_rule_covers_every_entry_point(call, message):
    assert _rule_message(call) == message


def test_count_rule_admits_numpy_integers_and_returns_ints():
    # at the parent conic_atoms kept a numpy ambient_dim as given
    assert DiscreteVarifold(np.int64(2)).ambient_dim == 2
    assert type(conic_atoms(np.int32(2), []).ambient_dim) is int
    assert circle_grid(np.int64(8)).size == 8
    assert len(default_normals(np.int64(3), np.int64(0))) == 6


@pytest.mark.parametrize("call, message", [
    # "piece dimension does not match ambient_dim", "ambient dimensions differ"
    pytest.param(lambda: DiscreteVarifold(3, (SegmentPiece([0, 0], [1, 0], 1.0),)),
                 "piece is in R^2, not R^3", id="piece"),
    pytest.param(lambda: DiscreteVarifold(2) + DiscreteVarifold(3), "summand is in R^3, not R^2",
                 id="sum"),
    # "density grid dimension does not match ambient_dim"
    pytest.param(lambda: ConicVarifold(3, density=SampledDensity(circle_grid(8), np.ones(8))),
                 "density grid is in R^2, not R^3", id="cone-density"),
    pytest.param(lambda: conic_atoms(2, [], SampledDensity(sphere_grid(2, 4), np.ones(8))),
                 "density grid is in R^3, not R^2", id="conic-atoms-density"),
    # "arc masses are defined on the circle only"
    pytest.param(lambda: circle_arc_mass(_CONE3, 0.0, 1.0), "cone is in R^3, not R^2", id="arc"),
    # "subspace lives in a different ambient space" (three copies)
    pytest.param(lambda: projection.mapping_projection(DiscreteVarifold(3), Subspace.span([1, 0])),
                 "subspace is in R^2, not R^3", id="mapping"),
    pytest.param(lambda: projection.weighted_projection(DiscreteVarifold(3),
                                                        Subspace.span([1, 0])),
                 "subspace is in R^2, not R^3", id="weighted"),
    pytest.param(lambda: projection.weighted_projection_conic(_CONE3, Subspace.span([1, 0])),
                 "subspace is in R^2, not R^3", id="conic"),
    # "half-line multiplicities are defined in the plane only"
    pytest.param(lambda: halfline_multiplicity(_CONE3, [1.0, 0.0]), "cone is in R^3, not R^2",
                 id="halfline"),
    # "ambient dimensions differ", then numpy's matmul error
    pytest.param(lambda: blowup.weak_star_distance(_LINE, DiscreteVarifold(3),
                                                   blowup.default_battery(2)),
                 "v2 is in R^3, not R^2", id="weak-star-v2"),
    pytest.param(lambda: blowup.weak_star_distance(_LINE, _LINE, blowup.default_battery(3)),
                 "battery is in R^3, not R^2", id="weak-star-battery"),
    # accepted: every dilation of the Y equals its cone, so nothing was paired
    pytest.param(lambda: blowup.tangent_estimate(y_junction(), [0.0, 0.0], [0.5],
                                                 blowup.default_battery(3)),
                 "battery is in R^3, not R^2", id="tangent-battery"),
    # accepted
    pytest.param(lambda: blowup.TestBattery(2, 1.0, table=blowup.default_battery(3).table),
                 "battery table is in R^3, not R^2", id="battery-table"),
    # "field dimension does not match the varifold", then numpy broadcasting
    pytest.param(lambda: variation.first_variation(DiscreteVarifold(3), _FIELD2),
                 "field is in R^2, not R^3", id="first-variation"),
    pytest.param(lambda: variation.first_variation_quadrature(
        full_line([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]), _FIELD2),
                 "field is in R^2, not R^3", id="quadrature"),
    # accepted, each failing later in numpy
    pytest.param(lambda: variation.bump_field([0.0, 0.0], 1.0, [1.0, 0.0, 0.0]),
                 "field vector is in R^3, not R^2", id="bump-vector"),
    pytest.param(lambda: variation.linear_field([0.0, 0.0], 1.0, np.eye(3)),
                 "field matrix is in R^3, not R^2", id="linear-matrix"),
    pytest.param(lambda: variation.rotation_field([0.0, 0.0], 1.0, 0, 1, 3),
                 "field matrix is in R^3, not R^2", id="rotation-n"),
    # numpy's matmul error
    pytest.param(lambda: blowup.density_bound_check(
        conic_atoms(3, [(_POLE, 1.0)]), _POLE, Subspace(4, np.eye(4)[:2]), 1e-6, 1e-3),
                 "plane is in R^4, not R^3", id="density-bound-plane"),
    # "discrete and conic parts disagree on the dimension"
    pytest.param(lambda: document_to_dict(DiscreteVarifold(2), _CONE3),
                 "conic part is in R^3, not R^2", id="document"),
])
def test_same_dim_rule_covers_every_entry_point(call, message):
    assert _rule_message(call) == message


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
@pytest.mark.parametrize("call", [
    # at the parent is_stationary said "tolerance must be positive and finite"
    pytest.param(lambda tol: variation.is_stationary(_LINE, tol), id="is-stationary"),
    pytest.param(lambda tol: variation.vertex_residuals(_LINE, tol), id="vertex-residuals"),
])
def test_tolerance_rule_covers_every_entry_point(call, tol):
    assert _rule_message(lambda: call(tol)) == "tolerance must be nonnegative and finite"
