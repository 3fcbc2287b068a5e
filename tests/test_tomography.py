import functools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import (
    AmbiguousReconstruction,
    BandOracle,
    BandSpec,
    ConicVarifold,
    LineMeasure,
    Subspace,
    band_marginal,
    conic_atoms,
    default_normals,
    fourier_of_marginal,
    gnomonic_pushforward,
    hyperplane_of,
    lift_to_sphere,
    load_varifold,
    locate_marginal_atoms,
    marginal_direction_battery,
    reconstruct_conic,
    reconstruct_from_marginals,
    reconstruct_plane_measure,
    save_varifold,
)
from varifold_lab.core import unit
from varifold_lab.fixtures import balanced_y_cone, random_conic
from varifold_lab.tomography import (
    LOCATE_MAX_DEPTH,
    LOCATE_WIDTH,
    CoverageGap,
    PlaneMeasure,
)

import tomography_reference as ref


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# gnomonic transport
# ---------------------------------------------------------------------------

def test_pole_atom_maps_to_plane_origin():
    v = np.array([0.0, 0.0, 1.0])
    c = conic_atoms(3, [(v, 1.7)])
    res = gnomonic_pushforward(c, v)
    assert res.measure.n_atoms == 1
    assert np.allclose(res.measure.points[0], 0.0, atol=1e-15)
    assert res.measure.masses[0] == pytest.approx(1.7)


def test_45_degree_atom_position_and_mass():
    v = np.array([0.0, 0.0, 1.0])
    e = np.array([1.0, 0.0, 0.0])
    theta = unit(v + e)
    c = conic_atoms(3, [(theta, 1.0)])
    res = gnomonic_pushforward(c, v)
    assert np.allclose(res.measure.points[0], e, atol=1e-14)
    assert res.measure.masses[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-14)


def test_back_hemisphere_silently_dropped_equator_reported():
    v = np.array([0.0, 0.0, 1.0])
    c = conic_atoms(
        3, [([0.0, 0.6, 0.8], 1.0), ([0.0, 0.6, -0.8], 2.0), ([1.0, 0.0, 0.0], 3.0)]
    )
    res = gnomonic_pushforward(c, v)
    assert res.measure.n_atoms == 1
    assert len(res.excluded) == 1
    assert res.excluded[0][1] == 3.0


def test_lift_round_trip():
    v = unit([0.2, -0.4, 0.9])
    plane = hyperplane_of(v)
    rng = np.random.default_rng(2)
    pts = plane.project(rng.uniform(-2, 2, size=(5, 3)))
    masses = rng.uniform(0.1, 2.0, size=5)
    gamma = PlaneMeasure(plane, pts, masses)
    lifted = lift_to_sphere(gamma, v)
    back = gnomonic_pushforward(lifted, v).measure
    order1 = np.lexsort(gamma.points.T)
    order2 = np.lexsort(back.points.T)
    assert np.allclose(gamma.points[order1], back.points[order2], atol=1e-12)
    assert np.allclose(gamma.masses[order1], back.masses[order2], atol=1e-12)


def test_lift_examples():
    v = np.array([0.0, 0.0, 1.0])
    plane = hyperplane_of(v)
    e = plane.basis[0]
    gamma = PlaneMeasure(plane, e[None, :], np.array([math.sqrt(2) / 2]))
    lifted = lift_to_sphere(gamma, v)
    assert np.allclose(lifted.atom_directions[0], unit(v + e), atol=1e-14)
    assert lifted.atom_masses[0] == pytest.approx(1.0, abs=1e-14)
    empty = PlaneMeasure(plane, np.zeros((0, 3)), np.zeros(0))
    assert lift_to_sphere(empty, v).is_empty


# ---------------------------------------------------------------------------
# band marginals and the forward operator
# ---------------------------------------------------------------------------

def test_pole_atom_marginal_is_origin_atom():
    v = np.array([0.0, 0.0, 1.0])
    c = conic_atoms(3, [(v, 0.9)])
    plane = hyperplane_of(v)
    for xi in plane.basis:
        m = band_marginal(c, v, xi, [BandSpec(-1.0, 1.0)])
        assert m.n_atoms == 1
        assert m.coordinates[0] == pytest.approx(0.0, abs=1e-15)
        assert m.masses[0] == pytest.approx(0.9, abs=1e-14)


def test_45_degree_band_mass_is_sqrt_two():
    v = np.array([0.0, 0.0, 1.0])
    e = np.array([1.0, 0.0, 0.0])
    c = conic_atoms(3, [(unit(v + e), 1.0)])
    got = BandOracle(c)(v, e, [BandSpec(0.5, 1.5)])
    assert got[0] == pytest.approx(math.sqrt(2), abs=1e-14)
    m = band_marginal(c, v, e, [BandSpec(0.5, 1.5)])
    assert m.coordinates[0] == pytest.approx(1.0, abs=1e-14)
    assert m.masses[0] == pytest.approx(math.sqrt(2) / 2, abs=1e-14)


def test_empty_bands_give_zero():
    v = np.array([0.0, 0.0, 1.0])
    c = conic_atoms(3, [(unit([1.0, 0.0, 1.0]), 1.0)])
    got = BandOracle(c)(v, [1.0, 0.0, 0.0], [BandSpec(2.0, 3.0), BandSpec(-1.0, 0.5)])
    assert np.all(got == 0.0)


def test_band_marginal_checks_orthogonality_on_unit_vectors():
    c = conic_atoms(3, [(unit([0.2, 0.1, 1.0]), 1.0), (unit([-0.5, 0.3, 1.0]), 0.7)])
    v, bands = np.array([0.0, 0.0, 1.0]), [BandSpec(-1.0, 1.0)]
    # v . xi is 1e-13, but xi lies at 45 degrees to v
    with pytest.raises(ValueError, match="orthogonal"):
        band_marginal(c, v, [1e-13, 0.0, 1e-13], bands)
    # the battery's first direction 6e-13 off the plane: _off_plane's
    # 3.5e-13 in R^3 is the one rule, as in the plane solve
    with pytest.raises(ValueError, match="orthogonal"):
        band_marginal(c, v, marginal_direction_battery(hyperplane_of(v))[0] + [0.0, 0.0, 6e-13],
                      bands)
    # v . xi is 2e-7, but the cosine is 2e-13
    xi = np.array([1e6, 0.0, 2e-7])
    m = band_marginal(c, v, xi, bands)
    assert m.direction.tobytes() == (xi / math.sqrt(float(np.dot(xi, xi)))).tobytes()
    along_e1 = band_marginal(c, v, [1.0, 0.0, 0.0], bands)
    assert np.allclose(m.coordinates, along_e1.coordinates, rtol=0.0, atol=1e-12)
    assert np.allclose(m.masses, along_e1.masses, rtol=0.0, atol=1e-12)


def test_band_marginal_matches_gnomonic_marginal():
    rng = np.random.default_rng(17)
    for _ in range(32):
        c = random_conic(rng, 3, n_atoms=int(rng.integers(1, 8)))
        v = unit(rng.normal(size=3))
        plane = hyperplane_of(v)
        xi = unit(plane.project(rng.normal(size=3)))
        bands = [BandSpec(-50.0, 0.3), BandSpec(0.3 + 1e-12, 2.0), BandSpec(2.0 + 1e-12, 50.0)]
        marg = band_marginal(c, v, xi, bands)
        gn = gnomonic_pushforward(c, v).measure
        coords = gn.points @ xi
        for b in bands:
            inside = (coords >= b.s) & (coords <= b.t)
            expect = float(np.sum(gn.masses[inside]))
            assert marg.band_mass(b.s, b.t) == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# Fourier samples
# ---------------------------------------------------------------------------

def test_fourier_of_marginal_examples():
    m0 = LineMeasure([1.0, 0.0], np.array([0.0]), np.array([0.7]))
    assert fourier_of_marginal(m0, 3.3) == pytest.approx(0.7)
    m1 = LineMeasure([1.0, 0.0], np.array([1.0]), np.array([1.0]))
    assert fourier_of_marginal(m1, math.pi) == pytest.approx(-1.0 + 0.0j, abs=1e-15)
    m2 = LineMeasure([1.0, 0.0], np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    for f in (0.0, math.pi / 2, math.pi, 0.71):
        assert fourier_of_marginal(m2, f) == pytest.approx(2 * math.cos(f), abs=1e-14)


def test_fourier_slice_identity():
    # marginal transform at |xi| equals the plane transform at xi
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_conic(rng, 3, n_atoms=5)
        v = unit(rng.normal(size=3))
        gn = gnomonic_pushforward(c, v).measure
        xi_dir = unit(gn.plane.project(rng.normal(size=3)))
        freq = float(rng.uniform(0.2, 3.0))
        marg = band_marginal(c, v, xi_dir, [BandSpec(-1e7, 1e7)])
        lhs = fourier_of_marginal(marg, freq)
        f = freq * xi_dir
        rhs = complex(np.sum(gn.masses * np.exp(-1j * (gn.points @ f))))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# plane reconstruction from marginals
# ---------------------------------------------------------------------------

def _marginals_of(gamma: PlaneMeasure, directions):
    out = []
    for xi in directions:
        coords = gamma.points @ xi
        out.append(LineMeasure(xi, coords, gamma.masses.copy()))
    return out


def test_single_atom_recovery_from_two_directions():
    plane = hyperplane_of([0.0, 0.0, 1.0])
    pt = plane.project([0.3, -1.2, 0.0])[None, :]
    gamma = PlaneMeasure(plane, pt, np.array([1.4]))
    marginals = _marginals_of(gamma, [plane.basis[0], plane.basis[1]])
    got = reconstruct_plane_measure(plane, marginals)
    assert got.n_atoms == 1
    assert np.allclose(got.points[0], pt[0], atol=1e-9)
    assert got.masses[0] == pytest.approx(1.4, abs=1e-9)


def test_two_atoms_distinct_coordinates_battery():
    plane = hyperplane_of([0.0, 0.0, 1.0])
    pts = np.array([[0.2, 0.5, 0.0], [-0.7, 1.1, 0.0]])
    gamma = PlaneMeasure(plane, plane.project(pts), np.array([1.0, 2.0]))
    dirs = marginal_direction_battery(plane)
    got = reconstruct_plane_measure(plane, _marginals_of(gamma, dirs))
    assert got.n_atoms == 2
    order = np.argsort(got.points[:, 0])
    assert np.allclose(got.points[order], plane.project(pts)[[1, 0]], atol=1e-9)
    assert got.masses[order] == pytest.approx([2.0, 1.0], abs=1e-9)


def test_diagonal_pair_is_ambiguous_with_axes_only():
    plane = hyperplane_of([0.0, 0.0, 1.0])
    u1, u2 = plane.basis
    pts = np.array([0.0 * u1, u1 + u2])
    gamma = PlaneMeasure(plane, pts, np.array([1.0, 2.0]))
    axes_only = _marginals_of(gamma, [u1, u2])
    with pytest.raises(AmbiguousReconstruction):
        reconstruct_plane_measure(plane, axes_only)
    with_diagonal = _marginals_of(gamma, [u1, u2, unit(u1 + u2)])
    got = reconstruct_plane_measure(plane, with_diagonal)
    assert got.n_atoms == 2
    assert sorted(got.masses) == pytest.approx([1.0, 2.0], abs=1e-10)


# The exits of the plane solve, each on hand-built marginals in the plane
# orthogonal to e3.  The battery there holds two axes, one diagonal and the
# held-out generic direction.

def _e3_battery():
    plane = hyperplane_of([0.0, 0.0, 1.0])
    return plane, marginal_direction_battery(plane)


def _generic_plane_measure(n_atoms):
    plane = hyperplane_of([0.0, 0.0, 1.0])
    rng = np.random.default_rng(2301)
    points = rng.uniform(-1.0, 1.0, (n_atoms, 2)) @ plane.basis
    return PlaneMeasure(plane, points, rng.uniform(0.5, 2.0, n_atoms))


def test_plane_solve_of_empty_axis_marginals():
    plane, battery = _e3_battery()
    empty = [LineMeasure(xi, [], []) for xi in battery]
    assert reconstruct_plane_measure(plane, empty).n_atoms == 0
    origin = [LineMeasure(xi, [0.0], [1.0]) for xi in battery]
    with pytest.raises(AmbiguousReconstruction, match="an axis marginal is empty while others"):
        reconstruct_plane_measure(plane, empty[:1] + origin[1:])


def test_plane_solve_refuses_a_candidate_grid_above_200_000():
    plane, battery = _e3_battery()
    coords = np.arange(500.0)
    marginals = [LineMeasure(xi, coords, np.ones(500)) for xi in battery]
    with pytest.raises(AmbiguousReconstruction, match=r"candidate grid too large \(250000\)"):
        reconstruct_plane_measure(plane, marginals)


def test_plane_solve_with_no_compatible_candidate():
    # the axes allow only the origin, which the diagonal puts at 0, not 5
    plane, battery = _e3_battery()
    marginals = [LineMeasure(battery[0], [0.0], [1.0]), LineMeasure(battery[1], [0.0], [1.0]),
                 LineMeasure(battery[2], [5.0], [1.0])]
    with pytest.raises(AmbiguousReconstruction, match="no candidate is compatible"):
        reconstruct_plane_measure(plane, marginals)


def test_plane_solve_of_inconsistent_marginals():
    # one candidate, the origin, seen with mass 1, 2 and 1
    plane, battery = _e3_battery()
    marginals = [LineMeasure(xi, [0.0], [m]) for xi, m in zip(battery[:3], (1.0, 2.0, 1.0))]
    with pytest.raises(AmbiguousReconstruction, match="mutually inconsistent"):
        reconstruct_plane_measure(plane, marginals)


def test_plane_solve_holds_at_most_max_atoms():
    # the battery's three solving directions pin generic atoms one by one
    gamma = _generic_plane_measure(33)
    battery = marginal_direction_battery(gamma.plane)
    first = PlaneMeasure(gamma.plane, gamma.points[:32], gamma.masses[:32])
    got = reconstruct_plane_measure(gamma.plane, _marginals_of(first, battery))
    order, want = np.lexsort(got.points.T[::-1]), np.lexsort(first.points.T[::-1])
    assert np.allclose(got.points[order], first.points[want], atol=1e-9)
    assert np.allclose(got.masses[order], first.masses[want], atol=1e-9)
    with pytest.raises(AmbiguousReconstruction, match="33 atoms, above the budget 32"):
        reconstruct_plane_measure(gamma.plane, _marginals_of(gamma, battery))


def test_plane_solve_checks_the_held_out_marginal():
    gamma = _generic_plane_measure(3)
    marginals = _marginals_of(gamma, marginal_direction_battery(gamma.plane))
    assert reconstruct_plane_measure(gamma.plane, marginals).n_atoms == 3
    held_out = marginals[-1]
    marginals[-1] = LineMeasure(held_out.direction, held_out.coordinates,
                                held_out.masses * [1.0, 1.0, 1.5])
    with pytest.raises(AmbiguousReconstruction, match="held-out marginal disagrees"):
        reconstruct_plane_measure(gamma.plane, marginals)


# ---------------------------------------------------------------------------
# end-to-end conic reconstruction
# ---------------------------------------------------------------------------

def test_locate_marginal_atoms_finds_slopes():
    c = conic_atoms(3, [(unit([1.0, 0.4, 0.8]), 1.3), (unit([-0.3, 0.9, 0.5]), 0.6)])
    v = np.array([0.0, 0.0, 1.0])
    plane = hyperplane_of(v)
    xi = plane.basis[0]
    oracle = BandOracle(c)
    located = locate_marginal_atoms(oracle, v, xi, lam_max=20.0)
    dirs, masses = c.atom_directions, c.atom_masses
    z1 = dirs @ v
    expect_lam = np.sort((dirs @ xi) / z1)
    assert located.n_atoms == 2
    assert np.allclose(np.sort(located.coordinates), expect_lam, atol=1e-9)
    expect_gamma = np.sort(masses * z1)
    assert np.allclose(np.sort(located.masses), expect_gamma, atol=1e-9)


@pytest.mark.parametrize("lam_max", [math.inf, math.nan, 0.0, -1.0, 1e308, np.float64(1e308),
                                     1e14, 1e20])
def test_locate_marginal_atoms_checks_lam_max(lam_max):
    # without the check, inf ends in a non-finite atom after a warning, and
    # 1e308 and 0 each locate one atom of the two; past about 6e13 bands stop
    # at the depth limit still wider than LOCATE_WIDTH (with 1e20, atoms at
    # slopes 1e-9 and 3e-9 came back as one at 8.3e-5); reconstruct_conic's
    # fixed 2 / CHART_CUTOFF is unaffected
    cone = conic_atoms(3, [([0.6, 0.0, 0.8], 1.0), ([0.0, 0.6, 0.8], 2.0)])
    e1, _, e3 = np.eye(3)
    for oracle in (BandOracle(cone), lambda v, xi, bands: BandOracle(cone)(v, xi, bands)):
        with pytest.raises(ValueError, match="lam_max must be positive"):
            locate_marginal_atoms(oracle, e3, e1, lam_max)
    located = locate_marginal_atoms(BandOracle(cone), e3, e1, 20.0)
    assert located.coordinates == pytest.approx([0.0, 0.75], abs=1e-9)
    assert located.masses == pytest.approx([1.6, 0.8], abs=1e-9)
    recon = reconstruct_conic(BandOracle(cone), 3)
    assert recon.atom_masses == pytest.approx([1.0, 2.0], abs=1e-9)


def test_locate_marginal_atoms_at_the_widest_lam_max():
    widest = LOCATE_WIDTH * 2.0 ** (LOCATE_MAX_DEPTH - 1)
    e1, _, e3 = np.eye(3)
    with pytest.raises(ValueError, match="lam_max must be positive"):
        locate_marginal_atoms(BandOracle(conic_atoms(3, [(e3, 1.0)])), e3, e1,
                              np.nextafter(widest, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # an atom at slope 0.3 still narrows to LOCATE_WIDTH
        located = locate_marginal_atoms(
            BandOracle(conic_atoms(3, [([0.3, 0.0, 1.0], 1.0)])), e3, e1, widest)
        assert located.n_atoms == 1 and abs(located.coordinates[0] - 0.3) <= LOCATE_WIDTH
        # a slope of 1e160 lies outside every band; squaring a midpoint of
        # that size used to overflow
        located = locate_marginal_atoms(
            BandOracle(conic_atoms(3, [([1.0, 0.0, 1e-160], 1.0)])), e3, e1, widest)
        assert located.n_atoms == 0


def test_single_atom_roundtrip():
    c = conic_atoms(3, [(unit([0.5, -0.3, 0.81]), 1.1)])
    recon = reconstruct_conic(BandOracle(c), 3)
    assert recon.n_atoms == 1
    assert np.linalg.norm(recon.atom_directions[0] - c.atom_directions[0]) <= 1e-8
    assert recon.atom_masses[0] == pytest.approx(1.1, abs=1e-8)


def test_y_cone_roundtrip():
    c = balanced_y_cone()
    recon = reconstruct_conic(BandOracle(c), 3)
    assert recon.n_atoms == 3
    for i in range(3):
        z = c.atom_directions[i]
        dists = np.linalg.norm(recon.atom_directions - z, axis=1)
        j = int(np.argmin(dists))
        assert dists[j] <= 1e-8
        assert recon.atom_masses[j] == pytest.approx(1.0, abs=1e-8)


def test_ten_random_atoms_roundtrip():
    rng = np.random.default_rng(29)
    c = random_conic(rng, 3, n_atoms=10)
    recon = reconstruct_conic(BandOracle(c), 3)
    assert recon.n_atoms == 10
    for i in range(10):
        z = c.atom_directions[i]
        dists = np.linalg.norm(recon.atom_directions - z, axis=1)
        j = int(np.argmin(dists))
        assert dists[j] <= 1e-6
        assert abs(recon.atom_masses[j] - c.atom_masses[i]) <= 1e-6


@settings(max_examples=25, deadline=2000)
@given(seed=st.integers(0, 2**32 - 1), n_atoms=st.integers(1, 6))
def test_separated_atoms_round_trip(seed, n_atoms):
    # random_conic keeps atoms 1e-3 apart with masses in [0.1, 2]
    c = random_conic(np.random.default_rng(seed), 3, n_atoms=n_atoms,
                     min_separation=1e-3, mass_range=(0.1, 2.0))
    recon = reconstruct_conic(BandOracle(c), 3)
    assert recon.n_atoms == n_atoms
    for z, m in zip(c.atom_directions, c.atom_masses):
        dists = np.linalg.norm(recon.atom_directions - z, axis=1)
        j = int(np.argmin(dists))
        assert dists[j] <= 1e-6
        assert abs(recon.atom_masses[j] - m) <= 1e-6


def test_homogeneity_of_the_pipeline():
    rng = np.random.default_rng(37)
    c = random_conic(rng, 3, n_atoms=4)
    scaled = ConicVarifold(3, c.atom_directions, 3.0 * c.atom_masses)
    v = unit(rng.normal(size=3))
    plane = hyperplane_of(v)
    xi = plane.basis[1]
    bands = [BandSpec(-10.0, 10.0)]
    assert BandOracle(scaled)(v, xi, bands)[0] == pytest.approx(
        3.0 * BandOracle(c)(v, xi, bands)[0], rel=1e-14
    )
    m1 = band_marginal(c, v, xi, bands)
    m3 = band_marginal(scaled, v, xi, bands)
    assert fourier_of_marginal(m3, 0.7) == pytest.approx(
        3.0 * fourier_of_marginal(m1, 0.7), abs=1e-12
    )
    r1 = reconstruct_conic(BandOracle(c), 3)
    r3 = reconstruct_conic(BandOracle(scaled), 3)
    o1 = np.lexsort(r1.atom_directions.T)
    o3 = np.lexsort(r3.atom_directions.T)
    assert np.allclose(r3.atom_masses[o3], 3.0 * r1.atom_masses[o1], rtol=1e-9)


def test_default_normals_needs_a_nonnegative_extra():
    # at the parent a negative extra was taken as 0
    with pytest.raises(ValueError, match="^extra normals must be nonnegative$"):
        default_normals(3, -1)
    assert len(default_normals(3, 0)) == 6 and len(default_normals(3, 2)) == 8


def test_perturbation_changes_band_masses():
    # quantitative injectivity probe: moving an atom or a mass is visible
    rng = np.random.default_rng(43)
    c = random_conic(rng, 3, n_atoms=5)
    normals = default_normals(3)
    batteries = [(v, xi) for v in normals for xi in marginal_direction_battery(hyperplane_of(v))]
    probe_bands = np.column_stack([np.linspace(-4, 4, 65)[:-1], np.linspace(-4, 4, 65)[1:]])

    def signature(cone):
        oracle = BandOracle(cone)
        return np.concatenate([oracle(v, xi, probe_bands) for v, xi in batteries])

    base = signature(c)
    # mass perturbation
    masses = c.atom_masses.copy()
    masses[2] += 1e-3
    assert np.max(np.abs(signature(ConicVarifold(3, c.atom_directions, masses)) - base)) >= 1e-5
    # position perturbation by 1e-3 radians
    dirs = c.atom_directions.copy()
    axis = unit(np.cross(dirs[1], [0.0, 0.0, 1.0]))
    rot = _rotation_about(axis, 1e-3)
    dirs[1] = rot @ dirs[1]
    assert np.max(np.abs(signature(ConicVarifold(3, dirs, c.atom_masses)) - base)) >= 1e-5


def _rotation_about(axis, angle):
    axis = unit(axis)
    K = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def test_coverage_gap_raised_for_sparse_normals():
    # an atom in the equator of the single supplied normal is measured by
    # nothing and reconstruction of the visible part succeeds; an atom
    # visible in the marginals but discarded by every chart must raise
    c = conic_atoms(3, [(unit([1.0, 0.0, 0.05]), 1.0)])
    from varifold_lab import CoverageGap

    with pytest.raises(CoverageGap):
        reconstruct_conic(BandOracle(c), 3, normals=[np.array([0.0, 0.0, 1.0])])


# ---------------------------------------------------------------------------
# the per-row oracle contract and batched atom location
# ---------------------------------------------------------------------------

def _default_pairs(n):
    return [(v, xi) for v in default_normals(n)
            for xi in marginal_direction_battery(hyperplane_of(v))]


def test_per_row_oracle_matches_per_pair_calls():
    rng = np.random.default_rng(53)
    c = random_conic(rng, 3, n_atoms=6)
    pairs = _default_pairs(3)[::5]
    edges = np.linspace(-3.0, 3.0, 13)
    bands = np.column_stack([edges[:-1], edges[1:]])
    rows_v = np.repeat([v for v, _ in pairs], len(bands), axis=0)
    rows_xi = np.repeat([xi for _, xi in pairs], len(bands), axis=0)
    rows_bands = np.tile(bands, (len(pairs), 1))
    expect = np.concatenate([BandOracle(c)(v, xi, bands) for v, xi in pairs])
    assert np.count_nonzero(expect) > 0
    for order in (np.arange(len(expect)), rng.permutation(len(expect))):
        oracle = BandOracle(c)
        got = oracle(rows_v[order], rows_xi[order], rows_bands[order])
        assert np.array_equal(got, expect[order])
        assert oracle.query_count == len(expect)
    # one shared vector broadcasts against per-row arrays
    v, xi = pairs[0]
    got = BandOracle(c)(v, np.tile(xi, (len(bands), 1)), bands)
    assert np.array_equal(got, BandOracle(c)(v, xi, bands))


def test_oracle_rejects_mismatched_shapes():
    oracle = BandOracle(balanced_y_cone())
    v, xi = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    bands = np.array([[-1.0, 0.0], [0.0, 1.0]])
    bad = [
        (np.tile(v, (3, 1)), xi, bands),          # v rows != band rows
        (v, np.tile(xi, (1, 1)), bands),          # xi rows != band rows
        (np.tile(v[:2], (2, 1)), xi, bands),      # wrong row length
        (v, np.tile(xi, (2, 1))[..., None], bands),  # three axes
        (v[:2], np.tile(xi, (2, 1)), bands),      # shared vector of wrong length
        (v[:2], xi[:2], bands),
        (v, xi, np.zeros((2, 3))),
    ]
    for args in bad:
        with pytest.raises(ValueError):
            oracle(*args)


@functools.lru_cache(maxsize=None)
def _criterion_7_cones():
    rng = np.random.default_rng(7077)
    return tuple(
        random_conic(rng, 3, n_atoms=int(rng.integers(1, 11)), min_separation=1e-3,
                     mass_range=(0.1, 2.0))
        for _ in range(100)
    )


def _reference_locate(oracle, v, xi, lam_max, width_target=1e-10, mass_tol=1e-9,
                      max_depth=80):
    """One marginal at a time, one-pair oracle calls: the bisection loop that
    the batched location replaced."""
    intervals = [(-lam_max, lam_max)]
    for _ in range(max_depth):
        pending = []
        done = []
        for a, b in intervals:
            if (b - a) <= max(width_target, 4e-16 * max(abs(a), abs(b))):
                done.append((a, b))
            else:
                m = 0.5 * (a + b)
                pending.append((a, m))
                pending.append((m, b))
        if not pending:
            break
        masses = oracle(v, xi, np.array(pending))
        intervals = done + [iv for iv, m in zip(pending, masses) if m > mass_tol]
        if not intervals:
            return LineMeasure(xi, np.zeros(0), np.zeros(0))
    intervals.sort()
    merged = []
    for a, b in intervals:
        gap = 2.0 * max(width_target, 4e-16 * max(abs(a), abs(b)))
        if merged and a - merged[-1][1] <= gap:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    bands = np.array(merged)
    totals = oracle(v, xi, bands)
    keep = totals > mass_tol
    mids = 0.5 * (bands[:, 0] + bands[:, 1])[keep]
    return LineMeasure(xi, mids, totals[keep] / (1.0 + mids**2))


def test_batched_location_is_bitwise_the_per_marginal_loop():
    # the criterion-7 cones; cone 73 (10 atoms) loses an atom when per-row
    # slopes are not the exact floats of a one-pair call
    from varifold_lab.tomography import _locate_atoms

    pairs = _default_pairs(3)
    lam_max = 2.0 / 1e-6
    for i, cone in enumerate(_criterion_7_cones()):
        batched = _locate_atoms(BandOracle(cone), pairs, lam_max)
        oracle = BandOracle(cone)
        for (v, xi), got in zip(pairs, batched):
            want = _reference_locate(oracle, v, xi, lam_max)
            assert got.coordinates.tobytes() == want.coordinates.tobytes(), i
            assert got.masses.tobytes() == want.masses.tobytes(), i


# ---------------------------------------------------------------------------
# three-level location and the array solve, against the level-by-level code
# ---------------------------------------------------------------------------

class _WidthRecorder(BandOracle):
    """A BandOracle that records the band widths of every call."""

    def __init__(self, cone):
        super().__init__(cone)
        self.widths = []

    def __call__(self, v, xi, bands):
        self.widths.append(np.diff(bands, axis=1)[:, 0])
        return super().__call__(v, xi, bands)


# From [-2e6, 2e6] a band is 4e6 / 2^depth wide.  Width targets 2e5 and 4e5
# stop bands at depths 5 and 4, inside a three-level chunk; with 0.0 only the
# float-resolution rule stops a band, at a depth set by its position, so one
# call holds both three-level and one-level bands.
@pytest.mark.parametrize("max_depth, width_target", [
    (1, 1e-10), (2, 1e-10), (4, 1e-10), (5, 1e-10), (80, 1e-10),
    (80, 2e5), (80, 4e5), (5, 4e5), (80, 0.0),
])
def test_three_level_location_matches_level_by_level(max_depth, width_target, monkeypatch):
    from varifold_lab import tomography
    from varifold_lab.tomography import _locate_atoms

    # the rows of a call are built one way when every band goes three levels
    # deep and another when some band takes one level: record which ran
    shapes = set()
    children = tomography._children

    def recording_children(owner, edges, depth, deep):
        shapes.add("all deep" if deep.all() else "mixed" if deep.any() else "none deep")
        return children(owner, edges, depth, deep)

    monkeypatch.setattr(tomography, "_children", recording_children)
    monkeypatch.setattr(tomography, "LOCATE_WIDTH", width_target)
    monkeypatch.setattr(tomography, "LOCATE_MAX_DEPTH", max_depth)
    pairs = _default_pairs(3)
    lam_max = 2.0 / 1e-6
    mixed = False
    for i, cone in enumerate(_criterion_7_cones()):
        oracle = _WidthRecorder(cone)
        got = _locate_atoms(oracle, pairs, lam_max)
        # a BandOracle itself takes the pair index in place of (v, xi) rows
        direct = _locate_atoms(BandOracle(cone), pairs, lam_max)
        want = ref.locate_atoms(BandOracle(cone), pairs, lam_max, width_target,
                                max_depth=max_depth)
        for g, d, w in zip(got, direct, want, strict=True):
            for located in (g, d):
                assert located.coordinates.tobytes() == w.coordinates.tobytes(), i
                assert located.masses.tobytes() == w.masses.tobytes(), i
        # the last call re-measures the merged bands, of any widths
        mixed |= any(width.max() >= 2.0 * width.min() for width in oracle.widths[:-1])
    assert mixed == (width_target == 0.0)
    # a band first goes three levels deep when 3 levels of max_depth remain;
    # only the float-resolution rule stops bands of one call at different depths
    assert ("all deep" in shapes) == (max_depth >= 3)
    assert ("mixed" in shapes) == (width_target == 0.0)


def test_pair_index_route_is_the_call_route_bitwise():
    # a BandOracle is handed the pair index; the same oracle behind a plain
    # function, and a subclass that overrides __call__, get (v, xi) rows
    from varifold_lab.tomography import _locate_atoms

    rng = np.random.default_rng(2207)
    cases = [(3, cone) for cone in _criterion_7_cones()]
    cases += [(n, random_conic(rng, n, n_atoms=int(rng.integers(1, 6))))
              for n in (2, 4) for _ in range(20)]
    for i, (n, cone) in enumerate(cases):
        pairs = _default_pairs(n)
        direct, behind, recorder = BandOracle(cone), BandOracle(cone), _WidthRecorder(cone)
        rows = []

        def plain(v, xi, bands):
            rows.append(len(bands))
            return behind(v, xi, bands)

        got = _locate_atoms(direct, pairs, 2.0 / 1e-6)
        for oracle in (plain, recorder):
            want = _locate_atoms(oracle, pairs, 2.0 / 1e-6)
            for g, w in zip(got, want, strict=True):
                for name in ("direction", "coordinates", "masses"):
                    assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), i
        assert direct.query_count == behind.query_count == recorder.query_count == sum(rows), i
        # the subclass saw every call, row for row
        assert [len(width) for width in recorder.widths] == rows, i
        # every call of the pair-index route reads one table of all pairs
        assert len(direct._tables) == 1, i


def test_nothing_to_locate_reconstructs_the_empty_cone():
    # every band dies at the first call, or there is no marginal at all
    for cone, normals in ((ConicVarifold(3), None), (balanced_y_cone(), [])):
        recon = reconstruct_conic(BandOracle(cone), 3, normals=normals)
        assert recon.n_atoms == 0


def test_default_reconstruction_makes_at_most_21_oracle_calls():
    # 56 bisection levels reach 1e-10 from [-2e6, 2e6]: one call per level
    # made 56 calls, three levels per call make 18 plus 2 one-level calls,
    # and one more call re-measures the merged bands of every marginal
    oracle = BandOracle(balanced_y_cone())
    calls = []

    def counting(v, xi, bands):
        calls.append(len(bands))
        return oracle(v, xi, bands)

    recon = reconstruct_conic(counting, 3)
    assert recon.n_atoms == 3
    assert 0 < len(calls) <= 21
    assert sum(calls) == oracle.query_count


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pair=st.integers(0, 27),
    s=st.floats(-20.0, 20.0),
    width=st.floats(1e-12, 40.0),
    cuts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_sub_band_mass_never_exceeds_the_band(seed, pair, s, width, cuts):
    # the contract three-level location rests on, bit for bit in both forms
    cone = random_conic(np.random.default_rng(seed), 3, n_atoms=1 + seed % 10)
    v, xi = _default_pairs(3)[pair]
    t = s + width
    lo, hi = sorted(min(max(s + c * (t - s), s), t) for c in cuts)
    edges = [s, t]
    for _ in range(3):  # the nested midpoints of three bisection levels
        edges = sorted(edges + [0.5 * (a + b) for a, b in zip(edges, edges[1:])])
    bands = np.array([[s, t], [lo, hi]] + list(zip(edges, edges[1:])))
    for got in (BandOracle(cone)(v, xi, bands),
                BandOracle(cone)(np.tile(v, (len(bands), 1)), np.tile(xi, (len(bands), 1)),
                                 bands)):
        assert np.all(got[1:] <= got[0])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    pair=st.integers(0, 27),
    bands=st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(0.0, 40.0)),
                   min_size=1, max_size=16),
)
def test_one_vector_and_per_row_calls_agree_bitwise(seed, pair, bands):
    cone = random_conic(np.random.default_rng(seed), 3, n_atoms=1 + seed % 10)
    v, xi = _default_pairs(3)[pair]
    bands = np.array([(s, s + width) for s, width in bands])
    rows = len(bands), 1
    got = BandOracle(cone)(np.tile(v, rows), np.tile(xi, rows), bands)
    assert got.tobytes() == BandOracle(cone)(v, xi, bands).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(st.tuples(
        st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0])),
        st.integers(1, 12),
        st.floats(0.0, 0.45),
    ), max_size=8),
    order=st.randoms(use_true_random=False),
)
def test_cluster_1d_matches_the_group_loop(groups, order):
    from varifold_lab.tomography import _cluster_1d

    values = []
    for center, size, spread in groups:
        step = spread * 1e-7 * (1.0 + abs(center))
        values += [center + k * step for k in range(size)]
    order.shuffle(values)
    values = np.array(values, dtype=float)
    want = [rep for rep, _ in ref.cluster_1d(values, lambda val: 1e-7 * (1.0 + abs(val)))]
    got = _cluster_1d(values, lambda val: 1e-7 * (1.0 + np.abs(val)))
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


def _outcome(solve, *args):
    """(directions, masses) bytes of a cone, or the error a solve raised."""
    try:
        c = solve(*args)
    except (AmbiguousReconstruction, CoverageGap, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return c.atom_directions.tobytes(), c.atom_masses.tobytes()


def test_merge_of_shuffled_marginals_matches_the_atom_loops():
    # marginals in arbitrary row order, as `reconstruct --from-measurements`
    # builds them; an atom split in 9 gives incidence rows that sum 9 masses,
    # which np.sum adds pairwise
    from varifold_lab.tomography import _locate_atoms

    rng = np.random.default_rng(4242)
    normals = default_normals(3)
    pairs = _default_pairs(3)
    per_chart = len(pairs) // len(normals)
    outcomes = set()
    for cone in _criterion_7_cones()[:40]:
        located = _locate_atoms(BandOracle(cone), pairs, 2.0 / 1e-6)
        for split in (False, True):
            marginals = []
            for m in located:
                cs, ms = m.coordinates, m.masses
                if split and m.n_atoms:
                    parts = rng.dirichlet(np.ones(9)) * ms[0]
                    cs = np.concatenate((cs[0] + 1e-12 * np.arange(9), cs[1:]))
                    ms = np.concatenate((parts, ms[1:]))
                p = rng.permutation(len(cs))
                marginals.append(LineMeasure(m.direction, cs[p], ms[p]))
            charts = [(v, marginals[i * per_chart:(i + 1) * per_chart])
                      for i, v in enumerate(normals)]
            got = _outcome(reconstruct_from_marginals, 3, charts)
            assert got == _outcome(ref.reconstruct_from_marginals, 3, charts)
            outcomes.add(type(got[0]).__name__)
    assert outcomes == {"bytes"}


def test_lift_matches_the_atom_loop():
    rng = np.random.default_rng(91)
    for n in (2, 3, 4):
        for _ in range(30):
            v = unit(rng.normal(size=n))
            plane = hyperplane_of(v)
            pts = plane.project(rng.normal(size=(int(rng.integers(0, 6)), n)))
            if len(pts) > 1 and rng.random() < 0.5:
                pts[1] = pts[0] + 1e-12 * plane.basis[0]  # merged by conic_atoms
            gamma = PlaneMeasure(plane, pts, rng.uniform(0.1, 2.0, size=len(pts)))
            assert _outcome(lift_to_sphere, gamma, v) == _outcome(ref.lift_to_sphere, gamma, v)


def test_chart_merge_identifies_and_rejects_as_the_atom_loop():
    z = unit([0.3, 0.2, 1.0])
    near = unit(z + [2e-7, 0.0, 0.0])
    for masses, raises in (((1.0, 1.0 + 5e-9), False), ((1.0, 1.0 + 1e-7), True)):
        charts = []
        for atom, m in zip((z, near), masses):
            v = np.array([0.0, 0.0, 1.0])
            gamma = gnomonic_pushforward(conic_atoms(3, [(atom, m)]), v).measure
            marginals = [LineMeasure(xi, gamma.points @ xi, gamma.masses)
                         for xi in marginal_direction_battery(gamma.plane)]
            charts.append((v, marginals))
        got = _outcome(reconstruct_from_marginals, 3, charts)
        assert got == _outcome(ref.reconstruct_from_marginals, 3, charts)
        assert (got[0] == "AmbiguousReconstruction") == raises


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

def test_nan_band_bounds_raise_and_infinite_ones_are_legal():
    c = conic_atoms(3, [(unit([0.2, 0.1, 1.0]), 1.0), (unit([-0.5, 0.3, 1.0]), 0.7)])
    v, xi = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    for bad in ([[np.nan, 1.0]], [[0.0, np.nan]], np.array([[0.0, 1.0], [np.nan, np.nan]])):
        with pytest.raises(ValueError, match="NaN"):
            BandOracle(c)(v, xi, bad)
        with pytest.raises(ValueError, match="NaN"):
            BandOracle(c)(np.tile(v, (len(bad), 1)), xi, bad)
        with pytest.raises(ValueError, match="NaN"):
            band_marginal(c, v, xi, bad)
    everything = BandOracle(c)(v, xi, [[-np.inf, np.inf]])[0]
    assert everything > 0.0
    assert everything == BandOracle(c)(v, xi, [[-1e300, 1e300]])[0]


@pytest.mark.parametrize("coords, masses", [
    ([np.nan], [1.0]), ([np.inf], [1.0]), ([0.0], [np.nan]), ([0.0], [np.inf]),
    ([np.nan], [np.nan]), ([0.0, -np.inf], [1.0, 1.0]),
])
def test_line_measure_rejects_non_finite_atoms(coords, masses):
    with pytest.raises(ValueError, match="finite"):
        LineMeasure([1.0, 0.0], coords, masses)


def test_plane_measure_rejects_non_finite_atoms():
    plane = hyperplane_of([0.0, 0.0, 1.0])
    for pts, ms in (([[np.nan, 0.0, 0.0]], [1.0]), ([[np.inf, 0.0, 0.0]], [1.0]),
                    ([[0.0, 0.0, 0.0]], [np.nan]), ([[0.0, 0.0, 0.0]], [np.inf])):
        with pytest.raises(ValueError, match="finite"):
            PlaneMeasure(plane, np.array(pts), np.array(ms))


def test_oracle_call_with_no_band_rows_measures_nothing():
    oracle = BandOracle(balanced_y_cone())
    e1, e3 = np.eye(3)[0], np.eye(3)[2]
    for v, xi in ((e3, e1), (np.zeros((0, 3)), np.zeros((0, 3)))):
        got = oracle(v, xi, np.zeros((0, 2)))
        assert got.shape == (0,) and got.dtype == float
    assert oracle.query_count == 0


def test_oracle_rejects_non_finite_rows():
    oracle = BandOracle(balanced_y_cone())
    v, xi = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    bands = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
    oracle(v, xi, bands)  # a cached finite pair changes nothing below
    for bad in (np.nan, np.inf, -np.inf):
        odd = v.copy()
        odd[0] = bad
        with pytest.raises(ValueError, match="finite"):
            oracle(odd, xi, bands)
        with pytest.raises(ValueError, match="finite"):
            oracle(v, odd, bands)
        # the bad row repeats the one before it, or ends a run of its own
        for rows in (np.array([v, odd, odd]), np.array([v, v, odd])):
            with pytest.raises(ValueError, match="finite"):
                oracle(rows, xi, bands)
            with pytest.raises(ValueError, match="finite"):
                oracle(v, rows, bands)


def test_oracle_slopes_and_masses_beyond_the_float_range():
    # an atom whose slope or weight overflows lies in no band, in both call
    # forms; finite weights that sum past the float range raise
    c = ConicVarifold(3, np.array([[1e-310, 0.6, 0.8], [0.6, 0.0, 0.8]]), np.array([1.0, 2.0]))
    v, xi = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    bands = np.array([[-1.0, 1.0], [-np.inf, np.inf]])
    want = 2.0 * 0.6
    assert BandOracle(c)(v, xi, bands).tolist() == [want, want]
    assert BandOracle(c)(np.tile(v, (2, 1)), xi, bands).tolist() == [want, want]
    e3 = np.array([0.0, 0.0, 1.0])
    # weight 1.5e308 * (0.6^2 + 0.8^2) / 0.6 = 2.5e308
    heavy = ConicVarifold(3, c.atom_directions[1:], np.array([1.5e308]))
    assert BandOracle(heavy)(v, e3, bands).tolist() == [0.0, 0.0]
    # weights 1e308 / 0.6 and 1e308 * 0.36 / 0.6, which sum to 2.3e308
    pair = ConicVarifold(3, np.array([[0.6, 0.0, 0.8], [0.6, 0.8, 0.0]]), np.array([1e308, 1e308]))
    with pytest.raises(OverflowError):
        BandOracle(pair)(v, e3, bands)


# ---------------------------------------------------------------------------
# one stacked slope pass per call, against the one-pair oracle
# ---------------------------------------------------------------------------

# on the equator of e3 and -e3; in front of e1 by 1e-310, or behind it, so
# that under e1 the slope overflows; and on the equator of e2
_SPECIAL_ATOMS = ((0.6, 0.8, 0.0), (1e-310, 0.6, 0.8), (-1e-310, 0.8, 0.6), (0.6, 0.0, 0.8))


@st.composite
def _oracle_sessions(draw):
    """(cone, calls): special and random atoms, some heavy enough that their
    weights, or the sums of their weights, overflow; each call is a list of
    runs (default R^3 pair, rows) and one band per row, some infinite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dirs = [d for d in _SPECIAL_ATOMS if draw(st.booleans())]
    dirs += [tuple(unit(rng.normal(size=3))) for _ in range(draw(st.integers(not dirs, 10)))]
    masses = [draw(st.sampled_from([0.5, 1.7, 1e307, 1e308])) for _ in dirs]
    runs = st.lists(st.tuples(st.integers(0, 27), st.integers(1, 3)), min_size=1, max_size=6)
    calls = []
    for call in draw(st.lists(runs, min_size=1, max_size=4)):
        m = sum(count for _, count in call)
        s = np.where(rng.random(m) < 0.1, -np.inf, rng.uniform(-5.0, 5.0, m))
        t = np.where(rng.random(m) < 0.1, np.inf, s + rng.uniform(0.0, 10.0, m))
        calls.append((call, np.column_stack((s, t))))
    return ConicVarifold(3, np.array(dirs), np.array(masses)), calls


@settings(max_examples=150, deadline=None)
@given(_oracle_sessions())
def test_stacked_slope_pass_is_the_one_pair_oracle_bitwise(session):
    # calls mix cached and new pairs; a call whose new pairs' weights sum
    # past the float range raises, and caches nothing that differs
    cone, calls = session
    pairs = _default_pairs(3)
    dirs, masses = cone.mass_rows()
    oracle = BandOracle(cone)
    for call, bands in calls:
        rows = [pairs[p] for p, count in call for _ in range(count)]
        vs, xis = np.array([v for v, _ in rows]), np.array([xi for _, xi in rows])
        try:
            want = []
            for (v, xi), (s, t) in zip(rows, bands):
                lam, weight = ref.pair_slopes(dirs, masses, v, xi)
                want.append(np.sum(np.where((lam >= s) & (lam <= t), weight, 0.0)))
        except OverflowError:
            with pytest.raises(OverflowError):
                oracle(vs, xis, bands)
            continue
        assert oracle(vs, xis, bands).tobytes() == np.array(want).tobytes()
    # every row of every cached table: the key is the table's vs, then its xis
    for key, (lams, weights) in oracle._tables.items():
        vs, xis = np.frombuffer(key).reshape(2, -1, 3)
        assert len(lams) == len(weights) == len(vs)
        for v, xi, lam, weight in zip(vs, xis, lams, weights):
            want_lam, want_weight = ref.pair_slopes(dirs, masses, v, xi)
            assert lam.tobytes() == want_lam.tobytes()
            assert weight.tobytes() == want_weight.tobytes()


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["v", "xi"])
def test_a_non_finite_pair_anywhere_in_the_pass_raises(where, bad, side):
    oracle = BandOracle(random_conic(np.random.default_rng(3), 3, n_atoms=4))
    pairs = _default_pairs(3)[:5]
    vs, xis = np.array([v for v, _ in pairs]), np.array([xi for _, xi in pairs])
    bands = np.tile([-1.0, 1.0], (5, 1))
    oracle(vs[:2], xis[:2], bands[:2])  # two pairs cached, three new
    (vs if side == "v" else xis)[where, 1] = bad
    with pytest.raises(ValueError, match="v and xi must be finite"):
        oracle(vs, xis, bands)


@pytest.mark.parametrize("where", [0, 2, 4])
def test_summed_overflow_anywhere_in_the_pass_raises(where):
    # under (e1, e3) the weights 1e308 / 0.6 and 1e308 * 0.36 / 0.6 sum past
    # the float range; under the other pairs each weight is at most 1.25e308
    e1, e2, e3 = np.eye(3)
    cone = ConicVarifold(3, np.array([[0.6, 0.0, 0.8], [0.6, 0.8, 0.0]]), np.array([1e308, 1e308]))
    finite = [(e3, e1), (e2, e1), (-e1, e2), (e3, e2)]
    rows = finite[:where] + [(e1, e3)] + finite[where:]
    bands = np.tile([-np.inf, np.inf], (5, 1))
    oracle = BandOracle(cone)
    with pytest.raises(OverflowError):
        oracle(np.array([v for v, _ in rows]), np.array([xi for _, xi in rows]), bands)
    got = oracle(np.array([v for v, _ in finite]), np.array([xi for _, xi in finite]), bands[:4])
    dirs, masses = cone.mass_rows()
    assert got.tolist() == [ref.pair_slopes(dirs, masses, v, xi)[1].sum() for v, xi in finite]


# ---------------------------------------------------------------------------
# located marginals, and reconstruct_conic against the reference pipeline
# ---------------------------------------------------------------------------

def test_located_marginals_are_the_public_measures_bitwise():
    from varifold_lab.tomography import _locate_atoms

    rng = np.random.default_rng(606)
    cases = [(3, cone) for cone in _criterion_7_cones()[:20]]
    cases += [(n, random_conic(rng, n, n_atoms=int(rng.integers(1, 6))))
              for n in (2, 4) for _ in range(5)]
    for n, cone in cases:
        pairs = _default_pairs(n)
        for (_, xi), got in zip(pairs, _locate_atoms(BandOracle(cone), pairs, 2.0 / 1e-6),
                                strict=True):
            want = LineMeasure(xi, got.coordinates, got.masses)
            for name in ("direction", "coordinates", "masses"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable


def test_an_oracle_measuring_inf_is_rejected():
    # one atom at slope 0.5: mass 1 in a wide band, inf in a narrow one, so
    # the bisection stays small and the re-measured band reads inf
    def delta_at_half(v, xi, bands):
        inside = (bands[:, 0] <= 0.5) & (0.5 <= bands[:, 1])
        return np.where(inside, np.where(bands[:, 1] - bands[:, 0] < 1e-6, np.inf, 1.0), 0.0)

    v, xi = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="atom coordinates and masses must be finite"):
        locate_marginal_atoms(delta_at_half, v, xi, 10.0)
    with pytest.raises(ValueError, match="atom coordinates and masses must be finite"):
        reconstruct_conic(delta_at_half, 3)


def test_reconstruct_conic_is_the_reference_pipeline_bytewise():
    # the reference locates one level per call and merges atom by atom;
    # normals are normalised as reconstruct_conic normalises them
    from varifold_lab.core import unit as core_unit

    rng = np.random.default_rng(8080)
    cases = [(3, cone) for cone in _criterion_7_cones()]
    cases += [(n, random_conic(rng, n, n_atoms=int(rng.integers(1, 7))))
              for n in (2, 4) for _ in range(20)]
    outcomes = set()
    for i, (n, cone) in enumerate(cases):
        charts = [(v, marginal_direction_battery(hyperplane_of(v)))
                  for v in map(core_unit, default_normals(n))]
        pairs = [(v, xi) for v, battery in charts for xi in battery]
        located = iter(ref.locate_atoms(BandOracle(cone), pairs, 2.0 / 1e-6))
        want = _outcome(ref.reconstruct_from_marginals, n,
                        [(v, [next(located) for _ in battery]) for v, battery in charts])
        assert _outcome(reconstruct_conic, BandOracle(cone), n) == want, i
        outcomes.add(type(want[0]).__name__)
    assert "bytes" in outcomes


# ---------------------------------------------------------------------------
# the NNLS kernel: scipy's compiled code, loaded without scipy.optimize
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_kernel():
    """The tomography module with its cached NNLS kernel cleared before and
    after the test."""
    from varifold_lab import tomography

    tomography._nnls_kernel.cache_clear()
    yield tomography
    tomography._nnls_kernel.cache_clear()


def _plane_outcome(solve, plane, marginals):
    """(points, masses) bytes of a plane solve, or the error it raised."""
    try:
        gamma = solve(plane, marginals)
    except AmbiguousReconstruction as exc:
        return type(exc).__name__, str(exc)
    return gamma.points.tobytes(), gamma.masses.tobytes()


def _golden_charts():
    """The located charts of the `reconstruct` golden's input cone."""
    from varifold_lab.tomography import _locate_atoms

    cone = load_varifold(ROOT / "perfbench/golden/inputs/cone.json").require_conic()
    located = _locate_atoms(BandOracle(cone), _default_pairs(3), 2.0 / 1e-6)
    normals = default_normals(3)
    per_chart = len(located) // len(normals)
    return cone, [(v, located[i * per_chart:(i + 1) * per_chart])
                  for i, v in enumerate(normals)]


def _golden_outcomes(tmp_path):
    """Every plane solve of the golden input, and its full reconstruction as
    the bytes of the file that `reconstruct --out` writes."""
    cone, charts = _golden_charts()
    planes = [_plane_outcome(reconstruct_plane_measure, hyperplane_of(v), ms)
              for v, ms in charts]
    save_varifold(tmp_path / "recon.json", conic=reconstruct_conic(BandOracle(cone), 3))
    return planes, (tmp_path / "recon.json").read_bytes()


def _assert_plane_solves_match_the_reference():
    """The golden input's plane solves have the bits of the reference solve,
    which calls scipy.optimize.nnls."""
    for v, ms in _golden_charts()[1]:
        plane = hyperplane_of(v)
        assert (_plane_outcome(reconstruct_plane_measure, plane, ms)
                == _plane_outcome(ref.reconstruct_plane_measure, plane, ms))


def test_direct_kernel_reproduces_the_golden_and_the_references(fresh_kernel, tmp_path):
    import scipy.optimize

    if not hasattr(getattr(scipy.optimize, "_slsqplib", None), "nnls"):
        pytest.skip("this scipy ships no compiled _slsqplib.nnls; the fallback runs")
    assert fresh_kernel._nnls_kernel() is not None
    _assert_plane_solves_match_the_reference()
    golden = (ROOT / "perfbench/golden/reconstruct/recon.json").read_bytes()
    assert _golden_outcomes(tmp_path)[1] == golden


@pytest.mark.parametrize("failure", ["no file", "no nnls", "loader raises"])
def test_fallback_gives_the_direct_bits(fresh_kernel, monkeypatch, tmp_path, failure):
    import importlib.machinery
    import types

    direct = _golden_outcomes(tmp_path)
    fresh_kernel._nnls_kernel.cache_clear()
    if failure == "no file":
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    elif failure == "no nnls":
        monkeypatch.setattr(fresh_kernel, "_load_slsqplib",
                            lambda: types.ModuleType("_slsqplib"))
    else:
        def refuse(self, module):
            raise ImportError("cannot load")

        monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", refuse)
    assert fresh_kernel._nnls_kernel() is None
    assert _golden_outcomes(tmp_path) == direct
    _assert_plane_solves_match_the_reference()


@pytest.mark.parametrize("path", ["direct", "fallback"])
def test_nnls_non_convergence_is_ambiguous(fresh_kernel, monkeypatch, path):
    import scipy.optimize

    if path == "direct":
        monkeypatch.setattr(fresh_kernel, "_nnls_kernel",
                            lambda: lambda A, b, maxiter: (np.zeros(A.shape[1]), 0.0, 3))
    else:
        def stalled(A, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(fresh_kernel, "_nnls_kernel", lambda: None)
        monkeypatch.setattr(scipy.optimize, "nnls", stalled)
    gamma = PlaneMeasure(hyperplane_of([0.0, 0.0, 1.0]), np.array([[0.2, 0.1, 0.0]]),
                         np.array([1.0]))
    marginals = [LineMeasure(xi, gamma.points @ xi, gamma.masses)
                 for xi in marginal_direction_battery(gamma.plane)]
    with pytest.raises(AmbiguousReconstruction, match="did not converge"):
        reconstruct_plane_measure(gamma.plane, marginals)


def test_plane_solve_rejects_a_marginal_direction_off_the_plane():
    # every atom sits at coordinate 0, so each candidate is the origin, which
    # lies in the plane whatever the directions: only the direction check fails
    plane = hyperplane_of([0.0, 0.0, 1.0])
    battery = marginal_direction_battery(plane)
    off = unit(battery[-1] + np.array([0.0, 0.0, 1e-3]))
    marginals = [LineMeasure(xi, np.zeros(1), np.ones(1)) for xi in battery[:-1] + [off]]
    assert reconstruct_plane_measure(plane, marginals[:-1]).n_atoms == 1
    with pytest.raises(ValueError, match="marginal directions must lie in the plane"):
        reconstruct_plane_measure(plane, marginals)


def test_plane_solve_that_overflows_raises():
    # three marginals, none held out, of an atom of mass 1.5e308 and one of
    # mass 1: the solve overflows to inf, and the residual check reads NaN
    plane = hyperplane_of([0.0, 0.0, 1.0])
    points = np.array([[0.1, 0.2, 0.0], [-0.3, 0.5, 0.0]])
    marginals = [LineMeasure(xi, points @ xi, [1.5e308, 1.0])
                 for xi in marginal_direction_battery(plane)[:3]]
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="must be finite"):
        reconstruct_plane_measure(plane, marginals)


@st.composite
def _nnls_problems(draw):
    """(A, b) up to 30 x 20: Gaussian, 0/1 incidence with a consistent b,
    rank-deficient, nonnegative A with an all-negative b (solution 0), or a
    single column."""
    kind = draw(st.sampled_from(["gaussian", "incidence", "rank-deficient",
                                 "negative b", "single column"]))
    m = draw(st.integers(1, 30))
    n = 1 if kind == "single column" else draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    if kind == "incidence":
        A = (rng.random((m, n)) < 0.4).astype(float)
        b = A @ rng.uniform(0.0, 2.0, size=n)
    elif kind == "rank-deficient":
        r = draw(st.integers(1, max(1, min(m, n) - 1)))
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        if n > 1:
            A[:, -1] = A[:, 0]
    elif kind == "negative b":
        A = np.abs(A)
        b = -rng.uniform(0.1, 1.0, size=m)
    return kind, A, b


@settings(max_examples=200, deadline=None)
@given(_nnls_problems())
def test_direct_kernel_is_scipy_nnls_bitwise(problem):
    import scipy.optimize
    from varifold_lab.tomography import _nnls

    def outcome(solve):
        try:
            x, rnorm = solve(A, b)
        except (RuntimeError, AmbiguousReconstruction):
            return "no convergence"
        return x.tobytes(), float(rnorm).hex()

    kind, A, b = problem
    got = outcome(_nnls)
    assert got == outcome(scipy.optimize.nnls)
    if kind == "negative b":
        assert not np.frombuffer(got[0]).any()


_E3_PLANE = hyperplane_of([0.0, 0.0, 1.0])


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PlaneMeasure(_E3_PLANE, [[1.0, 0.0]], [1.0]),
                 "points must have shape (k, ambient_dim)", id="plane-points"),
    pytest.param(lambda: PlaneMeasure(_E3_PLANE, [[1.0, 0.0, 0.0]], [1.0, 2.0]),
                 "masses must match points", id="plane-masses"),
    pytest.param(lambda: PlaneMeasure(_E3_PLANE, [[1.0, 0.0, 0.0]], [0.0]),
                 "atom masses must be positive", id="plane-mass-sign"),
    pytest.param(lambda: LineMeasure([1.0, 0.0], [0.0], [-1.0]),
                 "atom masses must be nonnegative", id="line-mass-sign"),
    pytest.param(lambda: LineMeasure([1.0, 0.0], [0.0, 1.0], [1.0]),
                 "coordinates and masses must be matching vectors", id="line-shapes"),
])
def test_measure_checks_name_what_is_wrong(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
