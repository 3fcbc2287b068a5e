"""Acceptance suite: one test per criterion, each printing a pass line.

Tolerances and runtime budgets are pinned here; randomized batteries use
fixed seeds so every run checks the same instances.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varifold_lab import (
    BandOracle,
    BandSpec,
    Subspace,
    band_marginal,
    circle_arc_mass,
    conic_to_discrete,
    counterexample_pair,
    cut_and_paste,
    density,
    density_bound_check,
    dilate,
    dense_lines_fixture,
    first_variation,
    first_variation_quadrature,
    gnomonic_pushforward,
    halfline_multiplicity,
    hyperplane_of,
    mapping_projection,
    mass,
    reconstruct_conic,
    vertex_residuals,
    weighted_projection,
    tangent_estimate,
)
from varifold_lab.core import DiscreteVarifold, RayPiece, SegmentPiece, unit
from varifold_lab.fixtures import (
    full_line,
    random_conic,
    random_stationary_network,
    random_subspace,
    random_varifold,
    y_junction,
)
from varifold_lab.surgery import find_good_radius
from varifold_lab.variation import DegenerateGeometryError, bump_field


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
            print(f"{status} {self.name}: {elapsed:.2f}s (budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        else:
            print(f"FAIL {self.name}")
        return False


def test_criterion_01_weighted_projection_of_diagonal_line():
    with Budget("criterion 1: diagonal-line projection multiplicities", 1.0):
        line = full_line([0.0, 0.0], [1.0, 1.0])
        p = Subspace.span([1.0, 0.0])
        weighted = weighted_projection(line, p)
        for r in weighted.rays:
            assert abs(r.weight - math.sqrt(2) / 2) <= 1e-12
        mapped = mapping_projection(line, p)
        for r in mapped.rays:
            assert r.weight == 1.0


def test_criterion_02_weighted_projection_preserves_stationarity():
    with Budget("criterion 2: stationarity of weighted projections", 10.0):
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(3, 6))
            net = random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 4)))
            for _ in range(10):
                p = random_subspace(rng, n, int(rng.integers(1, n)))
                image = weighted_projection(net, p)
                res = max((a.mass for a in vertex_residuals(image)), default=0.0)
                worst = max(worst, res)
        assert worst <= 1e-10, worst


def _assert_same_pieces(v1, v2, tol):
    assert len(v1.segments) == len(v2.segments)
    assert len(v1.rays) == len(v2.rays)
    s1 = sorted(v1.segments, key=lambda s: (tuple(s.a), tuple(s.b)))
    s2 = sorted(v2.segments, key=lambda s: (tuple(s.a), tuple(s.b)))
    for a, b in zip(s1, s2):
        assert np.max(np.abs(a.a - b.a)) <= tol
        assert np.max(np.abs(a.b - b.b)) <= tol
        assert abs(a.weight - b.weight) <= tol
    r1 = sorted(v1.rays, key=lambda r: (tuple(r.origin), tuple(r.direction)))
    r2 = sorted(v2.rays, key=lambda r: (tuple(r.origin), tuple(r.direction)))
    for a, b in zip(r1, r2):
        assert np.max(np.abs(a.origin - b.origin)) <= tol
        assert np.max(np.abs(a.direction - b.direction)) <= tol
        assert abs(a.weight - b.weight) <= tol


def test_criterion_03_composition_and_dilation_commutation():
    with Budget("criterion 3: composition and dilation commutation", 5.0):
        rng = np.random.default_rng(3033)
        for _ in range(100):
            n = int(rng.integers(3, 6))
            v = random_varifold(rng, n)
            pdim = int(rng.integers(2, n))
            p = random_subspace(rng, n, pdim)
            qdim = int(rng.integers(1, pdim))
            q = Subspace(n, np.linalg.qr((rng.normal(size=(qdim, pdim)) @ p.basis).T)[0].T)
            _assert_same_pieces(
                weighted_projection(v, q),
                weighted_projection(weighted_projection(v, p), q),
                tol=1e-12,
            )
            x = rng.uniform(-1, 1, n)
            lam = float(rng.uniform(0.25, 4.0))
            _assert_same_pieces(
                weighted_projection(dilate(v, x, lam), p),
                dilate(weighted_projection(v, p), p.project(x), lam),
                tol=1e-12,
            )


def test_criterion_04_cut_and_paste_stationarization():
    with Budget("criterion 4: cut-and-paste stationarization", 10.0):
        rng = np.random.default_rng(4044)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 5))
            v = random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 4)))
            y = rng.uniform(-0.3, 0.3, n)
            try:
                r = find_good_radius(v, y, 0.8, 1.7)
            except DegenerateGeometryError:
                continue
            result = cut_and_paste(v, y, r)
            done += 1
            worst = max((a.mass for a in vertex_residuals(result.combined)), default=0.0)
            assert worst <= 1e-10, worst
            for ray in result.pasted_rays:
                radial = (ray.origin - y) / np.linalg.norm(ray.origin - y)
                assert float(np.dot(ray.direction, radial)) >= -1e-12
            R = 1.0
            battery = [
                (rng.uniform(-0.6, 0.6, n) * R, float(rng.uniform(0.1, 0.35) * R))
                for _ in range(50)
            ]
            for lam in (r / (2 * R), r / (4 * R), r / (8 * R)):
                dv, dw = dilate(v, y, lam), dilate(result.combined, y, lam)
                for center, radius in battery:
                    assert abs(
                        mass(dw, center, radius) - mass(dv, center, radius)
                    ) <= 1e-12


def test_criterion_05_projected_density_bounds():
    with Budget("criterion 5: localized projected density bounds", 10.0):
        rng = np.random.default_rng(5055)
        done = 0
        while done < 50:
            n = int(rng.integers(3, 5))
            c = random_conic(rng, n, n_atoms=int(rng.integers(1, 7)))
            i = int(rng.integers(c.n_atoms))
            y = c.atom_directions[i]
            p = random_subspace(rng, n, n - 1)
            pole = float(np.linalg.norm(p.project(y)))
            r = float(rng.uniform(0.2, 0.9)) * min(1e-5, pole / 10.0)
            if r <= 0.0 or pole <= 10.0 * r:
                continue
            epsilon = float(rng.uniform(1e-6, 1e-2))
            report = density_bound_check(c, y, p, r, epsilon)
            done += 1
            assert report.lower >= report.lower_bound - 1e-12
            assert report.upper <= report.upper_bound + 1e-12


def test_criterion_06_projection_blind_counterexample():
    with Budget("criterion 6: projection-blind density pair", 5.0):
        v1, v2 = counterexample_pair()
        worst = 0.0
        for k in range(360):
            ang = 2.0 * np.pi * k / 360.0
            u = np.array([math.cos(ang), math.sin(ang)])
            worst = max(
                worst, abs(halfline_multiplicity(v1, u) - halfline_multiplicity(v2, u))
            )
        assert worst <= 1e-10, worst
        gap = circle_arc_mass(v1, 0.0, np.pi / 3) - circle_arc_mass(v2, 0.0, np.pi / 3)
        assert abs(gap - 2.0 / 3.0) <= 1e-10


def test_criterion_07_tomography_round_trip():
    with Budget("criterion 7: tomography round trip, 100 cones", 60.0):
        rng = np.random.default_rng(7077)
        for _ in range(100):
            k = int(rng.integers(1, 11))
            cone = random_conic(rng, 3, n_atoms=k, min_separation=1e-3,
                                mass_range=(0.1, 2.0))
            recon = reconstruct_conic(BandOracle(cone), 3)
            assert recon.n_atoms == k
            for i in range(k):
                z = cone.atom_directions[i]
                dist = np.linalg.norm(recon.atom_directions - z, axis=1)
                j = int(np.argmin(dist))
                # chord length bounds angle for these separations
                assert dist[j] <= 1e-6
                assert abs(recon.atom_masses[j] - cone.atom_masses[i]) <= 1e-6


def test_criterion_08_band_marginal_identity():
    with Budget("criterion 8: band masses match gnomonic marginals", 10.0):
        rng = np.random.default_rng(8088)
        for _ in range(32):
            cone = random_conic(rng, 3, n_atoms=int(rng.integers(1, 9)))
            v = unit(rng.normal(size=3))
            plane = hyperplane_of(v)
            xi = unit(plane.project(rng.normal(size=3)))
            edges = np.sort(rng.uniform(-6.0, 6.0, size=9))
            bands = [BandSpec(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
            marg = band_marginal(cone, v, xi, bands)
            gn = gnomonic_pushforward(cone, v).measure
            coords = gn.points @ xi
            for b in bands:
                inside = (coords >= b.s) & (coords <= b.t)
                expect = float(np.sum(gn.masses[inside]))
                assert abs(marg.band_mass(b.s, b.t) - expect) <= 1e-10


def test_criterion_09_tangent_cones_on_the_fixture_catalog():
    with Budget("criterion 9: exact tangent stabilization and mass law", 5.0):
        lambdas = [2.0 ** -k for k in range(0, 22)]
        cases = []
        line = full_line([0.0, 0.0], [0.6, 0.8])
        cases.append((line, np.array([0.0, 0.0])))
        cases.append((y_junction(), np.array([0.0, 0.0])))
        dense = dense_lines_fixture(6, seed=1)
        cases.append((dense, dense.rays[0].origin))
        for v, x in cases:
            cone, diag = tangent_estimate(v, x, lambdas)
            assert diag.stabilized_at is not None
            assert diag.distances[-1] == 0.0
            theta = density(v, x).value
            cd = conic_to_discrete(cone)
            for r in (0.25, 1.0, 2.0):
                assert abs(mass(cd, np.zeros(v.ambient_dim), r) - 2.0 * r * theta) <= 1e-12


# Criteria 2 and 9 as properties on networks of the benchmark's sizes: up to
# 90 vertices (about 270 pieces) in R^2 to R^4, any seed.
_networks = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    n_vertices=st.integers(1, 90),
)


@settings(max_examples=40, deadline=None)
@given(**_networks)
def test_criterion_02_holds_on_random_networks(seed, n, n_vertices):
    rng = np.random.default_rng(seed)
    net = random_stationary_network(rng, n, n_vertices=n_vertices)
    p = random_subspace(rng, n, int(rng.integers(1, n)))
    image = weighted_projection(net, p)
    assert max((a.mass for a in vertex_residuals(image, tol=0.0)), default=0.0) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(**_networks)
def test_criterion_09_holds_at_random_piece_ends(seed, n, n_vertices):
    rng = np.random.default_rng(seed)
    v = random_stationary_network(rng, n, n_vertices=n_vertices)
    ends = [p for s in v.segments for p in (s.a, s.b)] + [r.origin for r in v.rays]
    x = ends[int(rng.integers(len(ends)))]
    cone, diag = tangent_estimate(v, x, [2.0 ** -k for k in range(0, 22)])
    assert diag.distances[-1] == 0.0
    theta = density(v, x).value
    cd = conic_to_discrete(cone)
    for r in (0.25, 1.0, 2.0):
        assert abs(mass(cd, np.zeros(n), r) - 2.0 * r * theta) <= 1e-12


def _assert_same_pieces_in_order(v1, v2, tol):
    """Piece i of v1 against piece i of v2: weighted_projection and dilate
    keep piece order, and after a projection onto a line the rays of one
    vertex tie in any sort by direction."""
    for name in ("seg_a", "seg_b", "seg_w", "ray_o", "ray_d", "ray_w"):
        a, b = getattr(v1, name), getattr(v2, name)
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b), initial=0.0) <= tol, name


# Criterion 3 as a property at the benchmark's sizes: random pieces (up to
# about 270) or stationary networks (up to 90 vertices) in R^2 to R^5, with
# q a subspace of p.
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), size=st.integers(1, 90),
       network=st.booleans())
def test_criterion_03_holds_at_workload_scale(seed, n, size, network):
    rng = np.random.default_rng(seed)
    if network:
        v = random_stationary_network(rng, n, n_vertices=size)
    else:
        v = random_varifold(rng, n, n_segments=2 * size, n_rays=size)
    p = random_subspace(rng, n, int(rng.integers(1, n)))
    qdim = int(rng.integers(1, p.dim + 1))
    q = Subspace(n, np.linalg.qr((rng.normal(size=(qdim, p.dim)) @ p.basis).T)[0].T)
    _assert_same_pieces_in_order(
        weighted_projection(v, q), weighted_projection(weighted_projection(v, p), q), 1e-12)
    x = rng.uniform(-1, 1, n)
    lam = float(rng.uniform(0.25, 4.0))
    _assert_same_pieces_in_order(
        weighted_projection(dilate(v, x, lam), p),
        dilate(weighted_projection(v, p), p.project(x), lam), 1e-12)


def test_criterion_10_first_variation_closed_form():
    with Budget("criterion 10: endpoint formula vs quadrature", 10.0):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            if rng.random() < 0.7:
                a = rng.uniform(-1, 1, n)
                b = a + rng.uniform(0.3, 1.5) * unit(rng.normal(size=n))
                v = DiscreteVarifold(n, (SegmentPiece(a, b, float(rng.uniform(0.2, 2.0))),), ())
            else:
                v = DiscreteVarifold(
                    n, (),
                    (RayPiece(rng.uniform(-1, 1, n), unit(rng.normal(size=n)),
                              float(rng.uniform(0.2, 2.0))),),
                )
            g = bump_field(rng.uniform(-1, 1, n), float(rng.uniform(0.5, 2.0)),
                           rng.normal(size=n))
            closed = first_variation(v, g)
            quad = first_variation_quadrature(v, g, nodes=10_001)
            assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed), abs(quad))
