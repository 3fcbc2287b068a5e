import math

import numpy as np
import pytest

from varifold_lab import (
    DegenerateGeometryError,
    DiscreteVarifold,
    SegmentPiece,
    cut_and_paste,
    dilate,
    find_good_radius,
    is_stationary,
    mapping_projection,
    mass,
)
from varifold_lab.surgery import RADIUS_CANDIDATES
from varifold_lab.fixtures import (
    full_line,
    random_stationary_network,
    random_subspace,
    y_junction,
)


def test_line_surgery_reproduces_the_line():
    v = full_line([0.0, 0.0], [1.0, 0.0])
    result = cut_and_paste(v, [0, 0], 1.0)
    assert len(result.pasted_rays) == 2
    ok, worst = is_stationary(result.combined, 1e-12)
    assert ok, worst
    for center, radius in [((0, 0), 0.5), ((0.7, 0.1), 1.4), ((3, 0), 2.0)]:
        assert mass(result.combined, center, radius) == pytest.approx(
            mass(v, center, radius), abs=1e-12
        )


def test_y_junction_surgery_extends_arms():
    v = y_junction()
    result = cut_and_paste(v, [0, 0], 0.8)
    assert len(result.pasted_rays) == 3
    assert is_stationary(result.combined, 1e-12)[0]
    for r in result.pasted_rays:
        # arms are radial: pasted directions continue them exactly
        assert float(np.dot(r.direction, r.origin / np.linalg.norm(r.origin))) == (
            pytest.approx(1.0, abs=1e-12)
        )


def test_chord_surgery_junctions_are_straight():
    d = 0.35
    v = DiscreteVarifold(2, (SegmentPiece([-7, d], [7, d], 1.4),), ())
    result = cut_and_paste(v, [0, 0], 1.0)
    assert len(result.pasted_rays) == 2
    ok, worst = is_stationary(result.combined, 1e-12)
    assert ok, worst
    for ray in result.pasted_rays:
        assert abs(float(np.linalg.norm(ray.origin)) - 1.0) <= 1e-9
        assert abs(ray.direction[1]) <= 1e-12  # continues the chord direction
        assert ray.weight == pytest.approx(1.4)


def test_surgery_invariants_random_networks():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 15:
        n = int(rng.integers(2, 5))
        v = random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 4)))
        y = rng.uniform(-0.3, 0.3, n)
        try:
            r = find_good_radius(v, y, 0.9, 1.8)
        except DegenerateGeometryError:
            continue
        result = cut_and_paste(v, y, r)
        checked += 1
        # stationarity of the output
        ok, worst = is_stationary(result.combined, 1e-10)
        assert ok, worst
        # outward rays
        for ray in result.pasted_rays:
            radial = (ray.origin - y) / np.linalg.norm(ray.origin - y)
            assert float(np.dot(ray.direction, radial)) >= -1e-12
        # pasted rays never re-enter the ball
        for ray in result.pasted_rays:
            assert mass(
                DiscreteVarifold(n, (), (ray,)), y, r * (1 - 1e-12)
            ) == pytest.approx(0.0, abs=1e-9)
        # dilations agree at the center below scale r
        R = 1.0
        for lam in (r / (2 * R), r / (4 * R), r / (8 * R)):
            dv = dilate(v, y, lam)
            dw = dilate(result.combined, y, lam)
            for _ in range(10):
                center = rng.uniform(-R, R, n) * 0.6
                radius = float(rng.uniform(0.1, 0.4) * R)
                assert mass(dw, center, radius) == pytest.approx(
                    mass(dv, center, radius), abs=1e-12
                )
        # projections of the combined varifold stay finite on test balls
        for _ in range(20):
            p = random_subspace(rng, n, int(rng.integers(1, n)))
            image = mapping_projection(result.combined, p)
            assert math.isfinite(mass(image, np.zeros(n), 2.0))


def test_degeneracy_propagates():
    v = DiscreteVarifold(2, (SegmentPiece([-2, 1], [2, 1], 1.0),), ())
    with pytest.raises(DegenerateGeometryError):
        cut_and_paste(v, [0, 0], 1.0)


def test_find_good_radius_skips_degenerate():
    # unit circle tangency at r=1: the scan must return some other radius
    v = DiscreteVarifold(2, (SegmentPiece([-2, 1], [2, 1], 1.0),), ())
    r = find_good_radius(v, [0, 0], 0.5, 2.0)
    assert abs(r - 1.0) > 1e-9
    atoms_needed = cut_and_paste(v, [0, 0], r)
    assert is_stationary(atoms_needed.combined, 1e-10)[0]


def test_find_good_radius_skips_a_degenerate_candidate():
    # the first candidate, r_lo = 1, puts the segment's far end on the sphere
    v = DiscreteVarifold(2, (SegmentPiece([0, 0], [1, 0], 1.0),))
    r = find_good_radius(v, [0, 0], 1.0, 2.0)
    assert r == float(np.geomspace(1.0, 2.0, RADIUS_CANDIDATES)[1])
    assert len(cut_and_paste(v, [0, 0], r).pasted_rays) == 0


def test_find_good_radius_raises_when_every_candidate_is_degenerate():
    v = DiscreteVarifold(2, (SegmentPiece([0, 0], [1, 0], 1.0),))
    with pytest.raises(DegenerateGeometryError,
                       match=f"no clean cutting radius among {RADIUS_CANDIDATES} candidates"):
        find_good_radius(v, [0, 0], 1.0, 1.0)
