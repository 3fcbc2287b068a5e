import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varifold_lab import (
    DegenerateGeometryError,
    DiscreteVarifold,
    RayPiece,
    SegmentPiece,
    cut_and_paste,
    dilate,
    find_good_radius,
    is_stationary,
    mapping_projection,
    mass,
)
from varifold_lab.core import SLIVER_TOL
from varifold_lab.surgery import RADIUS_CANDIDATES
from varifold_lab.fixtures import (
    full_line,
    random_balanced_star,
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


def test_find_good_radius_is_clean_at_small_scales_off_a_vertex():
    # tangency scales with the ball: on a 1e-5 sphere about [0.3, 0] the arm
    # through it has discriminant r^2 = 1e-10, far above its rounding
    assert find_good_radius(y_junction(2), [0.3, 0.0], 1e-5, 2e-5) == 1e-5


def test_find_good_radius_raises_when_every_candidate_is_degenerate():
    v = DiscreteVarifold(2, (SegmentPiece([0, 0], [1, 0], 1.0),))
    with pytest.raises(DegenerateGeometryError,
                       match=f"no clean cutting radius among {RADIUS_CANDIDATES} candidates"):
        find_good_radius(v, [0, 0], 1.0, 1.0)


def _at_vertex(kind, seed, n):
    """A balanced star or a stationary network in R^n, moved by
    dilate(v, vertex, 1.0) so that one of its vertices sits at the origin."""
    rng = np.random.default_rng(seed)
    if kind == "star":
        vertex = rng.uniform(-1.0, 1.0, n)
        arms = random_balanced_star(rng, n, int(rng.integers(3, 6)))
        v = DiscreteVarifold(n, (), tuple(RayPiece(vertex, d, w) for d, w in arms))
    else:
        v = random_stationary_network(rng, n, n_vertices=int(rng.integers(1, 6)))
        ends = np.concatenate((v.seg_a, v.seg_b, v.ray_o))
        vertex = ends[rng.integers(len(ends))]
    return dilate(v, vertex, 1.0)


@st.composite
def _vertex_cuts(draw):
    """(v, r, star): v cut at the origin with radius r.  Stars and networks
    in R^2 to R^4 have a vertex at the origin and r log-uniform in
    [1e-7, 1e3]; star is True when every piece meets the centre.
    Near-tangent horizontal segments, delta inside or outside the sphere,
    are cut at r in {300, 1e3, 1e6}."""
    kind = draw(st.sampled_from(["network", "star", "segment"]))
    if kind == "segment":
        r = draw(st.sampled_from([300.0, 1e3, 1e6]))
        delta = r * draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-17.0, -9.0))
        left, right = (r * 10.0 ** draw(st.floats(-3.0, 0.3)) for _ in range(2))
        return DiscreteVarifold(2, (SegmentPiece([-left, r - delta], [right, r - delta], 1.0),)), r, False
    v = _at_vertex(kind, draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4)))
    return v, 10.0 ** draw(st.floats(-7.0, 3.0)), kind == "star"


_NEAR_TANGENT = DiscreteVarifold(
    2, (SegmentPiece([-2000.0, 1e3 - 8.2e-12], [1.0, 1e3 - 8.2e-12], 1.0),))


@settings(max_examples=200, deadline=None)
@given(cut=_vertex_cuts())
@example(cut=(y_junction(3), 1e-5, True))
@example(cut=(_NEAR_TANGENT, 1e3, False))
# the far end of a 0.6 segment: its clipped direction rounds by about 1e-9
@example(cut=(_at_vertex("network", 3396991274, 4), 1.1405830131124265e-07, False))
def test_cut_and_paste_is_stationary_at_every_scale(cut):
    # one chord rule decides the crossings and the inner pieces, so a pasted
    # ray starts where an inner piece ends, at every scale
    v, r, star = cut
    try:
        result = cut_and_paste(v, np.zeros(v.ambient_dim), r)
    except DegenerateGeometryError:
        assert not star  # a piece through the centre crosses the sphere at r
        return
    inner = result.inner
    # a clipped end base + t*u is rounded to about eps times its coordinates,
    # which turns an inner piece's direction by that over its length: about
    # eps * |base| / r at the far end of a segment cut near it
    reach = np.abs(np.concatenate((v.seg_a, v.ray_o, inner.seg_a, inner.seg_b))).max(initial=0.0)
    weight = float(v.seg_w.sum() + v.ray_w.sum())
    rounding = 16.0 * np.finfo(float).eps * reach * weight / inner.seg_len.min(initial=math.inf)
    ok, worst = is_stationary(result.combined, 1e-9 + rounding)
    assert ok, (worst, rounding)
    ends = {x.tobytes() for x in np.concatenate((inner.seg_a, inner.seg_b))}
    loose = [ray for ray in result.pasted_rays if ray.origin.tobytes() not in ends]
    # restrict drops an inside of at most SLIVER_TOL: its two crossings pair up
    for ray in loose:
        scale = 4.0 * np.finfo(float).eps * float(np.abs(ray.origin).max())
        assert any(
            other.direction.tobytes() == (-ray.direction).tobytes()
            and other.weight == ray.weight
            and float(np.linalg.norm(other.origin - ray.origin)) <= SLIVER_TOL + scale
            for other in loose)
