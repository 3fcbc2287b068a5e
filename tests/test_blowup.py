import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varifold_lab import (
    DiscreteVarifold,
    PreconditionViolated,
    SegmentPiece,
    Subspace,
    ZeroDensityError,
    conic_atoms,
    conic_to_discrete,
    cut_and_paste,
    default_battery,
    dense_lines_fixture,
    density,
    density_bound_check,
    dilate,
    is_stationary,
    mass,
    projection_growth_table,
    radial_projection_cap_mass,
    tangent_estimate,
    weak_star_distance,
    weighted_projection,
    weighted_projection_conic,
)
from varifold_lab import blowup, fixtures
from varifold_lab.blowup import (
    _PLATEAU_SLOPE,
    BatteryFunction,
    _clip,
    _contributions,
    _piece_samples,
)
from varifold_lab.core import (
    VERTEX_TOL,
    DegenerateGeometryError,
    RayPiece,
    _piece_rows,
    _split,
    as_vector,
    incident_rays,
    split_at_point,
)
from varifold_lab.core import unit as core_unit
from varifold_lab.fixtures import full_line, random_subspace, y_junction
from varifold_lab.variation import _plateau, _plateau_prime

from piece_reference import ball_interval, piece_frame


def unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# battery pairings
# ---------------------------------------------------------------------------

def test_battery_invariants():
    rng = np.random.default_rng(3)
    battery = default_battery(3)
    battery.validate(rng)


@pytest.mark.parametrize("label, value, message", [
    # 1 everywhere: not supported in the ball
    ("constant", lambda points, s: np.ones(len(points)), "does not vanish outside the ball"),
    # the cutoff constant times 10: Lipschitz constant 40 on the unit ball
    ("steep", lambda points, s: 10.0 * _plateau(np.linalg.norm(points, axis=1)),
     "exceeds Lipschitz constant 1"),
], ids=["unsupported", "steep"])
def test_battery_validate_rejects_a_function_outside_the_test_class(label, value, message):
    battery = blowup.TestBattery(2, 1.0, (BatteryFunction(label, value),))
    with pytest.raises(ValueError, match=f"^{label} {message}$"):
        battery.validate(np.random.default_rng(3))


def _cutoff_constant(radius):
    """A smoothly cut constant: 1 on the half-radius ball, 0 outside."""
    return BatteryFunction(
        "cutoff-constant", lambda points, s: _plateau(np.linalg.norm(points, axis=1) / radius)
    )


def _one_function_battery(n, radius, f):
    return blowup.TestBattery(n, radius, (f,))


def _pair(v, f, radius):
    """|pairing of f with v|: the distance to the empty varifold under the
    one-function battery."""
    n = v.ambient_dim
    return weak_star_distance(v, DiscreteVarifold(n), _one_function_battery(n, radius, f))


def test_plateau_slope_is_the_sampled_maximum():
    slope = float(np.max(np.abs(_plateau_prime(np.linspace(-1.0, 1.0, 20_001)))))
    assert slope == _PLATEAU_SLOPE


def test_pair_with_cutoff_constant_measures_mass():
    # pieces inside the half-radius plateau pair to exactly their mass
    v = DiscreteVarifold(2, (SegmentPiece([-0.3, 0.1], [0.4, 0.1], 1.3),), ())
    f = _cutoff_constant(2.0)
    assert _pair(v, f, 2.0) == pytest.approx(mass(v, [0, 0], 2.0), abs=1e-12)


def test_pair_with_direction_moment():
    # f(x,s) = <s, e1>^2 on a plateau covering the segment
    alpha = 0.6
    seg = SegmentPiece([0, 0], [math.cos(alpha), math.sin(alpha)], 1.0)
    v = DiscreteVarifold(2, (seg,), ())

    def value(points, s):
        return _plateau(np.linalg.norm(points, axis=1) / 4.0) * float(s[0]) ** 2

    f = BatteryFunction("moment", value)
    assert _pair(v, f, 4.0) == pytest.approx(math.cos(alpha) ** 2, abs=1e-12)


def test_pair_with_empty_is_zero():
    v = DiscreteVarifold(2)
    assert _pair(v, _cutoff_constant(1.0), 1.0) == 0.0


def test_weak_star_distance_needs_one_ambient_dimension():
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        weak_star_distance(y_junction(), DiscreteVarifold(3), default_battery(2))


def test_weak_star_distance_axioms():
    battery = default_battery(2)
    line = full_line([0.0, 0.0], [1.0, 0.0])
    heavy = full_line([0.0, 0.0], [1.0, 0.0], weight=2.0)
    other = y_junction()
    assert weak_star_distance(line, line, battery) == 0.0
    d1 = weak_star_distance(line, heavy, battery)
    d2 = weak_star_distance(heavy, line, battery)
    assert d1 == d2 > 0.0
    d3 = weak_star_distance(line, other, battery)
    assert d3 <= weak_star_distance(line, heavy, battery) + weak_star_distance(
        heavy, other, battery
    ) + 1e-15


def test_weak_star_separates_masses():
    # the smoothly cut constant sees at least the mass gap on the plateau
    battery = default_battery(2)
    line = full_line([0.0, 0.0], [1.0, 0.0])
    heavy = full_line([0.0, 0.0], [1.0, 0.0], weight=2.0)
    f = _cutoff_constant(battery.radius)
    gap = weak_star_distance(heavy, line, _one_function_battery(2, battery.radius, f))
    assert gap >= mass(line, [0, 0], battery.radius / 2) - 1e-12


def test_cone_dilates_pair_identically():
    c = conic_atoms(2, [([1.0, 0.0], 1.0), ([-0.5, math.sqrt(3) / 2], 2.0)])
    v = conic_to_discrete(c)
    battery = default_battery(2)
    for lam in (0.5, 0.25, 0.125):
        assert weak_star_distance(dilate(v, [0, 0], lam), v, battery) == 0.0


# ---------------------------------------------------------------------------
# factored battery against the per-function reference
# ---------------------------------------------------------------------------

def _reference_battery(ambient_dim, radius=1.0, n_scales=8, n_directions=8, seed=7):
    """The default battery as 64 independent closures (the unfactored form)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    axes = [core_unit(rng.normal(size=ambient_dim)) for _ in range(n_directions)]
    fns = []
    for j in range(n_scales):
        rj = radius * (j + 1) / n_scales
        amp = 1.0 / (_PLATEAU_SLOPE / rj + 2.0)
        for k, u in enumerate(axes):
            def value(points, s, rj=rj, amp=amp, u=u):
                rad = np.linalg.norm(points, axis=1)
                d = float(np.dot(s, u)) ** 2
                return amp * _plateau(rad / rj) * np.full(points.shape[0], d)

            fns.append(BatteryFunction(f"lump{j}-axis{k}", value))
    return blowup.TestBattery(ambient_dim, radius, tuple(fns))


def _reference_piece_samples(v, radius, cells):
    """Midpoint cells piece by piece, as (points, u, lens, w) tuples (the
    per-piece loop the batched _piece_samples replaced)."""
    h = radius / cells
    out = []
    for piece in v.segments + v.rays:
        base, u, hi = piece_frame(piece)
        iv = ball_interval(base, u, np.zeros(v.ambient_dim), radius)
        if iv is None:
            continue
        lo_t = max(iv[0], 0.0)
        hi_t = min(iv[1], hi)
        if hi_t <= lo_t:
            continue
        foot = -float(np.dot(base, u))
        k_lo = math.floor((lo_t - foot) / h)
        k_hi = math.ceil((hi_t - foot) / h)
        edges = np.clip(foot + np.arange(k_lo, k_hi + 1) * h, lo_t, hi_t)
        lens = np.diff(edges)
        mids = 0.5 * (edges[:-1] + edges[1:])
        keep = lens > 0.0
        points = base + mids[keep, None] * u
        out.append((points, u, lens[keep], piece.weight))
    return out


def _reference_contributions(table, points, u, lens, w):
    """One piece's table pairings, one np.dot per function (the per-piece
    loop BatteryTable.contributions replaced)."""
    rad = np.linalg.norm(points, axis=1)
    lumps = table.amps[:, None] * _plateau(rad / table.radii[:, None])
    moments = [float(np.dot(u, axis)) ** 2 for axis in table.axes]
    return [w * float(np.dot(lens, lump * d)) for lump in lumps for d in moments]


def _reference_pair_all(samples, battery):
    """One sorted sum per function, each function evaluated per piece."""
    vals = np.empty(len(battery.functions))
    for i, f in enumerate(battery.functions):
        contribs = [
            w * float(np.dot(lens, f.value(points, u)))
            for points, u, lens, w in samples
        ]
        vals[i] = float(np.sum(np.sort(np.array(contribs)))) if contribs else 0.0
    return vals


def _reference_distance(v1, v2, battery, cells=256):
    s1 = _reference_piece_samples(v1, battery.radius, cells)
    s2 = _reference_piece_samples(v2, battery.radius, cells)
    return float(np.max(np.abs(_reference_pair_all(s1, battery)
                               - _reference_pair_all(s2, battery))))


def _reference_tangent(v, x, lambdas):
    """Cone and distances, pairing the cone again for every dilation."""
    p = as_vector(x, dim=v.ambient_dim)
    vs = split_at_point(v, p)
    cone = conic_atoms(v.ambient_dim, incident_rays(vs, p))
    cd = conic_to_discrete(cone)
    battery = _reference_battery(v.ambient_dim)
    return cone, tuple(_reference_distance(dilate(vs, p, l), cd, battery) for l in lambdas)


def _samples(v, radius, cells):
    """_piece_samples of v's pieces clipped to B(0, radius)."""
    return _piece_samples(_clip(_piece_rows(v), radius)[0], radius, cells)


def _opaque(battery):
    """The battery's functions re-wrapped as closures, without its table."""
    def wrap(f):
        return BatteryFunction(f.label, lambda points, s: f.value(points, s))

    return blowup.TestBattery(battery.ambient_dim, battery.radius,
                       tuple(wrap(f) for f in battery.functions))


def _catalogue_cases():
    rng = np.random.default_rng(9001)
    cases = []
    for n in (2, 3):
        x = rng.uniform(-1.0, 1.0, n)
        cases.append((f"line-R{n}", full_line(x, rng.normal(size=n)), x))
        cases.append((f"y-rays-R{n}", y_junction(n), np.zeros(n)))
        cases.append((f"y-segments-R{n}",
                      y_junction(n, arm_length=float(rng.uniform(0.5, 2.0))), np.zeros(n)))
        for k in (4, 12, 24, 48):
            v = dense_lines_fixture(k, seed=int(rng.integers(1 << 16)), ambient_dim=n)
            cases.append((f"dense-R{n}-k{k}", v, v.rays[2 * int(rng.integers(k))].origin))
    return cases


CATALOGUE = _catalogue_cases()
REFERENCE_LAMBDAS = tuple(2.0 ** -k for k in (0, 1, 2, 3, 4, 6, 9, 14, 21))


def test_default_battery_functions_match_reference_closures():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        battery = default_battery(n)
        ref = _reference_battery(n)
        assert [f.label for f in battery.functions] == [f.label for f in ref.functions]
        points = rng.normal(size=(50, n)) * 0.6
        s = core_unit(rng.normal(size=n))
        for f, g in zip(battery.functions, ref.functions):
            assert f.value(points, s).tobytes() == g.value(points, s).tobytes()


def test_a_table_battery_takes_its_functions_from_its_table():
    # a battery could validate one set of functions and pair with another
    table = default_battery(2).table
    battery = blowup.TestBattery(2, 1.0, table=table)
    assert [f.label for f in battery.functions] == [f.label for f in table.functions()]
    points, s = np.array([[0.1, 0.2], [0.5, -0.3]]), np.array([0.6, 0.8])
    for f, g in zip(battery.functions, table.functions()):
        assert f.value(points, s).tobytes() == g.value(points, s).tobytes()
    with pytest.raises(ValueError, match="takes its functions from the table"):
        blowup.TestBattery(2, 1.0, table.functions()[:1], table)
    assert blowup.TestBattery(2, 1.0, table.functions()[:1]).table is None


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_a_battery_radius_must_be_positive_and_finite(radius):
    # at the parent nan, inf and 0 made tangent_estimate report distances of
    # exactly 0.0, stabilized at index 0, and -1 failed inside np.repeat
    with pytest.raises(ValueError, match="^battery radius must be positive and finite$"):
        blowup.TestBattery(2, radius, table=default_battery(2).table)


@pytest.mark.parametrize("radii, amps, message", [
    ([0.5, math.nan], [0.1, 0.1], "battery radii must be positive and finite"),
    ([0.5, math.inf], [0.1, 0.1], "battery radii must be positive and finite"),
    ([0.5, 0.0], [0.1, 0.1], "battery radii must be positive and finite"),
    ([0.5, 1.0], [0.1, math.inf], "battery amplitudes must be finite"),
])
def test_a_battery_table_checks_its_radii_and_amplitudes(radii, amps, message):
    with pytest.raises(ValueError, match=message):
        blowup.BatteryTable(np.array(radii), np.array(amps), np.eye(2))


def test_default_battery_is_built_once_per_dimension_and_read_only():
    # the shared battery cannot be changed by one caller under another
    for n in (2, 3, 4):
        battery = default_battery(n)
        assert default_battery(n) is battery
        table = battery.table
        for arr in (table.radii, table.amps, table.axes):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(AttributeError):
            battery.radius = 2.0
    assert default_battery(2) is not default_battery(3)


@pytest.mark.parametrize("label,v,x", CATALOGUE, ids=[c[0] for c in CATALOGUE])
def test_tangent_distances_bitwise_equal_reference(label, v, x):
    cone, diag = tangent_estimate(v, x, REFERENCE_LAMBDAS)
    ref_cone, ref_dists = _reference_tangent(v, x, REFERENCE_LAMBDAS)
    assert cone.atom_directions.tobytes() == ref_cone.atom_directions.tobytes()
    assert cone.atom_masses.tobytes() == ref_cone.atom_masses.tobytes()
    assert np.array(diag.distances).tobytes() == np.array(ref_dists).tobytes()
    assert diag.distances[-1] == 0.0


def test_catalogue_reference_has_nonzero_distances():
    # the bitwise comparison above is only informative where distances move
    nonzero = 0
    for _, v, x in CATALOGUE:
        _, diag = tangent_estimate(v, x, REFERENCE_LAMBDAS)
        nonzero += sum(d != 0.0 for d in diag.distances)
    assert nonzero >= 20


def _count_pairings(monkeypatch):
    """A list that gets one entry per _pair_all call."""
    calls = []
    real = blowup._pair_all
    monkeypatch.setattr(blowup, "_pair_all", lambda *args: calls.append(1) or real(*args))
    return calls


def _incident_varifold(rng, n, x):
    """Segments and rays ending at x, maybe a segment through x, and random
    pieces elsewhere."""
    def arm():
        return fixtures.random_unit_vector(rng, n)

    w = lambda: float(rng.uniform(0.2, 3.0))  # noqa: E731
    segs = [SegmentPiece(x, x + rng.uniform(0.05, 3.0) * arm(), w())
            for _ in range(int(rng.integers(0, 3)))]
    rays = [RayPiece(x, arm(), w()) for _ in range(int(rng.integers(0, 3)))]
    if not segs and not rays or rng.uniform() < 0.5:
        u = arm()
        segs.append(SegmentPiece(x - rng.uniform(0.05, 2.0) * u, x + rng.uniform(0.05, 2.0) * u,
                                 w()))
    others = fixtures.random_varifold(rng, n, n_segments=int(rng.integers(0, 4)),
                                      n_rays=int(rng.integers(0, 3)), box=1.5)
    return DiscreteVarifold(n, tuple(segs), tuple(rays)) + others


def _near_x_varifold(x, *pieces):
    """Pieces given relative to x: ("seg", a, b) or ("ray", o, d), weight 1.5."""
    x = np.asarray(x, float)
    segs = [SegmentPiece(x + np.array(a), x + np.array(b), 1.5) for kind, a, b in pieces
            if kind == "seg"]
    rays = [RayPiece(x + np.array(o), core_unit(np.array(d, float)), 1.5) for kind, o, d in pieces
            if kind == "ray"]
    return DiscreteVarifold(len(x), tuple(segs), tuple(rays)), x


@st.composite
def _incident_cases(draw):
    """_incident_varifold's pieces plus ends moved by up to twice VERTEX_TOL off x."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.0, 1.0, n)
    v = _incident_varifold(rng, n, x)
    near = []
    for off, kind in draw(st.lists(st.tuples(st.floats(0.0, 2.0 * VERTEX_TOL),
                                             st.sampled_from(["a", "b", "ray"])), max_size=3)):
        e, arm = off * fixtures.random_unit_vector(rng, n), fixtures.random_unit_vector(rng, n)
        if kind == "ray":
            near.append(RayPiece(x + e, arm, 0.7))
        else:
            a, b = x + e, x + 2.0 * arm
            near.append(SegmentPiece(*((a, b) if kind == "a" else (b, a)), 0.7))
    return v + DiscreteVarifold(n, [p for p in near if isinstance(p, SegmentPiece)],
                                [p for p in near if isinstance(p, RayPiece)]), x


@settings(max_examples=60, deadline=None)
@given(case=_incident_cases())
@example(case=_near_x_varifold([0.3, -0.2], ("seg", [0.0, 0.0], [0.5e-9, 0.0]),
                               ("seg", [0.0, 0.0], [1.0, 1.0])))  # both ends at x
@example(case=_near_x_varifold([0.3, -0.2], ("seg", [1.0, 0.5], [0.3e-9, -0.2e-9])))  # b snaps
@example(case=_near_x_varifold([0.3, -0.2, 0.1], ("ray", [-1.0, 0.5, 0.0], [2.0, -1.0, 0.0]),
                               ("seg", [0.0, 0.0, 0.0], [0.0, 1.0, 0.0])))  # a split ray
@example(case=_near_x_varifold([0.3, -0.2], ("seg", [0.9e-9, 0.0], [1.0, 1.0]),
                               ("ray", [0.0, 1.2e-9], [0.0, 1.0]),
                               ("seg", [-1.0, 0.9e-9], [1.0, 0.9e-9])))  # 0.9e-9 and 1.2e-9 off
def test_split_places_the_incident_rows_of_split_at_point(case):
    # the ends at x follow from the masks on v: the rows incident_rays finds
    # on the split, bit for bit and in order
    v, x = case
    _, rows = _split(v, as_vector(x, dim=v.ambient_dim))
    ref = incident_rays(split_at_point(v, x), x)
    assert [(d.tobytes(), w) for d, w in rows] == [(d.tobytes(), w) for d, w in ref]
    assert rows


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(-3, 30), min_size=1, max_size=6, unique=True),
    others=st.lists(st.floats(1e-6, 8.0), max_size=3, unique=True),
    opaque=st.booleans(),
)
def test_tangent_skip_matches_pairing_every_dilation(n, seed, exponents, others, opaque):
    # a skipped dilation must have been one that pairs to exactly 0.0
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    v = _incident_varifold(rng, n, x)
    lambdas = sorted({2.0 ** -e for e in exponents} | set(others), reverse=True)
    battery = default_battery(n)
    cone, diag = tangent_estimate(v, x, lambdas, battery=_opaque(battery) if opaque else battery)
    ref_cone, ref_dists = _reference_tangent(v, x, lambdas)
    assert cone.atom_directions.tobytes() == ref_cone.atom_directions.tobytes()
    assert np.array(diag.distances).tobytes() == np.array(ref_dists).tobytes()


def test_rows_differing_by_a_negative_zero_pair_to_zero(monkeypatch):
    # the cone's rays start at -0.0: its clipped rows differ from every
    # dilation's only in those sign bits, so each dilation is paired, and
    # each dilation row is sampled, since none has a cone row's bytes
    def signed_zero_cone(c):
        d = conic_to_discrete(c)
        return DiscreteVarifold._from_columns(d.ambient_dim, d.seg_a, d.seg_b, d.seg_w,
                                              np.full(d.ray_o.shape, -0.0), d.ray_d, d.ray_w)

    lambdas = [2.0 ** -k for k in range(4)]
    cone, _ = tangent_estimate(y_junction(3), np.zeros(3), lambdas)
    one_group = np.zeros(cone.n_atoms, int)
    rows = [_clip(_piece_rows(f(cone)), 1.0, one_group)[0]
            for f in (conic_to_discrete, signed_zero_cone)]
    assert rows[0].tobytes() != rows[1].tobytes()
    assert np.array_equal(rows[0], rows[1])
    monkeypatch.setattr(blowup, "conic_to_discrete", signed_zero_cone)
    calls = _count_pairings(monkeypatch)
    sampled = []
    real = blowup._contributions
    monkeypatch.setattr(blowup, "_contributions",
                        lambda table, battery: sampled.append(len(table)) or real(table, battery))
    _, diag = tangent_estimate(y_junction(3), np.zeros(3), lambdas)
    assert len(calls) == 1 + len(lambdas)
    assert sampled == [3] * (1 + len(lambdas))
    assert np.array(diag.distances).tobytes() == np.zeros(len(lambdas)).tobytes()


def test_dilation_rows_with_a_cone_rows_bytes_are_not_sampled_again(monkeypatch):
    # a paired dilation's row with the bytes of a cone row takes that row's
    # contributions; only the other rows are sampled
    sampled, paired = [], []
    real_contributions, real_pair_all = blowup._contributions, blowup._pair_all
    monkeypatch.setattr(blowup, "_contributions",
                        lambda table, battery: sampled.append(table)
                        or real_contributions(table, battery))
    monkeypatch.setattr(blowup, "_pair_all",
                        lambda contribs: paired.append(len(contribs)) or real_pair_all(contribs))
    reused = 0
    for _, v, x in CATALOGUE:
        sampled.clear()
        paired.clear()
        cone, _ = tangent_estimate(v, x, REFERENCE_LAMBDAS)
        if not sampled:
            continue
        cone_rows = {row.tobytes() for row in _clip(_piece_rows(conic_to_discrete(cone)), 1.0)[0]}
        assert {row.tobytes() for row in sampled[0]} == cone_rows  # the cone, once
        assert not any(row.tobytes() in cone_rows for table in sampled[1:] for row in table)
        reused += sum(paired[1:]) - sum(len(table) for table in sampled[1:])
    assert reused > 0


@pytest.mark.parametrize("rows", [1, 100, 250])
def test_tangent_batches_of_dilations_give_the_same_bits(monkeypatch, rows):
    # 48 pieces a dilation: batches of 1 (a batch holds at least one), 2 and 5
    _, v, x = CATALOGUE[5]
    lambdas = [2.0 ** -k for k in range(12)]
    _, whole = tangent_estimate(v, x, lambdas)
    monkeypatch.setattr(blowup, "_DILATION_ROWS", rows)
    _, batched = tangent_estimate(v, x, lambdas)
    assert np.array(batched.distances).tobytes() == np.array(whole.distances).tobytes()
    assert any(d != 0.0 for d in whole.distances) and whole.distances[-1] == 0.0


def test_y_junction_of_rays_pairs_nothing(monkeypatch):
    calls = _count_pairings(monkeypatch)
    _, diag = tangent_estimate(y_junction(3), np.zeros(3), [2.0 ** -k for k in range(22)])
    assert diag.distances == (0.0,) * 22
    assert not calls


def test_catalogue_pairs_only_dilations_that_may_differ(monkeypatch):
    # at most the cone once plus every dilation with a nonzero distance
    calls = _count_pairings(monkeypatch)
    for _, v, x in CATALOGUE:
        calls.clear()
        _, diag = tangent_estimate(v, x, REFERENCE_LAMBDAS)
        assert len(calls) <= 1 + sum(d != 0.0 for d in diag.distances)


def _random_segments(rng, n, count):
    segs = []
    for _ in range(count):
        a = rng.uniform(-0.6, 0.6, n)
        segs.append(SegmentPiece(a, a + rng.normal(size=n) * 0.7, float(rng.uniform(0.2, 2.0))))
    return DiscreteVarifold(n, tuple(segs), ())


def test_random_segment_pairs_bitwise_equal_reference():
    rng = np.random.default_rng(60)
    for trial in range(24):
        n = 2 + trial % 2
        v1 = _random_segments(rng, n, int(rng.integers(1, 6)))
        v2 = _random_segments(rng, n, int(rng.integers(1, 6)))
        battery = default_battery(n)
        got = weak_star_distance(v1, v2, battery)
        assert got > 0.0
        assert got == _reference_distance(v1, v2, _reference_battery(n))
        assert got == weak_star_distance(v1, v2, _opaque(battery))


@pytest.mark.parametrize("label,v,x", CATALOGUE[::3], ids=[c[0] for c in CATALOGUE[::3]])
def test_opaque_battery_pairs_bitwise_equal_table(label, v, x):
    battery = default_battery(v.ambient_dim)
    _, fast = tangent_estimate(v, x, REFERENCE_LAMBDAS, battery=battery)
    _, generic = tangent_estimate(v, x, REFERENCE_LAMBDAS, battery=_opaque(battery))
    assert np.array(fast.distances).tobytes() == np.array(generic.distances).tobytes()
    table = _clip(_piece_rows(dilate(v, x, 0.5)), 1.0)[0]
    assert (_contributions(table, battery).tobytes()
            == _contributions(table, _opaque(battery)).tobytes())


_coord = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    raw=st.lists(st.tuples(st.lists(_coord, min_size=6, max_size=6), st.booleans(),
                           st.floats(0.1, 3.0)), min_size=1, max_size=8),
    data=st.data(),
)
def test_weak_star_distance_ignores_piece_order(n, raw, data):
    segs, rays = [], []
    for coords, is_ray, w in raw:
        a, b = np.array(coords[:n]), np.array(coords[3:3 + n])
        if np.linalg.norm(b - a) < 1e-3:
            continue
        if is_ray:
            rays.append(RayPiece(a, core_unit(b - a), w))
        else:
            segs.append(SegmentPiece(a, b, w))
    v = DiscreteVarifold(n, tuple(segs), tuple(rays))
    permuted = DiscreteVarifold(n, tuple(data.draw(st.permutations(segs))),
                                tuple(data.draw(st.permutations(rays))))
    assert weak_star_distance(v, permuted, default_battery(n)) == 0.0


def test_default_battery_evaluates_lumps_once_per_piece(monkeypatch):
    # every sampled cell is evaluated exactly once, for all 8 radii at once,
    # in at most one _plateau call per piece (not one per battery function)
    calls = []

    def counting_plateau(t, *args):
        calls.append(np.shape(t))
        return _plateau(t, *args)

    monkeypatch.setattr(blowup, "_plateau", counting_plateau)
    v1 = dense_lines_fixture(24, seed=2, ambient_dim=3)
    v1 = dilate(v1, v1.rays[0].origin, 2.0)  # 36 pieces, 7,518 cells
    v2 = y_junction(3)
    battery = default_battery(3)
    samples = _reference_piece_samples(v1, 1.0, 256) + _reference_piece_samples(v2, 1.0, 256)
    assert len(samples) > 30
    weak_star_distance(v1, v2, battery)
    assert 1 <= len(calls) <= len(samples)
    assert all(shape[0] == 8 for shape in calls)
    assert sum(shape[1] for shape in calls) == sum(len(lens) for _, _, lens, _ in samples)
    # chunks of whole pieces of about _LUMP_CHUNK cells; a piece has at most
    # 2 * 256 + 1 cells in the unit ball
    assert len(calls) > 7
    assert all(shape[1] <= blowup._LUMP_CHUNK + 2 * 256 for shape in calls)


def _sampling_cases():
    """Varifolds whose pieces meet the unit ball in every way: random
    segments and rays, a dense-lines dilation and the catalogue cones."""
    rng = np.random.default_rng(77)
    cases = [fixtures.random_varifold(rng, n, n_segments=6, n_rays=4, box=1.2)
             for n in (2, 3, 4) for _ in range(4)]
    v = dense_lines_fixture(24, seed=5, ambient_dim=3)
    cases.append(dilate(v, v.rays[4].origin, 0.125))
    cases += [conic_to_discrete(conic_atoms(v.ambient_dim, incident_rays(v, x)))
              for _, v, x in CATALOGUE[::4]]
    cases.append(DiscreteVarifold(3))
    return cases


def test_piece_samples_match_reference_bitwise():
    for v in _sampling_cases():
        for radius, cells in ((1.0, 256), (0.7, 33), (2.5, 1000)):
            ref = _reference_piece_samples(v, radius, cells)
            got = list(_samples(v, radius, cells).per_piece())
            assert len(got) == len(ref)
            for (p1, u1, l1, w1), (p2, u2, l2, w2) in zip(ref, got):
                assert p1.tobytes() == p2.tobytes()
                assert u1.tobytes() == u2.tobytes()
                assert l1.tobytes() == l2.tobytes()
                assert w1 == w2


def test_table_contributions_match_piece_loop_bitwise():
    # cells=1500 spreads a varifold's pieces over several lump chunks; each
    # piece's pairings are one stacked matmul of its own
    for v in _sampling_cases():
        table = default_battery(v.ambient_dim).table
        for cells in (256, 1500):
            samples = _samples(v, 1.0, cells)
            ref = [_reference_contributions(table, *piece)
                   for piece in _reference_piece_samples(v, 1.0, cells)]
            got = table.contributions(samples)
            assert got.shape == (len(ref), 64)
            assert got.tobytes() == np.array(ref).reshape(-1, 64).tobytes()


# ---------------------------------------------------------------------------
# tangent estimation
# ---------------------------------------------------------------------------

def test_tangent_of_y_junction_hits_zero():
    v = y_junction()
    lambdas = [2.0 ** -k for k in range(1, 7)]
    cone, diag = tangent_estimate(v, [0.0, 0.0], lambdas)
    assert cone.n_atoms == 3
    assert diag.stabilized_at == 0  # arms are exact rays at every scale
    assert all(d == 0.0 for d in diag.distances)


def test_tangent_interior_point_two_atoms():
    v = DiscreteVarifold(2, (SegmentPiece([-2.0, 1.0], [4.0, 1.0], 1.5),), ())
    x = np.array([0.25, 1.0])
    lambdas = [2.0 ** -k for k in range(0, 8)]
    cone, diag = tangent_estimate(v, x, lambdas)
    assert cone.n_atoms == 2
    assert np.allclose(np.sort(cone.atom_directions[:, 0]), [-1.0, 1.0])
    assert np.all(cone.atom_masses == 1.5)
    assert diag.stabilized_at is not None
    assert diag.distances[-1] == 0.0
    # mass law: cone ball mass equals 2 r * density
    cd = conic_to_discrete(cone)
    theta = density(v, x).value
    for r in (0.3, 1.0, 2.0):
        assert mass(cd, [0, 0], r) == pytest.approx(2 * r * theta, abs=1e-12)


def test_tangent_requires_positive_density():
    v = full_line([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ZeroDensityError):
        tangent_estimate(v, [0.0, 5.0], [0.5, 0.25])


@pytest.mark.parametrize("lambdas", [[1.0, math.nan], [math.inf, 0.5], [0.5, 0.25, -math.inf]])
def test_tangent_rejects_non_finite_factors(lambdas):
    with pytest.raises(ValueError, match="finite"):
        tangent_estimate(y_junction(), [0.0, 0.0], lambdas)


@pytest.mark.parametrize("arm,lam,error", [
    (1.5, 1e-320, OverflowError),  # coordinates leave the float range
    (1e-20, 1e308, DegenerateGeometryError),  # the arms collapse to the origin
])
def test_hostile_dilation_factors_raise_typed_errors(arm, lam, error):
    v = y_junction(2, arm_length=arm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            dilate(v, [0.0, 0.0], lam)
        with pytest.raises(error):
            tangent_estimate(v, [0.0, 0.0], sorted([1.0, lam], reverse=True))


def test_dilated_segment_length_overflow_raises():
    # both dilated endpoints fit in a float; the length between them does not
    v = DiscreteVarifold(2, (SegmentPiece([-6e307, 0.0], [6e307, 0.0], 1.0),), ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            dilate(v, [0.0, 0.0], 0.5)


def test_extreme_dilation_of_a_far_piece_misses_the_ball_quietly():
    # dilated by 1e300, the far segment's chord overflows and it misses the
    # battery ball, so the dilation is the y-junction's cone
    y = y_junction(2, arm_length=1.5)
    v = DiscreteVarifold(2, y.segments + (SegmentPiece([5.0, 5.0], [6.0, 7.0], 1.0),), y.rays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cone, diag = tangent_estimate(v, [0.0, 0.0], [1.0, 1e-300])
    assert cone.n_atoms == 3
    assert diag.distances[0] == 0.0
    assert diag.distances[1] < 1e-15


def test_tangent_on_dense_lines_fixture():
    v = dense_lines_fixture(6, seed=1)
    x = v.rays[0].origin  # on the first line, away from the others
    lambdas = [2.0 ** -k for k in range(0, 22)]
    cone, diag = tangent_estimate(v, x, lambdas)
    assert cone.n_atoms == 2  # the line through x
    assert diag.stabilized_at is not None
    assert diag.distances[-1] == 0.0


def test_tangent_agrees_after_surgery():
    v = y_junction(weights=(1.0, 1.0, 1.0))
    res = cut_and_paste(v, [0.05, 0.0], 0.7)
    lambdas = [2.0 ** -k for k in range(2, 9)]
    c1, _ = tangent_estimate(v, [0.0, 0.0], lambdas)
    c2, _ = tangent_estimate(res.combined, [0.0, 0.0], lambdas)
    o1 = np.lexsort(c1.atom_directions.T)
    o2 = np.lexsort(c2.atom_directions.T)
    assert np.allclose(c1.atom_directions[o1], c2.atom_directions[o2], atol=1e-12)
    assert np.allclose(c1.atom_masses[o1], c2.atom_masses[o2], atol=1e-12)


def test_projection_tangent_commutation():
    rng = np.random.default_rng(9)
    v = y_junction(ambient_dim=3)
    x = np.zeros(3)
    p = random_subspace(rng, 3, 2)
    lambdas = [0.5, 0.25]
    cone, _ = tangent_estimate(v, x, lambdas)
    left = weighted_projection_conic(cone, p)
    pv = weighted_projection(v, p)
    right, _ = tangent_estimate(pv, p.project(x), lambdas)
    o1 = np.lexsort(left.atom_directions.T)
    o2 = np.lexsort(right.atom_directions.T)
    assert np.allclose(left.atom_directions[o1], right.atom_directions[o2], atol=1e-12)
    assert np.allclose(left.atom_masses[o1], right.atom_masses[o2], atol=1e-12)


# ---------------------------------------------------------------------------
# projected density bounds
# ---------------------------------------------------------------------------

def test_density_bounds_single_atom():
    y = unit([0.3, -0.2, 0.93])
    c = conic_atoms(3, [(y, 1.4)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    r = 1e-6
    report = density_bound_check(c, y, p, r, epsilon=1e-3)
    pole = float(np.linalg.norm(p.project(y)))
    assert report.lower == pytest.approx(pole * 1.4, abs=1e-12)
    assert report.upper == pytest.approx(pole * 1.4, abs=1e-12)


def test_density_bounds_near_tangent_chord():
    # the ray through z passes y at a distance just above r: its chord
    # misses B(y, r), while (y.z)^2 - 1 + r^2 rounds to +2.2e-17
    y = np.array([1.0, 0.0, 0.0])
    z = [0.9999999999828707, 0.0, 5.853088892663749e-06]
    r = 5.853086206137439e-06
    assert float(np.dot(z, y)) ** 2 - 1.0 + r * r > 0.0
    c = conic_atoms(3, [(y, 1.4), (z, 1.0)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    report = density_bound_check(c, y, p, r, epsilon=1e-3)
    assert report.lower == 1.4


def test_density_bounds_ignore_far_atoms():
    y = unit([0.3, -0.2, 0.93])
    c = conic_atoms(3, [(y, 1.4), ([1.0, 0.0, 0.0], 5.0)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    report = density_bound_check(c, y, p, 1e-6, epsilon=1e-3)
    pole = float(np.linalg.norm(p.project(y)))
    assert report.lower == pytest.approx(pole * 1.4, abs=1e-12)


def test_density_bounds_with_cluster():
    rng = np.random.default_rng(4)
    y = unit([0.1, 0.2, 0.97])
    eps = 1e-3
    r = 5e-6
    # a companion atom inside the ball carrying half of epsilon
    tangent = unit(np.cross(y, [1.0, 0.0, 0.0]))
    companion = unit(y + (r / 2) * tangent)
    c = conic_atoms(3, [(y, 1.0), (companion, eps / 2)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    report = density_bound_check(c, y, p, r, epsilon=eps)
    assert report.upper <= 1.5 * eps + report.pole_distance * 1.0 + 1e-12


def test_density_bound_preconditions():
    y = np.array([0.0, 0.0, 1.0])
    c = conic_atoms(3, [(y, 1.0)])
    # the pole projects to the origin of the horizontal plane: |pi_P(y)| = 0
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    with pytest.raises(PreconditionViolated):
        density_bound_check(c, y, p, 1e-6, epsilon=1e-3)


@pytest.mark.parametrize("case, error, message", [
    ("line", ValueError, "p must be a hyperplane"),
    ("no-atom", ValueError, "y must carry exactly one spherical atom"),
    ("heavy-ball", PreconditionViolated, "sphere ball mass reaches phi \\+ epsilon"),
])
def test_density_bound_check_rejects_each_broken_hypothesis(case, error, message):
    y, eps, r = unit([0.1, 0.2, 0.97]), 1e-3, 5e-6
    # a companion atom inside B(y, r) carrying twice epsilon
    companion = unit(y + (r / 2) * unit(np.cross(y, [1.0, 0.0, 0.0])))
    c = conic_atoms(3, [(y, 1.0), (companion, 2 * eps)])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    if case == "line":
        p = Subspace(3, np.array([[1.0, 0, 0]]))
    if case == "no-atom":
        y = unit([1.0, 0.0, 0.0])
    with pytest.raises(error, match=f"^{message}$"):
        density_bound_check(c, y, p, r, epsilon=eps)


def test_projected_density_counts_half_a_chord_ending_over_the_point():
    # the chord of the ray through z ends at t z with |t z - y| = r, and t z
    # projects onto pi_P(y): that end carries half of z's image weight
    y = np.array([0.6, 0.0, 0.8])
    p = Subspace(3, np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    phi = 0.9
    z = np.array([math.cos(phi), 0.0, math.sin(phi)])
    t = 0.6 / math.cos(phi)
    r = float(np.linalg.norm(t * z - y))
    c = conic_atoms(3, [(z, 2.0)])
    (dz,) = c.atom_directions
    contraction = float(np.linalg.norm(p.project(dz)))
    assert blowup._projected_localized_density(c, y, p, r) == 0.5 * 2.0 * contraction
    # a wider ball holds that point inside the chord: the full weight
    assert blowup._projected_localized_density(c, y, p, 2.0 * r) == 2.0 * contraction


# ---------------------------------------------------------------------------
# dense-lines fixture
# ---------------------------------------------------------------------------

def test_dense_lines_single_line_is_stationary():
    v = dense_lines_fixture(1, seed=0)
    assert len(v.rays) == 2
    assert is_stationary(v, 1e-12)[0]


def test_dense_lines_avoid_origin():
    v = dense_lines_fixture(12, seed=0)
    for i in range(0, len(v.rays), 2):
        base = v.rays[i].origin
        u = v.rays[i].direction
        dist = np.linalg.norm(base - float(np.dot(base, u)) * u)
        assert dist > 1e-3


def test_dense_lines_stationary_for_all_k():
    for k in (2, 5, 9):
        assert is_stationary(dense_lines_fixture(k, seed=3), 1e-12)[0]


def test_dense_lines_in_r4_are_the_same_in_every_run():
    # past R^3 the directions come from a generator seeded by hash((seed, i)),
    # which no hash seed changes for a tuple of ints
    code = ("from varifold_lab import dense_lines_fixture as f; v = f(5, seed=3, ambient_dim=4); "
            "print((v.ray_o.tobytes() + v.ray_d.tobytes()).hex())")
    v = dense_lines_fixture(5, seed=3, ambient_dim=4)
    again = dense_lines_fixture(5, seed=3, ambient_dim=4)
    assert v.ray_d.tobytes() == again.ray_d.tobytes()
    assert v.ray_o.tobytes() == again.ray_o.tobytes()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": "12345",
                              "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
                         ).stdout.strip()
    assert out == (v.ray_o.tobytes() + v.ray_d.tobytes()).hex()
    assert v.ray_d.shape == (10, 4) and is_stationary(v, 1e-12)[0]


@pytest.mark.parametrize("n", [2, 3])
def test_dense_lines_negative_seed(n):
    # math.modf of a negative number is negative; the fractional parts must
    # stay in [0, 1) so that every direction is a unit vector
    for i in range(16):
        u = blowup._quasi_direction(i, -1, n)
        assert abs(float(np.dot(u, u)) - 1.0) <= 1e-12
    v = dense_lines_fixture(6, seed=-1, ambient_dim=n)
    assert is_stationary(v, 1e-12)[0]


def test_radial_cap_mass_full_line_is_pi():
    v = full_line([2.0, 1.0, 0.5], [0.3, -0.2, 0.93])
    # whole sphere: the image of any line is a unit-weight great semicircle
    assert radial_projection_cap_mass(v, [0, 0, 1.0], math.pi) == pytest.approx(
        math.pi, abs=1e-12
    )


def _reference_cap_mass(v, cap_direction, cap_angle):
    """Radial cap mass piece by piece: the loop over piece objects that the
    row loop replaced, kept as its reference."""
    chat = core_unit(as_vector(cap_direction, dim=v.ambient_dim))
    total = 0.0
    for piece in v.segments + v.rays:
        base, u, hi = piece_frame(piece)
        t_star = -float(np.dot(base, u))
        foot = base + t_star * u
        d = float(np.linalg.norm(foot))
        if d <= 1e-12:
            continue
        what = foot / d
        theta_lo = math.atan2(0.0 - t_star, d)
        theta_hi = math.pi / 2.0 if math.isinf(hi) else math.atan2(hi - t_star, d)
        a = float(np.dot(u, chat))
        b = float(np.dot(what, chat))
        amp = math.hypot(a, b)
        cos_alpha = math.cos(cap_angle)
        if amp <= abs(cos_alpha):
            if cos_alpha > 0.0:
                continue
            total += piece.weight * (theta_hi - theta_lo)
            continue
        center = math.atan2(a, b)
        delta = math.acos(max(-1.0, min(1.0, cos_alpha / amp)))
        for wrap in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
            lo = center - delta + wrap
            hi_arc = center + delta + wrap
            total += piece.weight * max(0.0, min(hi_arc, theta_hi) - max(lo, theta_lo))
    return total


def test_radial_cap_mass_matches_piece_loop_bitwise():
    rng = np.random.default_rng(31)
    cases = _sampling_cases() + [
        # pieces through the origin have no image
        full_line([0.0, 0.0, 0.0], [0.3, -0.2, 0.93]),
        y_junction(3, arm_length=0.5),
        dense_lines_fixture(16, seed=2, ambient_dim=3),
    ]
    for v in cases:
        for angle in (0.3, 0.6, math.pi / 2.0, 2.5, math.pi):
            cap = rng.normal(size=v.ambient_dim)
            got = radial_projection_cap_mass(v, cap, angle)
            assert np.float64(got).tobytes() == np.float64(
                _reference_cap_mass(v, cap, angle)).tobytes()


def test_growth_table_is_monotone_and_grows():
    table = projection_growth_table([1, 4, 16, 64], [0.0, 0.0, 1.0], 0.6, seed=0)
    masses = [m for _, m in table]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))
    assert masses[-1] > masses[0]


@pytest.mark.parametrize("angle", [0.0, math.nan, 4.0])
def test_cap_mass_checks_the_cap_angle(angle):
    with pytest.raises(ValueError, match=re.escape("cap angle must lie in (0, pi]")):
        radial_projection_cap_mass(y_junction(), [1.0, 0.0], angle)
