"""Tomography of conic varifolds from weighted projections onto 2-planes.

The forward side measures band masses of the weighted projection of a cone
onto span(v, xi): an atom z with v-component z1 > 0 crosses the unit slab
along a ray of length 1/z1 and carries the squared in-plane contraction, so
a band [s, t] in the slope lambda = z2/z1 collects

    sum over atoms with s <= lambda <= t of  mass * (z1^2 + z2^2) / z1.

Dividing a band by (1 + lambda^2) at the atom's slope turns band masses into
the marginal of the gnomonic pushforward, and matching marginals across a
small direction battery pins the atoms: that is the reconstruction run here.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    ConicVarifold,
    Subspace,
    _TINY,
    _Trusted,
    _direction_distances,
    _rowdot,
    _set_fields,
    _unit_rows,
    as_vector,
    conic_atoms,
    unit,
)


# Atoms whose pole component is at or below this are near-equatorial: no
# gnomonic chart holds them, and the bisection searches slopes up to
# 2 / CHART_CUTOFF.
CHART_CUTOFF = 1e-6
# Dyadic atom location: a band stops at this width (or the local float
# resolution) or this depth, and is dropped when its mass is at or below
# LOCATE_MASS_TOL.
LOCATE_WIDTH = 1e-10
LOCATE_MAX_DEPTH = 80
LOCATE_MASS_TOL = 1e-9
# Plane solve: coordinates closer than MATCH_TOL (1 + |coordinate|) are one
# atom, residuals above RESIDUAL_TOL times the mass scale are inconsistent,
# and a solution may hold at most MAX_ATOMS atoms.  A PlaneMeasure atom p
# lies within PLANE_TOL (1 + |p|) of its plane.
MATCH_TOL = 1e-7
RESIDUAL_TOL = 1e-8
MAX_ATOMS = 32
PLANE_TOL = 1e-12
# Chart merge: an atom counts when its pole component reaches KEEP_FRACTION;
# two charts' atoms are one when their directions are MERGE_ANGLE apart or
# less and their masses agree within MERGE_MASS_TOL max(1, mass).  Marginal
# mass unexplained beyond COVERAGE_TOL max(1, marginal mass) is a gap.
KEEP_FRACTION = 0.2
MERGE_ANGLE = 1e-6
MERGE_MASS_TOL = 1e-8
COVERAGE_TOL = 1e-8


class AmbiguousReconstruction(ValueError):
    """The incidence system does not pin a unique nonnegative atom set."""


class CoverageGap(ValueError):
    """Measured marginal mass is unaccounted for by the reconstruction."""


# ---------------------------------------------------------------------------
# Measures on hyperplanes and lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PlaneMeasure(_Trusted):
    """Atoms on a hyperplane of R^n."""

    plane: Subspace
    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        ms = np.array(self.masses, dtype=float)
        if pts.size == 0:
            pts = np.zeros((0, self.plane.ambient_dim))
        if pts.ndim != 2 or pts.shape[1] != self.plane.ambient_dim:
            raise ValueError("points must have shape (k, ambient_dim)")
        if ms.shape != (pts.shape[0],):
            raise ValueError("masses must match points")
        if not (np.isfinite(pts).all() and np.isfinite(ms).all()):
            raise ValueError("atom points and masses must be finite")
        if np.any(ms <= 0.0):
            raise ValueError("atom masses must be positive")
        drift = np.linalg.norm(pts - self.plane.project(pts), axis=1)
        if np.max(drift / (1.0 + np.linalg.norm(pts, axis=1)), initial=0.0) > PLANE_TOL:
            raise ValueError("atom points must lie in the plane")
        _set_fields(self, points=pts, masses=ms)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


def _check_line_atoms(coordinates: np.ndarray, masses: np.ndarray) -> None:
    if not (np.isfinite(coordinates).all() and np.isfinite(masses).all()):
        raise ValueError("atom coordinates and masses must be finite")
    if (masses < 0.0).any():
        raise ValueError("atom masses must be nonnegative")


@dataclass(frozen=True, eq=False)
class LineMeasure(_Trusted):
    """Atoms on an oriented line.

    Atom positions are scalar coordinates along the unit direction.
    """

    direction: np.ndarray
    coordinates: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        direction = unit(as_vector(self.direction))
        cs = np.array(self.coordinates, dtype=float)
        ms = np.array(self.masses, dtype=float)
        if cs.shape != ms.shape or cs.ndim != 1:
            raise ValueError("coordinates and masses must be matching vectors")
        _check_line_atoms(cs, ms)
        _set_fields(self, direction=direction, coordinates=cs, masses=ms)

    @property
    def n_atoms(self) -> int:
        return self.coordinates.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def band_mass(self, s: float, t: float) -> float:
        """Plain measure of the closed coordinate band [s, t]."""
        inside = (self.coordinates >= s) & (self.coordinates <= t)
        return float(np.sum(self.masses[inside]))


@dataclass(frozen=True)
class BandSpec:
    """A slope band s <= z2/z1 <= t inside the unit slab."""

    s: float
    t: float

    def __post_init__(self):
        if not self.s < self.t:
            raise ValueError("need s < t")


def _bands_array(bands) -> np.ndarray:
    if isinstance(bands, np.ndarray):
        arr = np.asarray(bands, dtype=float)
    else:
        arr = np.array(
            [(b.s, b.t) if isinstance(b, BandSpec) else tuple(b) for b in bands],
            dtype=float,
        )
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("bands must be an (m, 2) array of (s, t) pairs")
    if np.isnan(arr).any():
        raise ValueError("band bounds must not be NaN")
    return arr


# ---------------------------------------------------------------------------
# Hyperplanes and direction batteries
# ---------------------------------------------------------------------------

def hyperplane_of(v) -> Subspace:
    """The hyperplane orthogonal to v, with a deterministic orthonormal basis.

    Planes are cached per v, so equal normals share one Subspace.
    """
    return _chart(as_vector(v).tobytes())[0]


@functools.lru_cache(maxsize=128)
def _chart(key: bytes) -> tuple[Subspace, tuple[np.ndarray, ...]]:
    """(hyperplane, marginal direction battery) of the normal whose float
    bytes are key."""
    v = unit(np.frombuffer(key))
    n = v.shape[0]
    sign = 1.0 if v[0] >= 0.0 else -1.0
    w = v.copy()
    w[0] += sign
    H = np.eye(n) - 2.0 * np.outer(w, w) / float(np.dot(w, w))
    plane = Subspace(n, H[:, 1:].T)
    return plane, tuple(marginal_direction_battery(plane))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def marginal_direction_battery(plane: Subspace) -> list[np.ndarray]:
    """d(d+1)/2 + 1 marginal directions of a plane of dimension d >= 2: axes,
    pair diagonals, one generic; a 1-D plane gets its one basis direction.

    The final direction is generic relative to the others and is reserved
    for verification by the plane reconstruction.
    """
    d = plane.dim
    dirs = [plane.basis[i] for i in range(d)]
    if d == 1:
        return dirs
    for i in range(d):
        for j in range(i + 1, d):
            dirs.append(unit(plane.basis[i] + _GOLDEN * plane.basis[j]))
    mix = sum((plane.basis[i] / math.sqrt(i + 2.0) for i in range(d)), np.zeros(plane.ambient_dim))
    dirs.append(unit(mix + _GOLDEN * plane.basis[0]))
    return dirs


def default_normals(ambient_dim: int, extra: int = 1) -> list[np.ndarray]:
    """Signed coordinate directions plus extra deterministic generic ones.
    Raises ValueError for a negative extra."""
    if extra < 0:
        raise ValueError("extra normals must be nonnegative")
    normals = []
    for i in range(ambient_dim):
        e = np.zeros(ambient_dim)
        e[i] = 1.0
        normals.append(e.copy())
        normals.append(-e)
    rng = np.random.Generator(np.random.PCG64(20260810))
    for _ in range(extra):
        normals.append(unit(rng.normal(size=ambient_dim)))
    return normals


# ---------------------------------------------------------------------------
# Forward operator
# ---------------------------------------------------------------------------

class BandOracle:
    """Batched band-mass measurements of a fixed conic varifold.

    Calling oracle(v, xi, bands) returns the forward band masses of the
    weighted projection onto span(v, xi) for every (s, t) row of bands.
    Each of v and xi is either one vector, shared by every row, or an
    (m, n) array holding the row's own normal or direction: the row shape
    of the `reconstruct --from-measurements` CSV.  Other shapes, a
    non-finite v or xi row and a NaN band bound raise ValueError; infinite
    bounds are legal.  query_count counts band rows.

    An atom whose slope or weight overflows lies in no band; weights in
    front of v that sum past the float range raise OverflowError.

    Slopes and weights are cached per sequence of (v, xi) pairs: a call
    whose sequence is new computes its whole (pairs x atoms) table in one
    pass, with one finiteness check and one overflow check.  A shared
    vector is broadcast to one row per band, so both forms give the same
    bits.  Rows of one pair should be consecutive: each run of equal pairs
    is one table row.

    A call checks its input, finds those runs, and hands the distinct pairs
    and each row's index into them to _measure, which counts the rows and
    sums the bands.  reconstruct_conic and locate_marginal_atoms hold that
    index already: for an oracle whose call is BandOracle.__call__ they call
    _measure directly, and all their calls read one table of all their
    pairs (see _pair_measure).  Any other callable, a subclass that
    overrides __call__ included, is called as oracle(v, xi, bands); both
    routes give the same bits and the same query_count.

    The mass of a band never grows when the band shrinks, bit for bit:
    every row sums the same positive weights in the same order, a
    sub-band only turns some of them into 0, and rounded addition is
    monotone.  reconstruct_conic relies on this when it measures three
    bisection levels in one call.
    """

    def __init__(self, cone: ConicVarifold):
        self._dirs, self._masses = cone.mass_rows()
        self.ambient_dim = cone.ambient_dim
        self._tables: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.query_count = 0

    def _table(self, vs: np.ndarray, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pairs x atoms) slopes and weights of the pairs (vs[i], xis[i]),
        cached per sequence of pairs; an atom behind v, or whose slope or
        weight overflows, gets a NaN slope and weight 0."""
        key = vs.tobytes() + xis.tobytes()
        hit = self._tables.get(key)
        if hit is not None:
            return hit
        # every row of a call has its values here: a NaN row starts a run of
        # equal pairs, since NaN != NaN
        if not (np.isfinite(vs).all() and np.isfinite(xis).all()):
            raise ValueError("v and xi must be finite")
        # one product per vector: a stacked matmul sums in another order
        z1 = np.array([self._dirs @ v for v in vs])
        z2 = np.array([self._dirs @ xi for xi in xis])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lam = z2 / z1
            weight = self._masses * (z1**2 + z2**2) / z1
            # an atom whose slope or weight overflows lies in no band, like
            # one on the equator: no finite band mass can hold it
            out = ~((z1 > 0.0) & np.isfinite(lam) & np.isfinite(weight))
            lam[out], weight[out] = np.nan, 0.0
            if not (weight.sum(axis=1) < math.inf).all():
                raise OverflowError("the cone's band masses overflow the float range")
        hit = self._tables[key] = lam, weight
        return hit

    def _rows(self, x, m: int) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        n = self.ambient_dim
        if a.shape == (n,):
            return np.broadcast_to(a, (m, n))
        if a.shape != (m, n):
            raise ValueError(
                f"expected a vector of length {n} or an ({m}, {n}) array, got shape {a.shape}"
            )
        return a

    def __call__(self, v, xi, bands) -> np.ndarray:
        arr = _bands_array(bands)
        m = len(arr)
        vs, xis = self._rows(v, m), self._rows(xi, m)
        if m == 0:
            return np.zeros(0)
        starts = np.ones(m, dtype=bool)
        starts[1:] = ((vs[1:] != vs[:-1]) | (xis[1:] != xis[:-1])).any(axis=1)
        first = np.flatnonzero(starts)
        return self._measure(vs.take(first, axis=0), xis.take(first, axis=0),
                             np.cumsum(starts) - 1, arr)

    def _measure(self, vs: np.ndarray, xis: np.ndarray, pair: np.ndarray,
                 bands: np.ndarray) -> np.ndarray:
        """Band masses of the (s, t) rows of bands, row i on the pair
        (vs[pair[i]], xis[pair[i]]).  Only the table's checks run here: vs
        and xis must be (pairs, n) arrays, pair must index them, and no band
        bound may be NaN."""
        self.query_count += len(bands)
        lam, weight = self._table(vs, xis)
        lam, weight = np.take(lam, pair, axis=0), np.take(weight, pair, axis=0)
        inband = (lam >= bands[:, :1]) & (lam <= bands[:, 1:2])
        return np.where(inband, weight, 0.0).sum(axis=1)


def band_marginal(c: ConicVarifold, v, xi, bands) -> LineMeasure:
    """Marginal of the gnomonic pushforward over the given slope bands.

    Band masses come from the forward projection operator; each atom's band
    contribution is divided by (1 + lambda^2) at the atom's exact slope.
    Directions with v-component at or below CHART_CUTOFF are near-equatorial
    and excluded, as in gnomonic_pushforward.
    """
    v = unit(as_vector(v, dim=c.ambient_dim))
    xi = unit(as_vector(xi, dim=c.ambient_dim))
    if _off_plane(hyperplane_of(v), xi[None]):
        raise ValueError("xi must be orthogonal to v")
    arr = _bands_array(bands)
    dirs, masses = c.mass_rows()
    z1 = dirs @ v
    z2 = dirs @ xi
    front = z1 > CHART_CUTOFF
    lam = z2[front] / z1[front]
    band_weight = masses[front] * (z1[front] ** 2 + z2[front] ** 2) / z1[front]
    covered = np.zeros(lam.shape, dtype=bool)
    for s, t in arr:
        covered |= (lam >= s) & (lam <= t)
    gamma_mass = band_weight[covered] / (1.0 + lam[covered] ** 2)
    return LineMeasure(xi, lam[covered], gamma_mass)


def fourier_of_marginal(m: LineMeasure, freq: float) -> complex:
    """Fourier transform of the marginal's atoms: sum of mass * exp(-i coord freq)."""
    return complex(np.sum(m.masses * np.exp(-1j * m.coordinates * freq)))


# ---------------------------------------------------------------------------
# Gnomonic transport between the sphere and a hyperplane
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GnomonicResult:
    """Pushforward measure plus the atoms excluded as near-equatorial."""

    measure: PlaneMeasure
    excluded: tuple[tuple[np.ndarray, float], ...] = ()


def gnomonic_pushforward(c: ConicVarifold, v) -> GnomonicResult:
    """Transport the hemisphere {<z, v> > 0} of a cone to the plane v-perp.

    An atom (z, m) maps to the point pi_P(z / <z, v>) with mass m <z, v>.
    Atoms with |<z, v>| <= CHART_CUTOFF are excluded and reported so the caller
    can re-run with a different pole; back-hemisphere atoms are simply not
    part of this chart.
    """
    v = unit(as_vector(v, dim=c.ambient_dim))
    plane = hyperplane_of(v)
    dirs, masses = c.mass_rows()
    h = _rowdot(dirs, v)
    front, out = h > CHART_CUTOFF, np.abs(h) <= CHART_CUTOFF
    points = plane.project(dirs[front] / h[front, None])
    measure = PlaneMeasure(plane, points, masses[front] * h[front])
    return GnomonicResult(measure, tuple(zip(dirs[out], masses[out].tolist())))


def lift_to_sphere(gamma: PlaneMeasure, v) -> ConicVarifold:
    """Inverse gnomonic transport: atom (x, m) lifts to ((x+v)/|x+v|, m |x+v|)."""
    v = unit(as_vector(v, dim=gamma.plane.ambient_dim))
    dirs, norms = _unit_rows(gamma.points + v)
    return conic_atoms(gamma.plane.ambient_dim, zip(dirs, gamma.masses * norms))


# ---------------------------------------------------------------------------
# Atom localization by dyadic band refinement
# ---------------------------------------------------------------------------

def locate_marginal_atoms(
    oracle: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    v: np.ndarray,
    xi: np.ndarray,
    lam_max: float,
) -> LineMeasure:
    """Find the atoms of one marginal using only band-mass measurements.

    Bisects [-lam_max, lam_max], discarding bands whose mass stays at or
    below LOCATE_MASS_TOL, until active bands are narrower than
    LOCATE_WIDTH (or than the local floating-point resolution) or
    LOCATE_MAX_DEPTH levels deep.  Adjacent survivors are
    merged and re-measured once, and each located band mass is divided by
    (1 + lambda^2) at the band midpoint.  As in reconstruct_conic, each
    call carries one (v, xi) row per band, and each bisection call takes
    three levels at once.  The result is that of one level per call when
    the oracle's band mass does not grow as a band shrinks (see
    BandOracle).  Raises ValueError unless 0 < lam_max <= LOCATE_WIDTH *
    2**(LOCATE_MAX_DEPTH - 1), about 6.04e13: past that, the depth limit
    stops bands before they narrow to LOCATE_WIDTH."""
    if not 0.0 < lam_max <= LOCATE_WIDTH * 2.0 ** (LOCATE_MAX_DEPTH - 1):
        raise ValueError("lam_max must be positive and at most "
                         "LOCATE_WIDTH * 2**(LOCATE_MAX_DEPTH - 1), about 6.04e13")
    (located,) = _locate_atoms(oracle, [(v, xi)], lam_max)
    return located


def _width_bound(lo: np.ndarray, hi: np.ndarray, width_target: float) -> np.ndarray:
    """width_target, or the local float resolution of bands [lo, hi]."""
    return np.maximum(width_target, 4e-16 * np.maximum(np.abs(lo), np.abs(hi)))


def _narrow(lo: np.ndarray, hi: np.ndarray, width_target: float) -> np.ndarray:
    return hi - lo <= _width_bound(lo, hi, width_target)


def _pair_measure(oracle, vs: np.ndarray, xis: np.ndarray):
    """measure(owner, bands): the oracle's masses of band rows on the pairs
    (vs[owner], xis[owner]).  A BandOracle whose call is BandOracle.__call__
    takes owner itself when vs and xis have its dimension; any other oracle
    or input goes through oracle(v, xi, bands), which checks what it is
    given.  Bands are not checked: lam_max is, where it enters."""
    if (type(oracle).__call__ is BandOracle.__call__
            and vs.shape[1:] == xis.shape[1:] == (oracle.ambient_dim,)):
        return functools.partial(oracle._measure, vs, xis)
    return lambda owner, bands: oracle(
        np.take(vs, owner, axis=0), np.take(xis, owner, axis=0), bands)


def _children(owner: np.ndarray, edges: np.ndarray, depth: np.ndarray,
              deep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, band, depth) rows of the next bisection call: the 8 slots
    between the 9 nested-midpoint edges of a deep band, and the two children
    of any other, whose edges 1 and 2 are overwritten."""
    if deep.all():
        slots = np.stack((edges[:, :-1], edges[:, 1:]), axis=2).reshape(-1, 2)
        return np.repeat(owner, 8), slots, np.repeat(depth + 3, 8)
    # a band taking one level keeps its edges 0, 4 and 8 as 0, 1 and 2, so
    # its two children are its first two of 8 slots
    edges[~deep, 1:3] = edges[~deep][:, 4::4]
    slots = np.stack((edges[:, :-1], edges[:, 1:]), axis=2)
    used = deep[:, None] | (np.arange(8) < 2)
    counts = np.where(deep, 8, 2)
    return (np.repeat(owner, counts), slots[used],
            np.repeat(depth + np.where(deep, 3, 1), counts))


def _locate_atoms(
    oracle: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    lam_max: float,
) -> list[LineMeasure]:
    """locate_marginal_atoms for every (v, xi) pair at once, stopping bands
    at LOCATE_WIDTH and LOCATE_MAX_DEPTH, both read at call time.

    Each oracle call measures every live band three bisection levels down:
    its 8 great-grandchildren, cut at nested midpoints, keeping those above
    LOCATE_MASS_TOL.  For an oracle whose band mass does not grow when a band
    shrinks, these are exactly the survivors of three one-level steps.  A
    band takes one level only when one of its children or grandchildren is
    narrow or fewer than 3 levels of max_depth remain, so the narrow rule
    and max_depth act as in a one-level loop.  Rows stay sorted by pair,
    and owner holds each row's index into pairs.  One final call re-measures
    the merged bands of every pair; its masses are the located ones.  Every
    call goes through _pair_measure, which routes it by the oracle's type.
    """
    if len(pairs) == 0:
        return []
    width_target, max_depth = LOCATE_WIDTH, LOCATE_MAX_DEPTH
    vs = np.array([v for v, _ in pairs], dtype=float)
    xis = np.array([xi for _, xi in pairs], dtype=float)
    measure = _pair_measure(oracle, vs, xis)
    owner = np.arange(len(pairs))
    bands = np.tile([-lam_max, lam_max], (len(pairs), 1))
    depth = np.zeros(len(pairs), dtype=int)
    done = [(owner[:0], bands[:0])]
    while owner.size:
        stop = (depth >= max_depth) | _narrow(bands[:, 0], bands[:, 1], width_target)
        if stop.any():
            done.append((owner[stop], bands[stop]))
            # taking rows by index is faster than by mask
            go = np.flatnonzero(~stop)
            owner, bands, depth = owner.take(go), bands.take(go, axis=0), depth.take(go)
            if not owner.size:
                break
        # nested-midpoint edges: the children split at column 4, the
        # grandchildren at 2 and 6, the great-grandchildren at the odd ones
        edges = np.empty((len(owner), 9))
        edges[:, ::8] = bands
        for step in (4, 2, 1):
            left, right = edges[:, :-step:2 * step], edges[:, 2 * step::2 * step]
            edges[:, step::2 * step] = 0.5 * (left + right)
        # a narrow child has a narrow grandchild: the one holding the child's
        # end of larger magnitude shares the child's width bound and is no
        # wider, so the grandchildren's test covers the children's
        deep = (depth + 3 <= max_depth) & ~_narrow(
            edges[:, :-2:2], edges[:, 2::2], width_target).any(axis=1)
        owner, bands, depth = _children(owner, edges, depth, deep)
        alive = np.flatnonzero(measure(owner, bands) > LOCATE_MASS_TOL)
        owner, bands, depth = owner.take(alive), bands.take(alive, axis=0), depth.take(alive)
    owner = np.concatenate([o for o, _ in done])
    bands = np.concatenate([iv for _, iv in done])

    # merge each pair's sorted bands across gaps of at most twice the width
    # rule, each band against the previous band's hi
    order = np.lexsort((bands[:, 1], bands[:, 0], owner))
    owner, lo, hi = owner[order], bands[order, 0], bands[order, 1]
    gap = 2.0 * _width_bound(lo, hi, width_target)
    first = np.ones(len(owner), dtype=bool)
    first[1:] = (owner[1:] != owner[:-1]) | ~(lo[1:] - hi[:-1] <= gap[1:])
    last = np.ones(len(owner), dtype=bool)
    last[:-1] = first[1:]
    merged = np.column_stack((lo[first], hi[last]))

    # one re-measure of every merged band: its bits are the located masses
    totals = measure(owner[first], merged) if len(merged) else np.zeros(0)
    return _band_marginals(xis, owner[first], merged, totals)


def _band_marginals(xis: np.ndarray, owner: np.ndarray, bands: np.ndarray,
                    masses: np.ndarray) -> list[LineMeasure]:
    """One marginal along each row of xis: each band row (s, t) of mass m
    above LOCATE_MASS_TOL is an atom at lambda = (s + t) / 2 of mass
    m / (1 + lambda^2) on the marginal owner names (owner is sorted).  The
    masses come from outside, so LineMeasure's checks run once for all
    marginals; OverflowError when 1 + lambda^2 leaves the float range."""
    keep = masses > LOCATE_MASS_TOL
    with np.errstate(over="ignore"):
        mids = 0.5 * (bands[keep, 0] + bands[keep, 1])
        scale = 1.0 + mids**2
    if not (scale < math.inf).all():
        raise OverflowError("a band's midpoint slope squared leaves the float range")
    gamma = masses[keep] / scale
    bounds = np.searchsorted(owner[keep], np.arange(len(xis) + 1)).tolist()
    _check_line_atoms(mids, gamma)
    return [LineMeasure._trusted(u, mids[a:b], gamma[a:b])
            for u, a, b in zip(_unit_rows(xis)[0], bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# Incidence solve on a hyperplane
# ---------------------------------------------------------------------------

def _cluster_1d(values: np.ndarray, tol_of) -> np.ndarray:
    """Group sorted scalars closer than a local tolerance; the group means.

    Sorted values join a group when their step from the previous value is
    at most tol_of(value).  Each mean has the bits of np.mean over the
    group in sorted order: np.sum adds fewer than 8 terms one by one from
    0.0, as the float sum here does, and pairwise from 8 up.
    """
    v = np.sort(values)
    sorted_values, tols = v.tolist(), tol_of(v).tolist()
    means = []
    start = 0
    for end in range(1, len(v) + 1):
        if end < len(v) and sorted_values[end] - sorted_values[end - 1] <= tols[end]:
            continue
        if end - start < 8:
            total = 0.0
            for x in sorted_values[start:end]:
                total += x
            means.append(total / (end - start))
        else:
            means.append(float(np.mean(v[start:end])))
        start = end
    return np.array(means)


def _match_tol(val):
    return MATCH_TOL * (1.0 + np.abs(val))


def _near(coords: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """(reps x coords) mask of |coord - rep| <= _match_tol(rep)."""
    return np.abs(coords[None, :] - reps[:, None]) <= _match_tol(reps)[:, None]


def _masked_sums(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.sum(values[row]) for every row of mask.  A row summing one term
    or none is exact in any order; the rest are summed as np.sum does."""
    sums = mask @ values
    for i in np.flatnonzero(mask.sum(axis=1) > 1):
        sums[i] = np.sum(values[mask[i]])
    return sums


def _incidence(candidates: np.ndarray, m: LineMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The plane solve's incidence rule for marginal m: the candidates' and
    m's coordinates along m are clustered together, and each cluster gives
    a row of (clusters x candidates) members and the mass m measures there."""
    proj = candidates @ m.direction
    reps = _cluster_1d(np.concatenate([proj, m.coordinates]), _match_tol)
    return _near(proj, reps), _masked_sums(_near(m.coordinates, reps), m.masses)


def _load_slsqplib():
    """scipy's compiled `scipy/optimize/_slsqplib` extension, loaded without
    importing `scipy.optimize`, whose first import dwarfs a cold CLI run;
    None when this scipy has no such file.  find_spec does not import scipy.
    The bare name matters: under the dotted one, a later
    `import scipy.optimize` would find no `_slsqplib` attribute."""
    spec = importlib.util.find_spec("scipy")
    for folder in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_slsqplib" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("_slsqplib", path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location("_slsqplib", path, loader=loader))
                loader.exec_module(module)
                return module
    return None


@functools.cache
def _nnls_kernel():
    """The compiled kernel `nnls(A, b, maxiter) -> (x, rnorm, info)` behind
    scipy.optimize.nnls, or None where it cannot be loaded directly."""
    try:
        return getattr(_load_slsqplib(), "nnls", None)
    except (ImportError, OSError):
        return None


def _nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy.optimize.nnls(A, b), with its bits: its input checks and kernel
    call run here where the kernel loads directly, and scipy.optimize.nnls
    runs elsewhere.  Raises AmbiguousReconstruction where scipy raises
    RuntimeError, when the active-set iteration does not converge."""
    kernel = _nnls_kernel()
    if kernel is not None:
        A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
        b = np.asarray_chkfinite(b, dtype=np.float64, order="C")
        x, rnorm, info = kernel(A, b, 3 * A.shape[1])
        if info != 3:
            return x, rnorm
    else:
        from scipy.optimize import nnls
        try:
            return nnls(A, b)
        except RuntimeError:  # "Maximum number of iterations reached."
            pass
    raise AmbiguousReconstruction("nonnegative least squares did not converge")


def _off_plane(plane: Subspace, dirs: np.ndarray) -> bool:
    """Whether a unit row of dirs is over PLANE_TOL / (2 sqrt(dim)) off the plane; rows
    within it keep a plane-solve candidate, a sum of dim of them, within PLANE_TOL."""
    r = dirs - plane.project(dirs)
    return bool((r * r).sum(axis=1).max() * plane.dim > (0.5 * PLANE_TOL) ** 2)


def _grid_axes(plane: Subspace, directions: Sequence[np.ndarray]) -> list[int]:
    """Indices of the marginal directions that span the plane solve's
    candidate grid: the first plane.dim of them that are mutually orthogonal
    (|cos| <= 1e-9), in order, leaving out the held-out last direction when
    there are more than plane.dim + 1.  Raises ValueError when there are
    fewer than plane.dim directions, one lies off the plane, or no such
    subset exists."""
    d = plane.dim
    if len(directions) < d:
        raise ValueError(f"need at least {d} marginal directions")
    if _off_plane(plane, np.array(directions)):
        raise ValueError("marginal directions must lie in the plane")
    solving = directions[:-1] if len(directions) > d + 1 else directions
    axes: list[int] = []
    for i, u in enumerate(solving):
        if all(abs(float(np.dot(u, solving[j]))) <= 1e-9 for j in axes):
            axes.append(i)
        if len(axes) == d:
            return axes
    raise ValueError("marginals do not contain an orthogonal direction subset")


def reconstruct_plane_measure(
    plane: Subspace,
    marginals: Sequence[LineMeasure],
) -> PlaneMeasure:
    """Recover an atomic plane measure from its one-dimensional marginals.

    Candidate positions are enumerated from an orthogonal subset of the
    marginal directions, candidates incompatible with any other marginal are
    eliminated, and the remaining nonnegative mass assignment is solved by
    least squares on the incidence system.  When more than dim + 1 marginals
    are supplied, the last one is held out and used only to verify the
    solution.  Raises AmbiguousReconstruction when the system is
    rank-deficient, inconsistent, fails the held-out check, needs more
    than MAX_ATOMS atoms, or its nonnegative least squares does not
    converge.
    """
    d = plane.dim
    axes = _grid_axes(plane, [m.direction for m in marginals])
    held_out = None
    solving = list(marginals)
    if len(marginals) > d + 1:
        held_out = solving.pop()

    axis_coord_lists = []
    for i in axes:
        reps = _cluster_1d(solving[i].coordinates, _match_tol)
        if not reps.size:
            if any(m.n_atoms for m in marginals):
                raise AmbiguousReconstruction(
                    "an axis marginal is empty while others carry mass"
                )
            return PlaneMeasure._trusted(plane, np.zeros((0, plane.ambient_dim)), np.zeros(0))
        axis_coord_lists.append(reps)
    shape = [len(c) for c in axis_coord_lists]
    n_candidates = math.prod(shape)
    if n_candidates > max(200_000, MAX_ATOMS**d):
        raise AmbiguousReconstruction(
            f"candidate grid too large ({n_candidates}); supply cleaner marginals"
        )
    index = np.indices(shape).reshape(d, -1)  # the ravelled "ij" meshgrid
    coords = np.column_stack([c[i] for c, i in zip(axis_coord_lists, index)])
    axis_dirs = np.array([solving[i].direction for i in axes])
    candidates = coords @ axis_dirs

    # eliminate candidates incompatible with any non-axis solving marginal
    alive = np.ones(candidates.shape[0], dtype=bool)
    for i, m in enumerate(solving):
        if i not in axes:
            reps = _cluster_1d(m.coordinates, _match_tol)
            alive &= _near(candidates @ m.direction, reps).any(axis=0)
    candidates = candidates[alive]
    if candidates.shape[0] == 0:
        raise AmbiguousReconstruction("no candidate is compatible with all marginals")

    rows, rhs = [], []
    for m in solving:
        members, measured = _incidence(candidates, m)
        hit = members.any(axis=1)
        rows.append(members[hit])
        rhs.append(measured[hit])
    A = np.concatenate(rows).astype(float)
    b = np.concatenate(rhs)
    if np.linalg.matrix_rank(A) < candidates.shape[0]:
        raise AmbiguousReconstruction(
            "incidence system is rank-deficient; add a marginal direction"
        )
    w, _ = _nnls(A, b)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if float(np.max(np.abs(A @ w - b))) > RESIDUAL_TOL * scale:
        raise AmbiguousReconstruction("marginals are mutually inconsistent")

    keep = w > 1e-10
    candidates, w = candidates[keep], w[keep]
    if candidates.shape[0] > MAX_ATOMS:
        raise AmbiguousReconstruction(
            f"solution uses {candidates.shape[0]} atoms, above the budget {MAX_ATOMS}"
        )
    if held_out is not None and candidates.shape[0]:
        members, measured = _incidence(candidates, held_out)
        predicted = _masked_sums(members, w)
        if (np.abs(predicted - measured) > RESIDUAL_TOL * np.maximum(1.0, measured)).any():
            raise AmbiguousReconstruction(
                "held-out marginal disagrees with the reconstruction"
            )
    # huge masses can overflow the solve (a non-finite candidate fails the rank check)
    if not np.isfinite(w).all():
        raise ValueError("atom points and masses must be finite")
    return PlaneMeasure._trusted(plane, candidates, w)


# ---------------------------------------------------------------------------
# Full conic reconstruction
# ---------------------------------------------------------------------------

def reconstruct_conic(
    oracle: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    ambient_dim: int,
    normals: Sequence[np.ndarray] | None = None,
) -> ConicVarifold:
    """Recover an atomic conic varifold from band-mass measurements.

    For every supplied normal the positive hemisphere is charted
    gnomonically and the marginal atoms of a direction battery are located
    by dyadic band refinement; then reconstruct_from_marginals solves,
    lifts and merges the charts.

    oracle(v, xi, bands) returns the band masses of the (s, t) rows of
    bands, where each of v and xi is one vector or an (m, n) array with
    one row per band (see BandOracle).  The bisection of all marginals of
    all normals runs three levels per call, with per-row (v, xi) and rows
    sorted by marginal: each live band's 8 great-grandchildren are measured
    at once, and a band takes a single level only where the width rule or
    the depth limit would stop it inside the three.  This needs an oracle
    whose band mass does not grow as a band shrinks, as BandOracle's does
    bit for bit; for such an oracle the result is that of one level per
    call.  A default R^3 run makes about 20 such calls instead of 56, and
    measures about 30% more band rows.  One more call then re-measures
    the merged bands of every marginal.

    Raises AmbiguousReconstruction from the plane solve and CoverageGap when
    located marginal mass is not explained by the merged reconstruction.
    """
    if normals is None:
        normals = default_normals(ambient_dim)
    normals = [unit(as_vector(nv, dim=ambient_dim)) for nv in normals]
    batteries = [_chart(v.tobytes())[1] for v in normals]
    located = iter(_locate_atoms(
        oracle,
        [(v, xi) for v, battery in zip(normals, batteries) for xi in battery],
        2.0 / CHART_CUTOFF,
    ))
    charts = [(v, [next(located) for _ in battery]) for v, battery in zip(normals, batteries)]
    return reconstruct_from_marginals(ambient_dim, charts)


def _check_band_row(row) -> None:
    """The rule of a measured row (v, xi, s, t, band_mass): v and xi square to
    normal floats, unit xi lies in unit v's hyperplane by _off_plane, and s < t
    by BandSpec.  Raises ValueError naming the first rule broken."""
    v, xi = np.split(np.array(row[:-3], dtype=float), 2)
    for name, x in (("the normal v", v), ("the direction xi", xi)):
        with np.errstate(over="ignore"):  # x.x must be a normal float
            if not _TINY <= float(np.dot(x, x)) < math.inf:
                raise ValueError(f"{name} is zero or cannot be normalized")
    if _off_plane(hyperplane_of(unit(v)), unit(xi)[None]):
        raise ValueError("the direction xi is not orthogonal to v")
    BandSpec(*row[-3:-1])


def _measured_charts(table: np.ndarray) -> list[tuple[np.ndarray, list[LineMeasure]]]:
    """reconstruct_from_marginals' charts of rows (v, xi, s, t, band_mass) that
    pass _check_band_row: a marginal per (v, xi) value and a chart per v, in
    order of first appearance, with its bits (-0.0 is 0.0); bands in (s, t)
    order, a repeated one once.  Raises ValueError for a band given two masses
    and, naming the normal, for a chart that _grid_axes rejects."""
    n = (table.shape[1] - 3) // 2
    seen: dict[bytes, int] = {}  # a value's first row; adding 0.0 turns -0.0 into 0.0
    normal, pair = np.array([[seen.setdefault(r[:k].tobytes(), i) for k in (n, 2 * n)]
                             for i, r in enumerate(table + 0.0)], dtype=int).reshape(-1, 2).T
    order = np.lexsort((table[:, -2], table[:, -3], pair))
    rows = np.column_stack((pair, table[:, -3:]))[order]  # (pair, s, t, band_mass)
    step = rows != np.vstack((np.full((1, 4), np.nan), rows[:-1]))  # vs the row before
    new = step[:, :3].any(axis=1)
    if (step[:, 3] & ~new).any():
        raise ValueError(f"the band {rows[step[:, 3] & ~new][0, 1:3].tolist()} is given two masses")
    heads, owner = np.unique(rows[new, 0].astype(int), return_inverse=True)
    marginals = _band_marginals(table[heads, n : 2 * n], owner, rows[new, 1:3], rows[new, 3])
    charts: dict[int, tuple[np.ndarray, list[LineMeasure]]] = {}
    for head, m in zip(normal[heads].tolist(), marginals):
        charts.setdefault(head, (unit(table[head, :n]), []))[1].append(m)
    for v, chart in charts.values():
        try:
            _grid_axes(hyperplane_of(v), [m.direction for m in chart])
        except ValueError as exc:
            raise ValueError(f"normal {np.array2string(v, precision=3)}: {exc}") from None
    return list(charts.values())


def reconstruct_from_marginals(
    ambient_dim: int,
    charts: Sequence[tuple[np.ndarray, Sequence[LineMeasure]]],
) -> ConicVarifold:
    """Merge the hemisphere reconstructions of (unit normal, marginals) charts.

    Each chart with located mass is solved on the hyperplane v-perp and
    lifted back to the sphere.  Hemisphere results are merged, keeping
    well-conditioned recoveries (pole component at least KEEP_FRACTION, or
    0.9 / sqrt(ambient_dim) if that is smaller); an atom recovered twice is
    identified when directions agree within MERGE_ANGLE radians and masses
    within MERGE_MASS_TOL relative to the larger of 1 and the mass.

    Raises AmbiguousReconstruction from the plane solve or on conflicting
    masses, and CoverageGap when marginal mass is not explained by the
    merged reconstruction.
    """
    keep_cut = min(KEEP_FRACTION, 0.9 / math.sqrt(ambient_dim))
    # (directions, masses, pole dots) of the well-conditioned atoms per chart
    kept = [(np.zeros((0, ambient_dim)), np.zeros(0), np.zeros(0))]
    for v, marginals in charts:
        if all(m.n_atoms == 0 for m in marginals):
            continue
        gamma = reconstruct_plane_measure(hyperplane_of(v), marginals)
        cone_v = lift_to_sphere(gamma, v)
        h = _rowdot(cone_v.atom_directions, np.asarray(v, dtype=float))
        well = h >= keep_cut
        kept.append((cone_v.atom_directions[well], cone_v.atom_masses[well], h[well]))
    dirs, masses, poles = (np.concatenate(column) for column in zip(*kept))

    # identify each kept atom with the first final atom within MERGE_ANGLE,
    # in order; the one seen closer to its pole stands for both
    near = (_direction_distances(dirs) < MERGE_ANGLE).tolist()
    ms, hs = masses.tolist(), poles.tolist()
    final: list[int] = []
    for j in range(len(ms)):
        for slot, f in enumerate(final):
            if near[j][f]:
                if abs(ms[j] - ms[f]) > MERGE_MASS_TOL * max(1.0, ms[f]):
                    raise AmbiguousReconstruction(
                        "conflicting masses for the same recovered direction"
                    )
                if hs[j] > hs[f]:
                    final[slot] = j
                break
        else:
            final.append(j)
    result = conic_atoms(ambient_dim, zip(dirs[final], masses[final]))

    # attest that every located marginal atom is explained by the result:
    # the full hemisphere mass of the reconstruction bounds what any one
    # marginal window can see, so located mass above it is unaccounted for
    normals = np.array([v for v, _ in charts], dtype=float).reshape(len(charts), ambient_dim)
    h = _rowdot(result.atom_directions[:, None, :], normals[None, :, :])
    terms = np.where(h > 0.0, result.atom_masses[:, None] * h, 0.0)
    # summed one by one from 0.0, atom by atom
    explained = np.add.accumulate(np.vstack([np.zeros(len(charts)), terms]))[-1]
    for (v, marginals), covered in zip(charts, explained.tolist()):
        for total in (m.total_mass for m in marginals):
            unaccounted = total - covered
            if unaccounted > COVERAGE_TOL * max(1.0, total):
                raise CoverageGap(
                    f"marginal mass {unaccounted:.3e} unaccounted for under "
                    f"normal {np.array2string(v, precision=3)}"
                )
    return result
