"""Tangent-cone estimation by dilation, with a computable weak-* surrogate.

Piecewise-linear varifolds reach their tangent cone at a finite scale: once
the dilation factor drops below the distance to all non-incident pieces,
the rescaled varifold restricted to the test ball literally equals the cone
spanned by the incident pieces.  The battery distance below is built so
that this equality registers as an exact floating-point zero: pieces are
split at the blow-up point, quadrature cells are anchored to the piece's
closest approach to the origin, and pairings are summed in sorted order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    ATOM_SEPARATION_TOL,
    ConicVarifold,
    DiscreteVarifold,
    RayPiece,
    Subspace,
    _ball_chords,
    _count,
    _dilations,
    _piece_rows,
    _point,
    _positive,
    _rowdot,
    _same_dim,
    _set_fields,
    as_vector,
    conic_atoms,
    conic_to_discrete,
    _split,
    unit,
)
from .variation import _plateau


class ZeroDensityError(ValueError):
    """Blow-up requested at a point where the varifold has zero density."""


class PreconditionViolated(ValueError):
    """A hypothesis of the projected-density bounds does not hold."""


class DensityBoundViolation(AssertionError):
    """The projected cone density left its certified interval."""


# ---------------------------------------------------------------------------
# Test batteries and pairings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatteryFunction:
    """A bounded test function f(point, direction), even in the direction."""

    label: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class BatteryTable:
    """Products of radial lumps with squared direction moments.

    Function (j, k) is f(x, s) = amps[j] * plateau(|x| / radii[j]) *
    <s, axes[k]>^2, listed j-major.  Pairing from the table evaluates each
    lump once per piece instead of once per function, with the same floats
    as the derived functions give.
    """

    radii: np.ndarray
    amps: np.ndarray
    axes: np.ndarray

    def __post_init__(self):
        _set_fields(self, **{name: np.array(getattr(self, name), dtype=float)
                             for name in ("radii", "amps", "axes")})
        if not ((0.0 < self.radii) & (self.radii < math.inf)).all():
            raise ValueError("battery radii must be positive and finite")
        if not np.isfinite(self.amps).all():
            raise ValueError("battery amplitudes must be finite")

    def functions(self) -> tuple[BatteryFunction, ...]:
        """The table's functions as opaque BatteryFunctions, j-major."""
        return tuple(
            BatteryFunction(f"lump{j}-axis{k}", _lump_moment(float(rj), float(amp), u))
            for j, (rj, amp) in enumerate(zip(self.radii, self.amps))
            for k, u in enumerate(self.axes)
        )

    def contributions(self, samples: "_Samples") -> np.ndarray:
        """Every sampled piece's weighted quadrature sum for every function,
        as a (pieces, functions) array, j-major.

        The bits are those of w * np.dot(lens, lump * moment) piece by piece,
        whatever the other pieces: moments are squared with Python's float
        pow, lumps are evaluated in chunks of whole pieces of about
        _LUMP_CHUNK cells, and each piece's pairings are one stacked matmul of
        vector dots over its own C-ordered (lumps, moments, cells) products.
        """
        counts = samples.counts
        out = np.zeros((len(counts), len(self.radii) * len(self.axes)))
        if not len(counts):
            return out
        dots = _rowdot(samples.u[:, None, :], self.axes)
        moments = np.array([d ** 2 for d in dots.ravel().tolist()]).reshape(dots.shape)
        ends = np.cumsum(counts)
        starts = ends - counts
        cuts = (np.flatnonzero(np.diff(starts // _LUMP_CHUNK)) + 1).tolist()
        for p0, p1 in zip([0, *cuts], [*cuts, len(counts)]):
            c0, c1 = starts[p0], ends[p1 - 1]
            if c1 == c0:
                continue  # pieces without cells pair to zero
            rad = np.linalg.norm(samples.points[c0:c1], axis=1)
            lumps = self.amps[:, None] * _plateau(rad / self.radii[:, None])
            for p in range(p0, p1):
                a, b = starts[p], ends[p]
                # C order: the dot kernel sums a unit-stride row as np.dot does
                m = np.multiply(lumps[:, None, a - c0 : b - c0], moments[p][None, :, None],
                                order="C")
                out[p] = samples.w[p] * (m[:, :, None, :] @ samples.lens[a:b, None]).ravel()
        return out


@dataclass(frozen=True, eq=False)
class TestBattery:
    """Lipschitz test functions supported in the ball of a common radius.

    Given a table, functions are filled in as table.functions() (passing
    both raises ValueError), and pairings are evaluated from the table.
    ValueError unless 0 < radius < inf.
    """

    ambient_dim: int
    radius: float
    functions: tuple[BatteryFunction, ...] = ()
    table: BatteryTable | None = None

    def __post_init__(self):
        n = _count(self.ambient_dim, "ambient_dim", 1)
        _set_fields(self, ambient_dim=n, radius=_positive(self.radius, "battery radius"))
        if self.table is not None:
            _same_dim(self.table.axes.shape[-1], n, "battery table")
            if self.functions:
                raise ValueError("a battery with a table takes its functions from the table")
            _set_fields(self, functions=self.table.functions())

    def validate(self, rng: np.random.Generator) -> None:
        """Sampled checks at BATTERY_CHECK_SAMPLES points each: support
        vanishing and Lipschitz constant <= 1 (5%)."""
        n = self.ambient_dim
        for f in self.functions:
            for _ in range(BATTERY_CHECK_SAMPLES):
                x = unit(rng.normal(size=n)) * self.radius * rng.uniform(1.0, 2.0)
                s = unit(rng.normal(size=n))
                if float(f.value(x[None, :], s)[0]) != 0.0:
                    raise ValueError(f"{f.label} does not vanish outside the ball")
            for _ in range(BATTERY_CHECK_SAMPLES):
                x1 = rng.normal(size=n) * self.radius * 0.5
                x2 = rng.normal(size=n) * self.radius * 0.5
                s1 = unit(rng.normal(size=n))
                s2 = unit(rng.normal(size=n))
                lhs = abs(float(f.value(x1[None, :], s1)[0] - f.value(x2[None, :], s2)[0]))
                gap = float(np.linalg.norm(x1 - x2)) + min(
                    float(np.linalg.norm(s1 - s2)), float(np.linalg.norm(s1 + s2))
                )
                if lhs > 1.05 * gap:
                    raise ValueError(f"{f.label} exceeds Lipschitz constant 1")


# max |_plateau_prime| over np.linspace(-1, 1, 20_001); a test recomputes it
_PLATEAU_SLOPE = 4.0

# default_battery: lumps at BATTERY_SCALES radii up to BATTERY_RADIUS times
# squared moments along BATTERY_AXES quasi-random axes drawn from
# BATTERY_SEED; PAIRING_CELLS midpoint cells span each battery radius.
BATTERY_RADIUS = 1.0
BATTERY_SCALES = 8
BATTERY_AXES = 8
BATTERY_SEED = 7
PAIRING_CELLS = 256
BATTERY_CHECK_SAMPLES = 64


def _lump_moment(
    rj: float, amp: float, u: np.ndarray
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    def value(points: np.ndarray, s: np.ndarray) -> np.ndarray:
        rad = np.linalg.norm(points, axis=1)
        d = float(np.dot(s, u)) ** 2
        return amp * _plateau(rad / rj) * np.full(points.shape[0], d)

    return value


@functools.lru_cache(maxsize=8, typed=True)  # typed: 2.0 must not find the battery of 2
def default_battery(ambient_dim: int) -> TestBattery:
    """Products of radial lumps at BATTERY_SCALES scales up to radius
    BATTERY_RADIUS with squared direction moments for BATTERY_AXES
    quasi-random axes; normalized to Lipschitz 1.

    Squaring the direction moment makes every function even in s, as
    unoriented pieces require.  The battery is stored as a BatteryTable of
    radii, amplitudes and axes, its functions derived from the table; it is
    immutable, so one is built per ambient dimension and shared.
    """
    ambient_dim = _count(ambient_dim, "ambient_dim", 1)
    rng = np.random.Generator(np.random.PCG64(BATTERY_SEED))
    axes = [unit(rng.normal(size=ambient_dim)) for _ in range(BATTERY_AXES)]
    radii = [BATTERY_RADIUS * (j + 1) / BATTERY_SCALES for j in range(BATTERY_SCALES)]
    amps = [1.0 / (_PLATEAU_SLOPE / rj + 2.0) for rj in radii]
    table = BatteryTable(np.array(radii), np.array(amps), np.array(axes).reshape(-1, ambient_dim))
    return TestBattery(ambient_dim, BATTERY_RADIUS, table=table)


# Cells per lump evaluation: bounds the temporaries of a pairing.
_LUMP_CHUNK = 1024
# Pieces dilated per batch in tangent_estimate: bounds the stacked rows.
_DILATION_ROWS = 4096


def _clip(rows, radius: float, group: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The pieces (base, u, hi, w) meeting B(0, radius) as a table of rows
    (base, u, w, lo, up), with chord (lo, up) of base + t*u, and their mask.
    Given every piece's group, rows are sorted by group, then by their bits:
    groups of equal bytes pair to equal bits, as pieces are sampled and
    paired row by row and pairings are sorted sums; bytes keep a -0.0 apart."""
    base, u, hi, w = rows
    lo, up, meets = _ball_chords(base, u, hi, np.zeros(base.shape[1]), radius)
    table = np.column_stack((base, u, w, lo, up))[meets]
    if group is not None:
        table = table[np.lexsort((*table.view(np.uint64).T, group[meets]))]
    return table, meets


class _Samples(NamedTuple):
    """Midpoint cells of the sampled pieces, concatenated in piece order.

    Piece p owns counts[p] consecutive rows of points and lens (possibly
    none), and has unit direction u[p] and weight w[p].
    """

    points: np.ndarray
    lens: np.ndarray
    counts: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def per_piece(self):
        """(points, direction, cell lengths, weight) of every piece, in order."""
        cuts = np.cumsum(self.counts)[:-1]
        return zip(np.split(self.points, cuts), self.u, np.split(self.lens, cuts), self.w.tolist())


def _piece_samples(table: np.ndarray, radius: float, cells: int) -> _Samples:
    """Midpoint cells of the pieces clipped to B(0, radius), given as a _clip table.

    Cells sit on an absolute grid anchored at the piece line's closest
    approach to the origin, so subdividing a piece (or swapping a long
    segment for the ray it stabilizes to) reproduces the same cells bit for
    bit.  All pieces are cut in one pass: the ragged edge grids are laid end
    to end, and a cell is kept when both its edges belong to one piece and
    its length is positive.  A piece's cells depend on its row alone.
    """
    h = radius / cells
    n = (table.shape[1] - 3) // 2
    base, u, (w, lo, up) = table[:, :n], table[:, n:2 * n], table[:, 2 * n:].T
    foot = -_rowdot(base, u)
    k_lo = np.floor((lo - foot) / h).astype(np.int64)
    n_edges = np.ceil((up - foot) / h).astype(np.int64) - k_lo + 1
    piece = np.repeat(np.arange(len(w)), n_edges)
    first = np.cumsum(n_edges) - n_edges
    k = k_lo[piece] + (np.arange(len(piece)) - first[piece])
    edges = np.clip(foot[piece] + k * h, lo[piece], up[piece])
    lens = np.diff(edges)
    keep = (piece[:-1] == piece[1:]) & (lens > 0.0)
    mids = 0.5 * (edges[:-1] + edges[1:])[keep]
    owner = piece[:-1][keep]
    points = base[owner] + mids[:, None] * u[owner]
    return _Samples(points, lens[keep], np.bincount(owner, minlength=len(w)), u, w)


def _contributions(table: np.ndarray, battery: TestBattery) -> np.ndarray:
    """(pieces, functions) quadrature sums of a _clip table's pieces; a piece's
    row depends on its table row alone.  A battery with a table fills the
    matrix from its lumps in one batched pass; any other calls each
    function's value piece by piece."""
    samples = _piece_samples(table, battery.radius, PAIRING_CELLS)
    if battery.table is not None:
        return battery.table.contributions(samples)
    return np.array([
        [w * float(np.dot(lens, f.value(points, u))) for f in battery.functions]
        for points, u, lens, w in samples.per_piece()
    ]).reshape(len(samples.counts), len(battery.functions))


def _pair_all(contribs: np.ndarray) -> np.ndarray:
    """Pairings: each column of _contributions summed in sorted order, so
    equal piece multisets pair identically."""
    return np.sum(np.ascontiguousarray(np.sort(contribs, axis=0).T), axis=1)


def weak_star_distance(v1: DiscreteVarifold, v2: DiscreteVarifold, battery: TestBattery) -> float:
    """Max pairing difference over the battery; zero for equal piece multisets."""
    _same_dim(v2.ambient_dim, v1.ambient_dim, "v2")
    _same_dim(battery.ambient_dim, v1.ambient_dim, "battery")
    p1, p2 = (_pair_all(_contributions(_clip(_piece_rows(v), battery.radius)[0], battery))
              for v in (v1, v2))
    return float(np.max(np.abs(p1 - p2)))


# ---------------------------------------------------------------------------
# Tangent estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentDiagnostics:
    """Distances of the dilation sequence to the estimated cone."""

    lambdas: tuple[float, ...]
    distances: tuple[float, ...]

    @property
    def stabilized_at(self) -> int | None:
        """First index from which the distance is exactly zero onward."""
        nonzero = [i for i, d in enumerate(self.distances) if d != 0.0]
        start = nonzero[-1] + 1 if nonzero else 0
        return start if start < len(self.distances) else None


def dilation_factors(lambdas: Sequence[float]) -> list[float]:
    """The factors as floats; ValueError unless each is positive and finite
    (core._positive) and they strictly decrease."""
    lams = [_positive(l, "dilation factor") for l in lambdas]
    if any(b >= a for a, b in zip(lams, lams[1:])):
        raise ValueError("dilation factors must be strictly decreasing")
    return lams


def tangent_estimate(
    v: DiscreteVarifold,
    x,
    lambdas: Sequence[float],
    battery: TestBattery | None = None,
) -> tuple[ConicVarifold, TangentDiagnostics]:
    """Tangent cone of v at x with stabilization diagnostics.

    The cone is spanned by the pieces incident to x (exact once the dilation
    factor beats the distance to every non-incident piece).  Diagnostics
    report the battery distance between each dilation and the cone; with
    power-of-two dilation factors the sequence hits exactly 0 at the
    stabilization scale, with the floats weak_star_distance gives.  x is
    placed once (core._split).  Every dilation is clipped to the battery
    ball in one stacked pass (batches of about _DILATION_ROWS pieces) that
    sorts the batch once by dilation (see _clip).  A dilation with the
    cone's bytes gets 0.0 unpaired; any other is paired, and then the cone,
    once, a row with a cone row's bytes taking that row's contributions
    unsampled.  Raises ValueError unless x is a finite point of R^n, the
    factors are finite, positive and strictly decreasing and the battery
    lies in R^n, ZeroDensityError off the support, errors as dilate.
    """
    lams = dilation_factors(lambdas)
    p = _point(x, v.ambient_dim)
    if battery is None:
        battery = default_battery(v.ambient_dim)
    _same_dim(battery.ambient_dim, v.ambient_dim, "battery")
    vs, rays = _split(v, p)  # no rays exactly where density(v, x) is 0
    if not rays:
        raise ZeroDensityError("point carries no density; every blow-up is empty")
    cone = conic_atoms(v.ambient_dim, rays)
    k, m = len(vs.seg_w), len(vs.ray_w)
    cone_pieces, ref_contribs, dists = conic_to_discrete(cone), None, []
    ref = _clip(_piece_rows(cone_pieces), battery.radius, np.zeros(cone.n_atoms, int))[0]
    per = max(1, _DILATION_ROWS // (k + m))
    for batch in (lams[j:j + per] for j in range(0, len(lams), per)):
        # the dilation of each stacked row: all segments, then all rays
        ids = np.arange(len(batch))
        group = np.concatenate((ids.repeat(k), ids.repeat(m)))
        # a far piece of an extreme dilation may overflow its chord: the
        # non-finite chord is a miss
        with np.errstate(over="ignore", invalid="ignore"):
            table, meets = _clip(_piece_rows(_dilations(vs, p, batch)), battery.radius, group)
        counts = np.bincount(group[meets], minlength=len(batch))
        for part in np.split(table, np.cumsum(counts)[:-1]):
            if part.tobytes() == ref.tobytes():
                dists.append(0.0)
                continue
            if ref_contribs is None:
                ref_contribs = _contributions(ref, battery)
                ref_pairings = _pair_all(ref_contribs)
            same = (part.view(np.uint64)[:, None, :] == ref.view(np.uint64)).all(axis=2)
            new = ~same.any(axis=1)
            contribs = np.concatenate((ref_contribs[same.argmax(axis=1)[~new]],
                                       _contributions(part[new], battery)))
            dists.append(float(np.max(np.abs(_pair_all(contribs) - ref_pairings))))
    return cone, TangentDiagnostics(tuple(lams), tuple(dists))


# ---------------------------------------------------------------------------
# Projected density bounds for localized cones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityBoundReport:
    """Certified interval check for the projected localized-cone density."""

    lower: float
    upper: float
    lower_bound: float
    upper_bound: float
    pole_distance: float
    atom_mass: float
    epsilon: float
    radius: float


def _projected_localized_density(
    c: ConicVarifold, y: np.ndarray, p: Subspace, r: float
) -> float:
    """Density at pi_P(y) of the weighted projection of the cone cut to B(y, r).

    Computed atom by atom: the ball chord of the ray through z projects to a
    segment along pi_P(z), whose direction is known exactly, so no clipped
    endpoints enter the arithmetic.  A chord contributes its image weight
    when the target point is interior, half at an image endpoint.
    """
    dirs, masses = c.mass_rows()
    q = p.project(y)
    total = 0.0
    for z, m in zip(dirs, masses):
        bh = float(np.dot(z, y))
        perp = y - bh * z  # (y.z)^2 - 1 + r^2 loses about six digits for r < 1e-5
        disc = r * r - float(np.dot(perp, perp))
        if disc <= 0.0:
            continue
        s = math.sqrt(disc)
        t_lo, t_hi = bh - s, bh + s
        if t_hi <= 0.0:
            continue
        t_lo = max(t_lo, 0.0)
        img = p.project(z)
        contraction = float(np.linalg.norm(img))
        if contraction <= 1e-12:
            continue
        t_at_q = float(np.dot(q, img)) / (contraction * contraction)
        perp = float(np.linalg.norm(q - t_at_q * img))
        if perp > 1e-12 * max(1.0, float(np.linalg.norm(q))):
            continue
        end_tol = 1e-12 / contraction
        if abs(t_at_q - t_lo) <= end_tol or abs(t_at_q - t_hi) <= end_tol:
            total += 0.5 * m * contraction
        elif t_lo < t_at_q < t_hi:
            total += m * contraction
    return total


def density_bound_check(
    c: ConicVarifold, y, p: Subspace, r: float, epsilon: float
) -> DensityBoundReport:
    """Check the projected density interval of a cone localized near y.

    Restricts the cone to B(y, r), projects with weights onto the hyperplane
    p, and evaluates the exact density at pi_P(y).  The value is certified
    to lie in [ d*phi, 1.5*epsilon + d*phi ] with d = |pi_P(y)|, provided
    |pi_P(y)| > 10 r and the sphere ball B(y, r) carries mass below
    phi + epsilon.  Violated hypotheses, 0 < r < 1e-5 among them (a NaN r
    fails it), raise PreconditionViolated; a bound failure raises
    DensityBoundViolation.  ValueError unless 0 < epsilon < inf.
    """
    epsilon = _positive(epsilon, "epsilon")
    y = unit(as_vector(y, dim=c.ambient_dim))
    _same_dim(p.ambient_dim, c.ambient_dim, "plane")
    if p.dim != c.ambient_dim - 1:
        raise ValueError("p must be a hyperplane")
    sep = np.linalg.norm(c.atom_directions - y, axis=1)
    hits = np.nonzero(sep <= ATOM_SEPARATION_TOL)[0]
    if hits.size != 1:
        raise ValueError("y must carry exactly one spherical atom")
    phi = float(c.atom_masses[hits[0]])
    pole = float(np.linalg.norm(p.project(y)))
    if not 0.0 < r < 1e-5:
        raise PreconditionViolated("need 0 < r < 1e-5")
    if pole <= 10.0 * r:
        raise PreconditionViolated("bound needs |pi_P(y)| > 10 r")
    dirs, masses = c.mass_rows()
    ball = float(np.sum(masses[np.linalg.norm(dirs - y, axis=1) < r]))
    if ball >= phi + epsilon:
        raise PreconditionViolated("sphere ball mass reaches phi + epsilon")
    value = _projected_localized_density(c, y, p, r)
    lower_bound = pole * phi
    upper_bound = 1.5 * epsilon + pole * phi
    report = DensityBoundReport(
        lower=value,
        upper=value,
        lower_bound=lower_bound,
        upper_bound=upper_bound,
        pole_distance=pole,
        atom_mass=phi,
        epsilon=epsilon,
        radius=r,
    )
    if value < lower_bound - 1e-12 or value > upper_bound + 1e-12:
        raise DensityBoundViolation(f"projected density left its interval: {report}")
    return report


# ---------------------------------------------------------------------------
# Dense-lines stress fixture and radial projection growth
# ---------------------------------------------------------------------------

_PLASTIC = 1.324717957244746
_ALPHA = 1.0 / _PLASTIC
_BETA = 1.0 / _PLASTIC**2


def _frac(x: float) -> float:
    """Fractional part x - floor(x), nonnegative also for negative x (where
    math.modf's is negative); equal to math.modf(x)[0] bit for bit for x >= 0."""
    return x - math.floor(x)


def _quasi_direction(i: int, seed: int, ambient_dim: int) -> np.ndarray:
    s1 = _frac(seed * 0.618033988749895 + 0.1234567)
    s2 = _frac(seed * 0.414213562373095 + 0.7654321)
    if ambient_dim == 2:
        ang = 2.0 * math.pi * _frac(i * _ALPHA + s1)
        return np.array([math.cos(ang), math.sin(ang)])
    if ambient_dim == 3:
        z = 1.0 - 2.0 * _frac(i * _ALPHA + s1)
        ang = 2.0 * math.pi * _frac(i * _BETA + s2)
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        return np.array([rho * math.cos(ang), rho * math.sin(ang), z])
    rng = np.random.Generator(np.random.PCG64(hash((seed, i)) & 0x7FFFFFFF))
    return unit(rng.normal(size=ambient_dim))


def _lattice_points(count: int, ambient_dim: int) -> list[np.ndarray]:
    """First nonzero integer points ordered by (squared norm, lex)."""
    points: list[tuple[float, tuple, np.ndarray]] = []
    shell = 0
    while len(points) < count:
        shell += 1
        rng = range(-shell, shell + 1)
        for idx in np.ndindex(*([2 * shell + 1] * ambient_dim)):
            z = np.array([rng[i] for i in idx], dtype=float)
            if np.max(np.abs(z)) != shell:
                continue
            points.append((float(np.dot(z, z)), tuple(z), z))
        points.sort(key=lambda row: (row[0], row[1]))
    return [z for _, _, z in points[:count]]


def dense_lines_fixture(k: int, seed: int = 0, ambient_dim: int = 3) -> DiscreteVarifold:
    """First k translated lines of a dense-direction stationary family.

    Line i passes through the i-th nonzero lattice point with the i-th
    direction of a quasi-random sequence; each line is realized as two
    opposite rays, hence every vertex balances.  The family is stationary
    for every k while its radial projection mass over any fixed spherical
    cap grows without bound.
    """
    k, ambient_dim = _count(k, "k", 1), _count(ambient_dim, "ambient_dim", 1)
    anchors = _lattice_points(k, ambient_dim)
    rays = []
    for i in range(k):
        u = _quasi_direction(i, seed, ambient_dim)
        rays.append(RayPiece(anchors[i], u, 1.0))
        rays.append(RayPiece(anchors[i], -u, 1.0))
    return DiscreteVarifold(ambient_dim, (), tuple(rays))


def radial_projection_cap_mass(v: DiscreteVarifold, cap_direction, cap_angle: float) -> float:
    """Mass of the radial projection image inside a spherical cap.

    Each piece maps to a great-circle arc with unit multiplicity, so the cap
    mass is the summed arc overlap in closed form.  Pieces through the
    origin have degenerate (zero-mass) images.
    """
    if not 0.0 < cap_angle <= math.pi:
        raise ValueError("cap angle must lie in (0, pi]")
    chat = unit(as_vector(cap_direction, dim=v.ambient_dim))
    cos_alpha = math.cos(cap_angle)
    total = 0.0
    bases, dirs, his, weights = _piece_rows(v)
    for base, u, hi, weight in zip(bases, dirs, his.tolist(), weights.tolist()):
        t_star = -float(np.dot(base, u))
        foot = base + t_star * u
        d = float(np.linalg.norm(foot))
        if d <= 1e-12:
            continue
        what = unit(foot)
        theta_lo = math.atan2(0.0 - t_star, d)
        theta_hi = math.pi / 2.0 if math.isinf(hi) else math.atan2(hi - t_star, d)
        a = float(np.dot(u, chat))
        b = float(np.dot(what, chat))
        amp = math.hypot(a, b)
        if amp <= abs(cos_alpha):
            if cos_alpha > 0.0:
                continue
            total += weight * (theta_hi - theta_lo)
            continue
        center = math.atan2(a, b)
        delta = math.acos(max(-1.0, min(1.0, cos_alpha / amp)))
        for wrap in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
            lo = center - delta + wrap
            hi_arc = center + delta + wrap
            total += weight * max(0.0, min(hi_arc, theta_hi) - max(lo, theta_lo))
    return total


def projection_growth_table(
    k_values: Sequence[int],
    cap_direction,
    cap_angle: float,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """(k, radial cap mass) rows for increasing dense-lines truncations in R^3."""
    rows = []
    for k in sorted(k_values):
        fixture = dense_lines_fixture(k, seed=seed)
        rows.append((k, radial_projection_cap_mass(fixture, cap_direction, cap_angle)))
    return rows
