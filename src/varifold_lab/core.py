"""Geometric primitives for one-dimensional varifold calculus.

A discrete varifold is a finite list of weighted segments and rays in R^n.
A conic varifold is a measure on the unit sphere (atoms plus an optional
quadrature-sampled density); its cone is the superposition of rays from the
origin.  All values are immutable after construction and every operation is
a pure function, so everything here is safe to use concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

# Absolute tolerances for geometric predicates (double-precision headroom).
UNIT_TOL = 1e-12
ATOM_SEPARATION_TOL = 1e-9
VERTEX_TOL = 1e-9

# Length below which a clipped sliver is discarded instead of kept as a piece.
SLIVER_TOL = 1e-14

# A chord discriminant at most this multiple of (d.u)^2 + r^2 is rounding
# noise of a tangent line (see _ball_chords).
TANGENT_REL_TOL = 16.0 * np.finfo(float).eps

# smallest normal float: a squared norm below it has lost precision
_TINY = np.finfo(float).tiny


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a read-only float vector, optionally checking its length."""
    v = np.array(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected a vector of length {dim}, got {v.shape[0]}")
    v.setflags(write=False)
    return v


def unit(v: np.ndarray) -> np.ndarray:
    """v / |v|, read-only, by the rule of _unit_rows; ValueError for a zero or non-finite v."""
    with np.errstate(over="ignore"):
        sq = float(np.dot(v, v))
    u = v / math.sqrt(sq) if _TINY <= sq < math.inf else _unit_rows(v[None, :])[0][0]
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n given by an orthonormal basis.

    basis has shape (k, n) with orthonormal rows, 1 <= k < n.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.ambient_dim:
            raise ValueError("basis must have shape (k, ambient_dim)")
        k = b.shape[0]
        if not 1 <= k < self.ambient_dim:
            raise ValueError("subspace dimension must satisfy 1 <= k < n")
        gram = b @ b.T
        if not np.allclose(gram, np.eye(k), rtol=0.0, atol=UNIT_TOL):
            raise ValueError("basis rows must be orthonormal within 1e-12")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def span(cls, *vectors) -> "Subspace":
        """Subspace spanned by the given vectors (orthonormalized)."""
        m = np.atleast_2d(np.array(vectors, dtype=float))
        q, r = np.linalg.qr(m.T)
        keep = np.abs(np.diag(r)) > 1e-13
        b = q.T[keep]
        # fix signs so span(e1) has basis +e1, not -e1
        for i in range(b.shape[0]):
            j = int(np.argmax(np.abs(b[i])))
            if b[i, j] < 0:
                b[i] = -b[i]
        return cls(ambient_dim=m.shape[1], basis=b)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the subspace (points or (m, n) batches)."""
        x = np.asarray(x, dtype=float)
        return (x @ self.basis.T) @ self.basis


@dataclass(frozen=True)
class SegmentPiece:
    """A weighted straight segment [a, b] with multiplicity weight > 0."""

    a: np.ndarray
    b: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        object.__setattr__(self, "b", as_vector(self.b, dim=self.a.shape[0]))
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 < self.weight < math.inf:
            raise ValueError("segment weight must be positive and finite")
        # a NaN or infinite endpoint makes the length NaN or infinite
        if not 0.0 < self.length < math.inf:
            raise ValueError("segment endpoints must be finite and distinct")

    @property
    def length(self) -> float:
        return float(_segment_lengths(self.a[None], self.b[None])[0])

    @property
    def direction(self) -> np.ndarray:
        u = (self.b - self.a) / self.length
        u.setflags(write=False)
        return u


@dataclass(frozen=True)
class RayPiece:
    """A weighted half line from origin along a unit direction."""

    origin: np.ndarray
    direction: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vector(self.origin))
        object.__setattr__(
            self, "direction", as_vector(self.direction, dim=self.origin.shape[0])
        )
        object.__setattr__(self, "weight", float(self.weight))
        if not 0.0 < self.weight < math.inf:
            raise ValueError("ray weight must be positive and finite")
        if not np.isfinite(self.origin).all():
            raise ValueError("ray origin must be finite")
        # written so that a NaN direction fails too
        if not abs(float(np.dot(self.direction, self.direction)) - 1.0) <= 1e-10:
            raise ValueError("ray direction must be a unit vector")


class DegenerateGeometryError(ValueError):
    """A piece degenerates under a cut: it is tangent to, or has an endpoint
    on, a cutting sphere, or a snap collapses it onto a point."""


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows (broadcast over leading axes), each with
    the bits np.dot gives the two rows.

    A stacked (1, n) @ (n, 1) matmul runs numpy's vector dot kernel once per
    row; einsum, row sums and gemv sum in other orders.  The kernel sums a
    strided row in another order too, so the operands are made C-ordered,
    as np.dot's fresh 1-d operands are.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _direction_distances(dirs: np.ndarray) -> np.ndarray:
    """(k, k) distances |dirs[i] - dirs[j]|, each with np.linalg.norm's bits."""
    diff = dirs[:, None, :] - dirs[None, :, :]
    return np.sqrt(_rowdot(diff, diff))


def _rows(x, n: int) -> np.ndarray:
    """A read-only C-ordered (k, n) float array."""
    arr = np.ascontiguousarray(x, dtype=float).reshape(-1, n)
    arr.setflags(write=False)
    return arr


def _column(x) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=float).reshape(-1)
    arr.setflags(write=False)
    return arr


def _row_norms(r: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(|r|, i, u): |r| of every row, with np.linalg.norm's bits except on the
    rows i whose squared norm is not a normal float but whose largest entry
    magnitude s is finite and nonzero: s * |r / s| there (Blue's scaled norm),
    u their directions (r / s) / |r / s|.  i = u = None when there are none."""
    with np.errstate(over="ignore"):
        sq = _rowdot(r, r)
        norms = np.sqrt(sq)
        if _TINY <= sq.min(initial=math.inf) and sq.max(initial=0.0) < math.inf:
            return norms, None, None
        i = np.flatnonzero(~((_TINY <= sq) & (sq < math.inf)))
        s = np.max(np.abs(r[i]), axis=1)
        ok = (0.0 < s) & (s < math.inf)
        i, s = i[ok], s[ok]
        u = r[i] / s[:, None]
        n = np.sqrt(_rowdot(u, u))
        norms[i], u = s * n, u / n[:, None]
    return norms, i, u


def _unit_rows(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r / |r|, |r|) of every row: the bits of r / sqrt(np.dot(r, r)) where that
    squared norm is normal, else _row_norms'.  ValueError for a zero or non-finite row."""
    norms, i, ui = _row_norms(r)
    if i is None:
        return r / norms[:, None], norms
    _check_rows((np.isfinite(r).all(axis=1), "cannot normalize a non-finite vector"),
                (r.any(axis=1), "cannot normalize the zero vector"))
    u = r / norms[:, None]
    u[i] = ui
    return u, norms


def _segment_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|b - a| by _row_norms: inf where b - a leaves the float range."""
    with np.errstate(over="ignore"):
        length = _row_norms(b - a)[0]
    length.setflags(write=False)
    return length


def _check_rows(*checks: tuple[np.ndarray, str]) -> None:
    """ValueError with the message of the first failing check of the first
    row that fails any, as checking the rows one by one would raise."""
    bad = ~np.logical_and.reduce([ok for ok, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(next(msg for ok, msg in checks if not ok[i]))


class DiscreteVarifold:
    """A finite superposition of weighted segments and rays in R^n.

    Coincident or overlapping pieces are kept as separate entries; every
    operation sums contributions and never merges geometry.

    The pieces live in read-only, C-ordered float columns, one row per piece
    in the order given (k segments, m rays):

    - seg_a, seg_b (k, n): segment endpoints; seg_w (k,): their weights;
    - seg_u (k, n), seg_len (k,): unit direction and length of b - a, with
      the bits of SegmentPiece.direction and SegmentPiece.length;
    - ray_o, ray_d (m, n): ray origins and unit directions; ray_w (m,).

    segments and rays are tuples of piece objects, and _piece_rows the
    stacked rows of every piece, built from the columns on first access.
    Values are immutable after construction.
    """

    __slots__ = ("ambient_dim", "seg_a", "seg_b", "seg_w", "seg_u", "seg_len",
                 "ray_o", "ray_d", "ray_w", "_segments", "_rays", "_stacked")

    def __init__(self, ambient_dim: int, segments: Iterable[SegmentPiece] = (),
                 rays: Iterable[RayPiece] = ()):
        segments, rays = tuple(segments), tuple(rays)
        if not all(isinstance(s, SegmentPiece) for s in segments):
            raise TypeError("segments must be SegmentPiece objects")
        if not all(isinstance(r, RayPiece) for r in rays):
            raise TypeError("rays must be RayPiece objects")
        n = ambient_dim
        if any(s.a.shape[0] != n for s in segments) or any(
            r.origin.shape[0] != n for r in rays
        ):
            raise ValueError("piece dimension does not match ambient_dim")
        # every piece is validated already; only the columns are built here
        a = _rows([s.a for s in segments], n)
        b = _rows([s.b for s in segments], n)
        self._assemble(
            n, a, b, _column([s.weight for s in segments]), _segment_lengths(a, b),
            _rows([r.origin for r in rays], n), _rows([r.direction for r in rays], n),
            _column([r.weight for r in rays]),
        )
        object.__setattr__(self, "_segments", segments)
        object.__setattr__(self, "_rays", rays)

    def _assemble(self, n, seg_a, seg_b, seg_w, seg_len, ray_o, ray_d, ray_w):
        """Store the columns, given as read-only arrays; derive seg_u; return self."""
        seg_u = (seg_b - seg_a) / seg_len[:, None]
        seg_u.setflags(write=False)
        for name, value in (
            ("ambient_dim", n), ("seg_a", seg_a), ("seg_b", seg_b), ("seg_w", seg_w),
            ("seg_u", seg_u), ("seg_len", seg_len), ("ray_o", ray_o), ("ray_d", ray_d),
            ("ray_w", ray_w), ("_segments", None), ("_rays", None), ("_stacked", None),
        ):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _from_columns(cls, ambient_dim: int, seg_a, seg_b, seg_w,
                      ray_o, ray_d, ray_w) -> "DiscreteVarifold":
        """A varifold from piece columns, with every check of the piece
        constructors applied row by row (the first failing row reports)."""
        n = ambient_dim
        a, b, w = _rows(seg_a, n), _rows(seg_b, n), _column(seg_w)
        length = _segment_lengths(a, b)
        _check_rows(
            ((0.0 < w) & (w < math.inf), "segment weight must be positive and finite"),
            # a NaN or infinite endpoint makes the length NaN or infinite
            ((0.0 < length) & (length < math.inf),
             "segment endpoints must be finite and distinct"),
        )
        o, u, rw = _rows(ray_o, n), _rows(ray_d, n), _column(ray_w)
        _check_rows(
            ((0.0 < rw) & (rw < math.inf), "ray weight must be positive and finite"),
            (np.isfinite(o).all(axis=1), "ray origin must be finite"),
            # written so that a NaN direction fails too
            (np.abs(_rowdot(u, u) - 1.0) <= 1e-10, "ray direction must be a unit vector"),
        )
        return cls.__new__(cls)._assemble(n, a, b, w, length, o, u, rw)

    def __reduce__(self):
        return (DiscreteVarifold._from_columns, (
            self.ambient_dim, self.seg_a, self.seg_b, self.seg_w,
            self.ray_o, self.ray_d, self.ray_w,
        ))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteVarifold is immutable")

    def __repr__(self) -> str:
        return (f"DiscreteVarifold(ambient_dim={self.ambient_dim}, "
                f"segments={len(self.seg_w)}, rays={len(self.ray_w)})")

    @property
    def segments(self) -> tuple[SegmentPiece, ...]:
        if self._segments is None:
            object.__setattr__(self, "_segments", tuple(
                SegmentPiece(a, b, w)
                for a, b, w in zip(self.seg_a, self.seg_b, self.seg_w.tolist())
            ))
        return self._segments

    @property
    def rays(self) -> tuple[RayPiece, ...]:
        if self._rays is None:
            object.__setattr__(self, "_rays", tuple(
                RayPiece(o, d, w)
                for o, d, w in zip(self.ray_o, self.ray_d, self.ray_w.tolist())
            ))
        return self._rays

    @property
    def is_empty(self) -> bool:
        return not (len(self.seg_w) or len(self.ray_w))

    def __add__(self, other: "DiscreteVarifold") -> "DiscreteVarifold":
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return DiscreteVarifold._from_columns(self.ambient_dim, *(
            np.concatenate((getattr(self, name), getattr(other, name)))
            for name in ("seg_a", "seg_b", "seg_w", "ray_o", "ray_d", "ray_w")
        ))


# ---------------------------------------------------------------------------
# Sphere quadrature grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes and weights on the unit sphere, named by a descriptor.

    Descriptors: "s1:<N>" is the uniform angular grid on the circle with
    trapezoid weights 2*pi/N; "s2:<NPOLAR>x<NAZ>" is a product grid on S^2,
    midpoint in the polar angle (sin-weighted) times uniform azimuth.
    """

    descriptor: str
    nodes: np.ndarray
    weights: np.ndarray
    angles: np.ndarray | None = None  # S^1 grids keep their angles

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.angles is not None:
            a = np.array(self.angles, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, "angles", a)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.nodes.shape[1]


def circle_grid(n_nodes: int = 720) -> SphereGrid:
    """Uniform angular grid on S^1 with equal weights 2*pi/N."""
    if n_nodes < 4:
        raise ValueError("need at least 4 nodes on the circle")
    theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(n_nodes, 2.0 * np.pi / n_nodes)
    return SphereGrid(f"s1:{n_nodes}", nodes, weights, angles=theta)


def sphere_grid(n_polar: int = 64, n_azimuth: int = 128) -> SphereGrid:
    """Product grid on S^2: midpoint rule in polar angle, uniform azimuth."""
    if n_polar < 2 or n_azimuth < 4:
        raise ValueError("grid too coarse")
    pol = (np.arange(n_polar) + 0.5) * np.pi / n_polar
    az = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    P, A = np.meshgrid(pol, az, indexing="ij")
    nodes = np.column_stack(
        [
            (np.sin(P) * np.cos(A)).ravel(),
            (np.sin(P) * np.sin(A)).ravel(),
            np.cos(P).ravel(),
        ]
    )
    w = (np.sin(P) * (np.pi / n_polar) * (2.0 * np.pi / n_azimuth)).ravel()
    return SphereGrid(f"s2:{n_polar}x{n_azimuth}", nodes, w)


def grid_from_descriptor(descriptor: str) -> SphereGrid:
    """Rebuild a quadrature grid from its serialized descriptor string."""
    kind, _, spec = descriptor.partition(":")
    if kind == "s1":
        return circle_grid(int(spec))
    if kind == "s2":
        np_, _, na = spec.partition("x")
        return sphere_grid(int(np_), int(na))
    raise ValueError(f"unknown sphere grid descriptor {descriptor!r}")


@dataclass(frozen=True)
class SampledDensity:
    """A nonnegative density on the sphere sampled at quadrature nodes."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(v)):
            raise ValueError("density values must be finite")
        if np.any(v < 0.0):
            raise ValueError("density values must be nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def total_mass(self) -> float:
        return float(np.dot(self.grid.weights, self.values))


@dataclass(frozen=True)
class ConicVarifold:
    """A conic 1-varifold: a measure mu on S^{n-1}, rays weighted by d(mu).

    atom_directions has shape (k, n) with pairwise-distinct unit rows and
    atom_masses shape (k,) positive.  density optionally adds a sampled
    continuous part.
    """

    ambient_dim: int
    atom_directions: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    atom_masses: np.ndarray = field(default_factory=lambda: np.zeros(0))
    density: SampledDensity | None = None

    def __post_init__(self):
        dirs = np.array(self.atom_directions, dtype=float)
        if dirs.size == 0:
            dirs = np.zeros((0, self.ambient_dim))
        if dirs.ndim != 2 or dirs.shape[1] != self.ambient_dim:
            raise ValueError("atom_directions must have shape (k, ambient_dim)")
        self._set_atoms(dirs, np.array(self.atom_masses, dtype=float), rows_checked=False)

    @classmethod
    def _from_unit_rows(cls, ambient_dim: int, dirs: np.ndarray, masses: np.ndarray,
                        density: SampledDensity | None) -> "ConicVarifold":
        """A cone from fresh (k, ambient_dim) rows that conic_atoms has made
        unit and pairwise distinct, by the constructor's tolerances: every
        other check of the constructor still runs."""
        cone = cls.__new__(cls)
        cone.__dict__.update(ambient_dim=ambient_dim, density=density)
        cone._set_atoms(dirs, masses, rows_checked=True)
        return cone

    def _set_atoms(self, dirs: np.ndarray, masses: np.ndarray, rows_checked: bool) -> None:
        if masses.shape != (dirs.shape[0],):
            raise ValueError("atom_masses must match atom_directions")
        if not (np.all(np.isfinite(dirs)) and np.all(np.isfinite(masses))):
            raise ValueError("atom directions and masses must be finite")
        if np.any(masses <= 0.0):
            raise ValueError("atom masses must be positive")
        if not rows_checked:
            norms = np.linalg.norm(dirs, axis=1)
            if dirs.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-10:
                raise ValueError("atom directions must be unit vectors")
            # pairwise distinct: only the diagonal lies within the tolerance
            if np.count_nonzero(_direction_distances(dirs) <= ATOM_SEPARATION_TOL) > len(dirs):
                raise ValueError("atom directions must be pairwise distinct")
        if self.density is not None and self.density.grid.ambient_dim != self.ambient_dim:
            raise ValueError("density grid dimension does not match ambient_dim")
        dirs.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "atom_directions", dirs)
        object.__setattr__(self, "atom_masses", masses)

    @property
    def n_atoms(self) -> int:
        return self.atom_directions.shape[0]

    @property
    def is_empty(self) -> bool:
        return self.n_atoms == 0 and self.density is None

    def mass_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(directions, masses) of every atom, then of every density node
        with positive mass (quadrature weight times value)."""
        dirs = [self.atom_directions]
        masses = [self.atom_masses]
        if self.density is not None:
            g = self.density.grid
            node_masses = g.weights * self.density.values
            keep = node_masses > 0.0
            dirs.append(g.nodes[keep])
            masses.append(node_masses[keep])
        return np.vstack(dirs), np.concatenate(masses)

    @property
    def total_mass(self) -> float:
        m = float(np.sum(self.atom_masses))
        if self.density is not None:
            m += self.density.total_mass
        return m


def conic_atoms(ambient_dim: int, atoms: Iterable[tuple[Sequence[float], float]],
                density: SampledDensity | None = None) -> ConicVarifold:
    """Build a ConicVarifold from (direction, mass) pairs, merging duplicates.

    Directions already unit to within rounding are kept bit for bit, so a
    cone assembled from existing ray directions realizes exactly those rays;
    others go through _unit_rows.  In input order, a direction within
    ATOM_SEPARATION_TOL of an atom kept before it adds its mass to the
    first such atom; any other is kept as a new atom.
    """
    atoms = list(atoms)
    dirs = np.array([d for d, _ in atoms] or np.zeros((0, ambient_dim)), dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != ambient_dim:
        raise ValueError("atom_directions must have shape (k, ambient_dim)")
    masses = [float(m) for _, m in atoms]
    with np.errstate(over="ignore"):  # a NaN or infinite row fails in _unit_rows
        off = ~(np.abs(_rowdot(dirs, dirs) - 1.0) <= 1e-13)
    if off.any():
        dirs[off] = _unit_rows(dirs[off])[0]
    near = (_direction_distances(dirs) <= ATOM_SEPARATION_TOL).tolist()
    kept: list[int] = []
    for j in range(len(masses)):
        i = next((i for i in kept if near[j][i]), None)
        if i is None:
            kept.append(j)
        else:
            masses[i] += masses[j]
    return ConicVarifold._from_unit_rows(
        ambient_dim, dirs[kept], np.array([masses[i] for i in kept], dtype=float), density)


@dataclass(frozen=True)
class DensityValue:
    """Lower and upper one-dimensional density at a point; value when equal."""

    lower: float
    upper: float
    value: float | None = None

    def __post_init__(self):
        if self.lower < 0.0 or self.upper < self.lower:
            raise ValueError("need 0 <= lower <= upper")
        if self.value is not None and abs(self.value - self.lower) > UNIT_TOL:
            raise ValueError("value must equal lower when present")


# ---------------------------------------------------------------------------
# Line / ball clipping
# ---------------------------------------------------------------------------

def _piece_rows(v: DiscreteVarifold) -> tuple[np.ndarray, ...]:
    """(base, unit direction, parameter upper bound, weight) of every piece,
    segments then rays, as stacked read-only rows: a segment runs from seg_a
    along seg_u up to seg_len, a ray from ray_o along ray_d without bound.
    Built once per varifold."""
    if v._stacked is None:
        rows = (
            np.concatenate((v.seg_a, v.ray_o)),
            np.concatenate((v.seg_u, v.ray_d)),
            np.concatenate((v.seg_len, np.full(len(v.ray_w), math.inf))),
            np.concatenate((v.seg_w, v.ray_w)),
        )
        for arr in rows:
            arr.setflags(write=False)
        object.__setattr__(v, "_stacked", rows)
    return v._stacked


def _chord_rows(base: np.ndarray, u: np.ndarray, center: np.ndarray,
                radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, (bh, disc) of the chord of the line base + t*u (u a unit
    vector) through the open ball: the line meets the ball on
    (-bh - sqrt(disc), -bh + sqrt(disc)) when disc > 0 and misses it
    otherwise, and -bh is its closest approach to the center.  Every chord
    of a piece in the library is taken here."""
    d = base - center
    bh = _rowdot(d, u)
    return bh, bh * bh - (_rowdot(d, d) - radius * radius)


def _ball_chords(base: np.ndarray, u: np.ndarray, hi: np.ndarray, center: np.ndarray,
                 radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the parameter interval (lo, up) of base + t*u, 0 <= t <= hi,
    inside the open ball, and the mask of rows whose interval is nonempty.

    Row by row the chord of _chord_rows clamped by max(lo, 0.0) and
    min(up, hi); lo and up are meaningless where the mask is False.  A line
    whose discriminant is within TANGENT_REL_TOL of (d.u)^2 + r^2 counts as
    tangent and misses: its chord would be the square root of rounding
    noise, which differs between a piece and the pieces clipped from it.
    """
    bh, disc = _chord_rows(base, u, center, radius)
    hit = disc > TANGENT_REL_TOL * (bh * bh + radius * radius)
    s = np.sqrt(np.where(hit, disc, 0.0))
    lo, up = -bh - s, -bh + s
    lo = np.where(0.0 > lo, 0.0, lo)
    up = np.where(hi < up, hi, up)
    return lo, up, hit & (up > lo)


def mass(v: DiscreteVarifold, center, radius: float) -> float:
    """Total weighted length of v inside the open ball B(center, radius)."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c = as_vector(center, dim=v.ambient_dim)
    base, u, hi, w = _piece_rows(v)
    lo, up, meets = _ball_chords(base, u, hi, c, radius)
    parts = w[meets] * (up[meets] - lo[meets])
    # a running sum in piece order, as a loop of total += part gives
    return float(np.cumsum(parts)[-1]) if parts.size else 0.0


def _locate_point(v: DiscreteVarifold, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Masks (start, end, inside) over the piece rows, segments then rays: the
    one rule placing p for density, split_at_point and incident_rays.  An end
    holds p within VERTEX_TOL; the interior holds p when no end does, p's
    offset |d - (d.u) u| from the line (d = p - start) is at most VERTEX_TOL
    and d.u lies in (VERTEX_TOL, length - VERTEX_TOL)."""
    base, u, hi, _ = _piece_rows(v)
    start = _segment_lengths(p, base) <= VERTEX_TOL
    end = np.zeros_like(start)
    end[:len(v.seg_w)] = _segment_lengths(p, v.seg_b) <= VERTEX_TOL
    # a difference off the float range is inf or NaN, which no mask admits
    with np.errstate(over="ignore", invalid="ignore"):
        d = p - base
        t = _rowdot(d, u)
        off = _row_norms(d - t[:, None] * u)[0]
    inside = ~(start | end) & (off <= VERTEX_TOL) & (VERTEX_TOL < t) & (t < hi - VERTEX_TOL)
    return start, end, inside


def density(v: DiscreteVarifold, x) -> DensityValue:
    """One-dimensional density of v at x (exact for piecewise-linear v): the
    weight of each piece whose interior holds x plus half the weight for each
    piece end at x, by _locate_point; so half the summed weights of
    incident_rays(split_at_point(v, x), x).  Lower and upper densities
    coincide because finite piece lists make the mass ratio eventually
    constant in the radius.
    """
    start, end, inside = _locate_point(v, as_vector(x, dim=v.ambient_dim))
    share = np.where(inside, 1.0, 0.5 * start + 0.5 * end)
    parts = (share * _piece_rows(v)[3])[share > 0.0]
    # a running sum in piece order, as a loop of total += part gives
    total = float(np.cumsum(parts)[-1]) if parts.size else 0.0
    return DensityValue(lower=total, upper=total, value=total)


def _dilations(v: DiscreteVarifold, c: np.ndarray, lams: Sequence[float]) -> DiscreteVarifold:
    """Images of v under y -> (y - c) / lam for all lams, stacked (all segments,
    then all rays, in factor order) with the bits of their own image; raises
    OverflowError off the float range, DegenerateGeometryError on a collapse."""
    n, k, lam = v.ambient_dim, len(lams), np.asarray(lams, dtype=float)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, o = (_rows((x - c) / lam, n) for x in (v.seg_a, v.seg_b, v.ray_o))
        length = _segment_lengths(a, b)  # NaN or inf where a, b or b - a overflow
    if not (np.isfinite(o).all() and (length < math.inf).all()):
        raise OverflowError("a dilation leaves the float range")
    if not length.all():
        raise DegenerateGeometryError("a dilated segment collapses onto a point")
    return DiscreteVarifold.__new__(DiscreteVarifold)._assemble(
        n, a, b, _column(np.tile(v.seg_w, k)), length,
        o, _rows(np.tile(v.ray_d, (k, 1)), n), _column(np.tile(v.ray_w, k)))


def dilate(v: DiscreteVarifold, x, lam: float) -> DiscreteVarifold:
    """Image of v under y -> (y - x) / lam; weights unchanged.  OverflowError
    when it leaves the float range, DegenerateGeometryError on a collapse."""
    if not lam > 0.0:
        raise ValueError("dilation factor must be positive")
    return _dilations(v, as_vector(x, dim=v.ambient_dim), [lam])


def restrict(v: DiscreteVarifold, center, radius: float,
             keep: Literal["inside", "outside"] = "inside") -> DiscreteVarifold:
    """Clip every piece to the open ball B(center, radius) or its complement."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if keep not in ("inside", "outside"):
        raise ValueError("keep must be 'inside' or 'outside'")
    n = v.ambient_dim
    c = as_vector(center, dim=n)
    base, u, hi, w = _piece_rows(v)
    lo, up, meets = _ball_chords(base, u, hi, c, radius)
    empty = np.zeros((0, n))
    if keep == "inside":
        take = meets & (up - lo > SLIVER_TOL)
        return DiscreteVarifold._from_columns(
            n, base[take] + lo[take, None] * u[take], base[take] + up[take, None] * u[take],
            w[take], empty, empty, (),
        )
    # complement: each piece minus its inside interval [lo, up].  A piece the
    # ball misses stays whole; one it meets leaves the segment [0, lo], for a
    # segment also [up, hi], and for a ray the ray from up on.  Segments are
    # emitted in piece order, slot [0, lo] (or the whole piece) before slot
    # [up, hi].
    seg = np.arange(len(w)) < len(v.seg_w)
    whole = seg & ~meets
    far = np.where(seg, hi, 0.0)  # a ray has no far end
    starts = np.stack((np.where(whole[:, None], base, base + 0.0 * u),
                       base + up[:, None] * u), 1)
    stops = np.stack((np.where(whole[:, None], np.concatenate((v.seg_b, v.ray_o)),
                               base + lo[:, None] * u),
                      base + far[:, None] * u), 1)
    slots = np.stack((whole | (meets & (lo > SLIVER_TOL)),
                      seg & meets & (far - up > SLIVER_TOL)), 1)
    tail = ~seg & (~meets | (up < math.inf))
    ray_o = np.where(meets[:, None], base + up[:, None] * u, base)
    return DiscreteVarifold._from_columns(
        n, starts[slots], stops[slots], np.repeat(w, 2)[slots.ravel()],
        ray_o[tail], u[tail], w[tail],
    )


def conic_to_discrete(c: ConicVarifold) -> DiscreteVarifold:
    """Realize the cone of a conic varifold as rays from the origin.

    Atoms become rays with their own masses; density nodes become rays with
    quadrature-weighted masses.
    """
    if c.is_empty:
        raise ValueError("conic varifold has neither atoms nor density")
    dirs, masses = c.mass_rows()
    empty = np.zeros((0, c.ambient_dim))
    return DiscreteVarifold._from_columns(
        c.ambient_dim, empty, empty, (), np.zeros(dirs.shape), dirs, masses
    )


# ---------------------------------------------------------------------------
# Mode-exact integrals of sampled circle densities
# ---------------------------------------------------------------------------

def _circle_modes(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients a_k (k = 0..N//2) of the trigonometric interpolant."""
    return np.fft.rfft(np.asarray(values, dtype=float)) / len(values)


def _integrate_modes(coeffs: np.ndarray, kernel_hat: np.ndarray, n_nodes: int) -> float:
    """Real integral sum over modes; kernel_hat[k] = int e^{ik theta} K(theta)."""
    vals = coeffs * kernel_hat
    total = vals[0].real
    if n_nodes % 2 == 0:
        total += 2.0 * float(np.sum(vals[1:-1]).real) + vals[-1].real
    else:
        total += 2.0 * float(np.sum(vals[1:]).real)
    return total


def circle_arc_mass(c: ConicVarifold, lo: float, hi: float) -> float:
    """mu of the angular arc (lo, hi) for a conic varifold on S^1.

    Atoms count when their angle falls in the arc modulo 2*pi; the sampled
    density is integrated mode-exactly as a trigonometric interpolant.
    """
    if c.ambient_dim != 2:
        raise ValueError("arc masses are defined on the circle only")
    if hi <= lo:
        raise ValueError("need lo < hi")
    total = 0.0
    for i in range(c.n_atoms):
        ang = math.atan2(c.atom_directions[i, 1], c.atom_directions[i, 0])
        if (ang - lo) % (2.0 * np.pi) < hi - lo:
            total += float(c.atom_masses[i])
    if c.density is not None:
        n = c.density.grid.size
        coeffs = _circle_modes(c.density.values)
        ks = np.arange(len(coeffs))
        kernel = np.empty(len(coeffs), dtype=complex)
        kernel[0] = hi - lo
        kk = ks[1:]
        kernel[1:] = (np.exp(1j * kk * hi) - np.exp(1j * kk * lo)) / (1j * kk)
        total += _integrate_modes(coeffs, kernel, n)
    return total


# ---------------------------------------------------------------------------
# Vertex bookkeeping shared by the variation and blow-up machinery
# ---------------------------------------------------------------------------

def split_at_point(v: DiscreteVarifold, x) -> DiscreteVarifold:
    """Split every piece whose relative interior holds x (by _locate_point)
    at x exactly.  Ends at x are snapped onto x, and every piece touching x
    is re-anchored to start there, so that dilations about x keep the anchor
    at the exact origin.  Raises DegenerateGeometryError when a segment's
    start snaps onto x and its other end is x itself.
    """
    n, ns = v.ambient_dim, len(v.seg_w)
    p = as_vector(x, dim=n)
    start, end, inside = _locate_point(v, p)
    # a snapped end becomes the start: a -> x, or (a, b) -> (x, a) when
    # only b snaps
    snap_b = end[:ns] & ~start[:ns]
    a = np.where((start[:ns] | snap_b)[:, None], p, v.seg_a)
    b = np.where(snap_b[:, None], v.seg_a, v.seg_b)
    if not _segment_lengths(a, b).all():
        raise DegenerateGeometryError("a segment collapses onto the split point")
    split, tail = inside[:ns], inside[ns:]
    # segments in order, each as (a, b), or as (x, a) then (x, b) when split
    starts = np.stack((np.where(split[:, None], p, a), np.broadcast_to(p, a.shape)), 1)
    stops = np.stack((np.where(split[:, None], a, b), b), 1)
    slots = np.stack((np.ones_like(split), split), 1)
    o = np.where(start[ns:, None], p, v.ray_o)
    # a split ray leaves the segment (x, o), after every segment, and the
    # ray from x
    return DiscreteVarifold._from_columns(
        n, np.concatenate((starts[slots], np.broadcast_to(p, o[tail].shape))),
        np.concatenate((stops[slots], o[tail])),
        np.concatenate((np.repeat(v.seg_w, 2)[slots.ravel()], v.ray_w[tail])),
        np.where(tail[:, None], p, o), v.ray_d, v.ray_w,
    )


def piece_ends(v: DiscreteVarifold) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex index of v: one row per piece end, as (points, away, weights).

    Rows run a, b for each segment in order, then one row per ray origin.
    away[i] is the unit vector from end i into its piece: seg_u at a (the
    bits of unit(b - a) where |b - a|^2 is a normal float), its negation at
    b, the direction at a ray origin.
    """
    ns = len(v.seg_w)
    n = v.ambient_dim
    points = np.concatenate((np.stack((v.seg_a, v.seg_b), 1).reshape(2 * ns, n), v.ray_o))
    away = np.concatenate((np.stack((v.seg_u, -v.seg_u), 1).reshape(2 * ns, n), v.ray_d))
    weights = np.concatenate((np.repeat(v.seg_w, 2), v.ray_w))
    return points, away, weights


def group_ends(points: np.ndarray) -> np.ndarray:
    """Vertex label of every point: the lowest index in its group.

    Points form one group when a chain of steps of length at most VERTEX_TOL
    joins them (the transitive closure of |p - q| <= VERTEX_TOL), so every
    point belongs to exactly one group.  Points are sorted by their
    projection on a fixed generic axis and split wherever consecutive keys
    differ by more than the tolerance, which no step inside a group can
    straddle.  A window whose points all lie within the tolerance of its
    lowest-index point is one group; any other window is resolved exactly
    by propagating labels over its pairwise distance matrix.
    """
    m, n = points.shape
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    key = points @ unit(np.cos(np.arange(1.0, n + 1.0)))
    order = np.argsort(key, kind="stable")
    ks = key[order]
    # rounding may stretch a step of VERTEX_TOL slightly in the keys; the
    # slack keeps such a step inside one window
    slack = 8.0 * n * np.finfo(float).eps * float(np.max(np.abs(ks)))
    gap = VERTEX_TOL * (1.0 + 1e-9) + slack
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ks) > gap) + 1))
    sizes = np.diff(np.append(starts, m))
    window = np.repeat(np.arange(len(starts)), sizes)
    labels = np.minimum.reduceat(order, starts)[window]
    far = np.linalg.norm(points[order] - points[labels], axis=1) > VERTEX_TOL
    for w in np.flatnonzero(np.logical_or.reduceat(far, starts)):
        lo, hi = starts[w], starts[w] + sizes[w]
        idx = order[lo:hi]
        p = points[idx]
        near = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2) <= VERTEX_TOL
        lab = idx
        while True:
            nxt = np.where(near, lab[None, :], m).min(axis=1)
            if np.array_equal(nxt, lab):
                break
            lab = nxt
        labels[lo:hi] = lab
    out = np.empty(m, dtype=np.intp)
    out[order] = labels
    return out


def incident_rays(v: DiscreteVarifold, x) -> list[tuple[np.ndarray, float]]:
    """(away-direction, weight) for every piece end at x, by _locate_point.

    The rows of piece_ends(v) at x, in their order.
    """
    start, end, _ = _locate_point(v, as_vector(x, dim=v.ambient_dim))
    ns = len(v.seg_w)
    _, away, weights = piece_ends(v)
    hit = np.flatnonzero(np.concatenate((np.stack((start[:ns], end[:ns]), 1).ravel(),
                                         start[ns:])))
    return [(away[i], float(weights[i])) for i in hit]
