"""First variation of discrete varifolds and its atomic representation.

For a weighted segment the tangential divergence integrates to an endpoint
difference, so the first variation of a piecewise-linear varifold is a finite
sum of point forces.  Balancing those forces at every vertex is exactly
stationarity, and restricting to a ball turns the sphere crossings into an
outward boundary force measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DegenerateGeometryError,
    DiscreteVarifold,
    _Trusted,
    _ball_chords,
    _chord_rows,
    _is_unit,
    _piece_rows,
    _point,
    _positive,
    _row_norms,
    _rowdot,
    _set_fields,
    _unit_rows,
    as_vector,
    group_ends,
    piece_ends,
    unit,
)

# _plateau is 1 for |t| <= PLATEAU and falls smoothly to 0 at |t| = 1.
PLATEAU = 0.5
# Distance within which boundary_variation counts a piece end as on the
# cutting sphere, and a tangent line's closest point as on its piece.
TANGENCY_TOL = 1e-9
FIELD_CHECK_SAMPLES = 32


@dataclass(frozen=True, eq=False)
class VariationAtom(_Trusted):
    """One point force of the first variation: location, direction, mass."""

    location: np.ndarray
    omega: np.ndarray
    mass: float

    def __post_init__(self):
        location = _point(self.location, None)
        _set_fields(self, location=location, omega=as_vector(self.omega, dim=location.shape[0]),
                    mass=float(self.mass))
        if not _is_unit(self.omega):
            raise ValueError("omega must be a unit vector")
        if not self.mass > 0.0:  # an overflowed residual's inf is a mass
            raise ValueError("atom mass must be positive")


@dataclass(frozen=True, eq=False)
class TestField:
    """A compactly supported smooth vector field with an explicit derivative.

    evaluate(x) -> vector accepts single points.  The field vanishes outside
    the open support ball.  divergence_batch(points, s) evaluates the
    tangential divergence s . (Dg(x) s) for a whole (m, n) block of points
    and a unit s at once.  ValueError unless the support center is a finite
    point and 0 < support_radius < inf.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    support_center: np.ndarray
    support_radius: float
    divergence_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        _set_fields(self, support_center=_point(self.support_center, None),
                    support_radius=_positive(self.support_radius, "support radius"))

    @property
    def ambient_dim(self) -> int:
        return self.support_center.shape[0]

    def validate(self, rng: np.random.Generator) -> None:
        """Spot-check, at FIELD_CHECK_SAMPLES points each, support vanishing
        and divergence_batch against a central difference of s . evaluate
        along s."""
        n = self.ambient_dim
        for _ in range(FIELD_CHECK_SAMPLES):
            d = unit(rng.normal(size=n))
            far = self.support_center + 2.0 * self.support_radius * d
            if np.linalg.norm(self.evaluate(far)) != 0.0:
                raise ValueError("field does not vanish outside its support ball")
        h = 1e-6 * self.support_radius
        for _ in range(FIELD_CHECK_SAMPLES):
            x = self.support_center + self.support_radius * rng.uniform(-0.9, 0.9, size=n)
            s = unit(rng.normal(size=n))
            div = float(self.divergence_batch(x[None, :], s)[0])
            num = float(np.dot(s, self.evaluate(x + h * s) - self.evaluate(x - h * s))) / (2.0 * h)
            if abs(div - num) > 1e-6 * max(1.0, abs(div)):
                raise ValueError("divergence_batch disagrees with finite differences")


# ---------------------------------------------------------------------------
# Smooth profiles and the built-in field library
# ---------------------------------------------------------------------------

def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/(1-t^2)) inside |t| < 1, zero outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - t[m] ** 2))
    return out


def _bump_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    m = np.abs(t) < 1.0
    out[m] = _bump(t[m]) * (-2.0 * t[m] / (1.0 - t[m] ** 2) ** 2)
    return out


def _plateau(t: np.ndarray) -> np.ndarray:
    """Smooth lump: 1 for |t| <= PLATEAU, 0 for |t| >= 1 and for NaN."""
    t = np.abs(np.asarray(t, dtype=float))
    out = np.where(t <= PLATEAU, 1.0, 0.0)
    # the smooth step only where it is neither 0 nor 1: there 0 < u < 1
    mid = (PLATEAU < t) & (t < 1.0)
    u = (1.0 - t[mid]) / (1.0 - PLATEAU)
    a = np.exp(-1.0 / u)
    out[mid] = a / (a + np.exp(-1.0 / (1.0 - u)))
    return out


def _plateau_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    ta = np.abs(t)
    mid = (PLATEAU < ta) & (ta < 1.0)
    u = (1.0 - ta[mid]) / (1.0 - PLATEAU)
    a, b = np.exp(-1.0 / u), np.exp(-1.0 / (1.0 - u))
    s_prime = (a / u ** 2 * b + a * (b / (1.0 - u) ** 2)) / (a + b) ** 2
    out[mid] = -np.sign(t[mid]) * s_prime / (1.0 - PLATEAU)
    return out


def _profile_field(center, radius: float, matrix_or_vector, profile, profile_prime) -> TestField:
    c = as_vector(center)
    arg = np.asarray(matrix_or_vector, dtype=float)
    if arg.ndim == 1:
        # constant vector times radial profile
        def value_of(x):
            return arg
    else:
        def value_of(x):
            return arg @ (x - c)

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x - c))
        p = float(profile(np.atleast_1d(r / radius))[0])
        return p * value_of(x)

    def divergence_batch(points, s):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = pts - c
        r = np.linalg.norm(d, axis=1)
        t = r / radius
        p = profile(t)
        if arg.ndim == 1:
            sAs = 0.0
            vs = np.full(pts.shape[0], float(np.dot(arg, s)))
        else:
            sAs = float(s @ (arg @ s))
            vs = (d @ arg.T) @ s
        out = p * sAs
        safe = r > 0.0
        grad_s = np.zeros_like(r)
        grad_s[safe] = profile_prime(t[safe]) / (radius * r[safe]) * (d[safe] @ s)
        return out + vs * grad_s

    return TestField(evaluate, c, radius, divergence_batch)


def bump_field(center, radius: float, vector) -> TestField:
    """Constant vector modulated by the standard radial bump profile."""
    return _profile_field(center, radius, as_vector(vector), _bump, _bump_prime)


def plateau_field(center, radius: float, vector) -> TestField:
    """Constant vector times a smooth lump equal to 1 on the inner ball."""
    return _profile_field(center, radius, as_vector(vector), _plateau, _plateau_prime)


def linear_field(center, radius: float, matrix) -> TestField:
    """g(x) = lump(|x-c|/radius) * A (x-c); A = I radial, A skew rotational."""
    A = np.array(matrix, dtype=float)
    return _profile_field(center, radius, A, _plateau, _plateau_prime)


def rotation_field(center, radius: float, i: int, j: int, n: int) -> TestField:
    """Bump times the rotation field in the (i, j) plane."""
    A = np.zeros((n, n))
    A[i, j] = -1.0
    A[j, i] = 1.0
    return linear_field(center, radius, A)


# ---------------------------------------------------------------------------
# First variation
# ---------------------------------------------------------------------------

def first_variation(v: DiscreteVarifold, g: TestField) -> float:
    """delta V (g): the derivative of mass along the flow of g.

    Closed form: a segment with direction s and weight w contributes
    w * (g(b).s - g(a).s); a ray contributes only its origin endpoint since
    the far end leaves the compact support.
    """
    if g.ambient_dim != v.ambient_dim:
        raise ValueError("field dimension does not match the varifold")
    total = 0.0
    for a, b, u, w in zip(v.seg_a, v.seg_b, v.seg_u, v.seg_w.tolist()):
        total += w * float(np.dot(g.evaluate(b) - g.evaluate(a), u))
    for o, u, w in zip(v.ray_o, v.ray_d, v.ray_w.tolist()):
        total += -w * float(np.dot(g.evaluate(o), u))
    return total


def first_variation_quadrature(v: DiscreteVarifold, g: TestField,
                               nodes: int = 10_001) -> float:
    """Composite-Simpson quadrature of div_S g along every piece.

    Independent of the endpoint formula; rays are integrated up to their
    exit from the support ball.  An even nodes is raised by one; ValueError
    unless nodes >= 2.
    """
    if not nodes >= 2:
        raise ValueError("nodes must be at least 2")
    if nodes % 2 == 0:
        nodes += 1
    bases, dirs, _, weights = _piece_rows(v)
    # a ray is integrated up to its exit from the support ball
    _, up, meets = _ball_chords(v.ray_o, v.ray_d, np.full(len(v.ray_w), np.inf),
                                g.support_center, g.support_radius)
    exits = np.where(meets, up, 0.0)
    his = np.concatenate((v.seg_len, exits))
    simpson = np.ones(nodes)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    total = 0.0
    for base, u, hi, w in zip(bases, dirs, his.tolist(), weights.tolist()):
        if hi <= 0.0:
            continue
        t = np.linspace(0.0, hi, nodes)
        vals = g.divergence_batch(base + t[:, None] * u, u)
        h = hi / (nodes - 1)
        total += w * float(np.dot(simpson, vals)) * h / 3.0
    return total


def _vertex_forces(v: DiscreteVarifold) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, residuals, norms): one row per vertex of v, in the order of
    the vertices' first ends; see vertex_residuals.

    A vertex whose sum overflows is summed again with its weights scaled by
    2^-64, which is exact, and scaled back.  Where the norm is still inf,
    the row keeps the scaled sum, which carries the residual's direction.
    """
    points, away, weights = piece_ends(v)
    labels = group_ends(points)
    # labels already name each vertex by its first end; np.unique would
    # also import numpy.ma on first use
    is_first = labels == np.arange(len(labels))
    first = np.flatnonzero(is_first)
    vertex = (np.cumsum(is_first) - 1)[labels]
    residual = np.zeros((len(first), v.ambient_dim))
    with np.errstate(over="ignore"):
        np.add.at(residual, vertex, weights[:, None] * away)
    norms = _row_norms(residual)[0]
    big = ~np.isfinite(residual).all(axis=1)
    if big.any():
        ends = big[vertex]
        residual[big] = 0.0
        np.add.at(residual, vertex[ends], (weights[ends] * 2.0**-64)[:, None] * away[ends])
        with np.errstate(over="ignore"):
            norms[big] = _row_norms(residual[big])[0] * 2.0**64
        residual[big & (norms < math.inf)] *= 2.0**64
    return points[first], residual, norms


def vertex_residuals(v: DiscreteVarifold, tol: float = 1e-12) -> list[VariationAtom]:
    """Atomic representation of delta V for a piecewise-linear varifold.

    Piece ends form one vertex when a chain of steps of length at most
    VERTEX_TOL joins them (core.group_ends), so each end counts at exactly
    one vertex, located at the vertex's first end in piece order.  At each
    vertex the residual is the weighted sum of away-pointing unit vectors,
    summed in piece order; a vertex whose residual norm exceeds tol becomes
    an atom.  The reported omega is the flipped residual direction so that

        first_variation(v, g) == sum over atoms of mass * <g(location), omega>

    holds verbatim for every admissible test field.  Atoms come in the order
    of their vertices' first ends.  Raises ValueError unless 0 <= tol < inf.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError("tolerance must be nonnegative and finite")
    points, residual, norms = _vertex_forces(v)
    keep = np.flatnonzero(norms > tol)
    # trusted: omega is unit by _unit_rows, and each mass a norm above tol >= 0
    omega = -_unit_rows(residual[keep])[0]
    return list(map(VariationAtom._trusted, points[keep], omega, norms[keep].tolist()))


def is_stationary(v: DiscreteVarifold, tol: float) -> tuple[bool, float]:
    """Whether every vertex balances at tolerance tol; also the max residual."""
    tol = _positive(tol, "tolerance")
    worst = float(_vertex_forces(v)[2].max(initial=0.0))
    return worst <= tol, worst


def boundary_variation(v: DiscreteVarifold, y, r: float) -> list[VariationAtom]:
    """Boundary force atoms of v restricted to the open ball B(y, r).

    Every transversal crossing x of a piece with the sphere contributes the
    atom (x, s_out, weight), where s_out is the piece direction oriented
    outward; each omega satisfies <omega, (x-y)/r> >= 0.  The crossings are
    the clipped ends of restrict's inner pieces, bit for bit.  Raises
    DegenerateGeometryError when a piece end lies within TANGENCY_TOL of the
    sphere, or a piece touches it by core._chord_rows' scale-free rule at a
    point within TANGENCY_TOL of the piece; the caller should perturb r.  A
    cut centred at a vertex so works at every r above TANGENCY_TOL, but off
    a vertex a piece touches once r^2 nears the rounding of |base - y|^2.
    ValueError unless y is a finite point of R^n and 0 < r < inf.
    """
    c, r = _point(y, v.ambient_dim), _positive(r, "radius")
    base, u, hi, w = _piece_rows(v)

    def ends_on_sphere(p):
        d = p - c
        return np.abs(np.sqrt(_rowdot(d, d)) - r) <= TANGENCY_TOL

    on_sphere = ends_on_sphere(base)
    on_sphere[:len(v.seg_w)] |= ends_on_sphere(v.seg_b)
    bh, disc, noise = _chord_rows(base, u, c, r)
    foot = -bh  # closest approach parameter of the supporting line
    tangent = (np.abs(disc) <= noise) & (-TANGENCY_TOL <= foot) & (foot <= hi + TANGENCY_TOL)
    bad = on_sphere | tangent
    if bad.any():
        # the first bad piece reports, its endpoints before its tangency
        what = "endpoint lies on" if on_sphere[int(np.argmax(bad))] else "is tangent to"
        raise DegenerateGeometryError(f"piece {what} the cutting sphere; perturb the radius")
    lo, up, meets = _ball_chords(base, u, hi, c, r)
    # row-major order: pieces in order, each entry crossing before its exit
    rows, side = np.nonzero(meets[:, None] & np.stack((lo > 0.0, up < hi), axis=1))
    x = base[rows] + np.stack((lo, up), axis=1)[rows, side][:, None] * u[rows]
    # trusted: omega is a unit seg_u or ray_d, or its negation; mass a piece weight
    omega = np.where(side == 0, -1.0, 1.0)[:, None] * u[rows]
    return list(map(VariationAtom._trusted, x, omega, w[rows].tolist()))
