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
    _chord_rows,
    _piece_rows,
    _rowdot,
    as_vector,
    group_ends,
    piece_ends,
    unit,
)


# smallest normal float: a squared norm below it has lost precision
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class VariationAtom:
    """One point force of the first variation: location, direction, mass."""

    location: np.ndarray
    omega: np.ndarray
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "location", as_vector(self.location))
        object.__setattr__(self, "omega", as_vector(self.omega, dim=self.location.shape[0]))
        object.__setattr__(self, "mass", float(self.mass))
        # written so that a NaN omega fails too
        if not abs(float(np.dot(self.omega, self.omega)) - 1.0) <= 1e-10:
            raise ValueError("omega must be a unit vector")
        if self.mass <= 0.0:
            raise ValueError("atom mass must be positive")


@dataclass(frozen=True)
class TestField:
    """A compactly supported smooth vector field with an explicit jacobian.

    evaluate(x) -> vector and jacobian(x) -> (n, n) matrix; both must accept
    single points.  The field vanishes outside the open support ball.
    divergence_batch(points, s) evaluates the tangential divergence
    s . (Dg(x) s) for a whole (m, n) block of points and a unit s at once.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    support_center: np.ndarray
    support_radius: float
    divergence_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "support_center", as_vector(self.support_center))
        object.__setattr__(self, "support_radius", float(self.support_radius))
        if not math.isfinite(self.support_radius) or self.support_radius <= 0.0:
            raise ValueError("support radius must be finite and positive")

    @property
    def ambient_dim(self) -> int:
        return self.support_center.shape[0]

    def validate(self, rng: np.random.Generator, samples: int = 32) -> None:
        """Spot-check support vanishing and jacobian-vs-finite-differences."""
        n = self.ambient_dim
        for _ in range(samples):
            d = unit(rng.normal(size=n))
            far = self.support_center + 2.0 * self.support_radius * d
            if np.linalg.norm(self.evaluate(far)) != 0.0:
                raise ValueError("field does not vanish outside its support ball")
        h = 1e-6 * self.support_radius
        for _ in range(samples):
            x = self.support_center + self.support_radius * rng.uniform(-0.9, 0.9, size=n)
            jac = self.jacobian(x)
            num = np.empty_like(jac)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                num[:, j] = (self.evaluate(x + e) - self.evaluate(x - e)) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(jac))))
            if np.max(np.abs(jac - num)) > 1e-6 * scale:
                raise ValueError("jacobian disagrees with finite differences")


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
    tm = t[m]
    out[m] = np.exp(-1.0 / (1.0 - tm**2)) * (-2.0 * tm / (1.0 - tm**2) ** 2)
    return out


def _half_exp(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = u > 0.0
    out[m] = np.exp(-1.0 / u[m])
    return out


def _plateau(t: np.ndarray, plateau: float = 0.5) -> np.ndarray:
    """Smooth lump: 1 for |t| <= plateau, 0 for |t| >= 1."""
    t = np.abs(np.asarray(t, dtype=float))
    u = (1.0 - t) / (1.0 - plateau)
    a = _half_exp(u)
    b = _half_exp(1.0 - u)
    out = np.where(t >= 1.0, 0.0, a / np.where(a + b == 0.0, 1.0, a + b))
    return np.where(t <= plateau, 1.0, out)


def _plateau_prime(t: np.ndarray, plateau: float = 0.5) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    sign = np.sign(t)
    ta = np.abs(t)
    u = (1.0 - ta) / (1.0 - plateau)
    a = _half_exp(u)
    b = _half_exp(1.0 - u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ap = np.where(u > 0.0, a / np.maximum(u, 1e-300) ** 2, 0.0)
        bp = np.where(1.0 - u > 0.0, b / np.maximum(1.0 - u, 1e-300) ** 2, 0.0)
        s_prime = np.where(
            (a + b) > 0.0, (ap * b + a * bp) / np.maximum((a + b) ** 2, 1e-300), 0.0
        )
    inner = (ta > plateau) & (ta < 1.0)
    return np.where(inner, -sign * s_prime / (1.0 - plateau), 0.0)


def _profile_field(center, radius: float, matrix_or_vector, profile, profile_prime) -> TestField:
    c = as_vector(center)
    n = c.shape[0]
    arg = np.asarray(matrix_or_vector, dtype=float)
    if arg.ndim == 1:
        # constant vector times radial profile
        def value_of(x):
            return arg

        def deriv_of(x):
            return np.zeros((n, n))
    else:
        def value_of(x):
            return arg @ (x - c)

        def deriv_of(x):
            return arg

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        r = float(np.linalg.norm(x - c))
        p = float(profile(np.atleast_1d(r / radius))[0])
        return p * value_of(x)

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        d = x - c
        r = float(np.linalg.norm(d))
        t = r / radius
        p = float(profile(np.atleast_1d(t))[0])
        jac = p * deriv_of(x)
        if r > 0.0:
            grad = float(profile_prime(np.atleast_1d(t))[0]) / (radius * r) * d
            jac = jac + np.outer(value_of(x), grad)
        return jac

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

    return TestField(evaluate, jacobian, c, radius, divergence_batch)


def bump_field(center, radius: float, vector) -> TestField:
    """Constant vector modulated by the standard radial bump profile."""
    return _profile_field(center, radius, as_vector(vector), _bump, _bump_prime)


def plateau_field(center, radius: float, vector, plateau: float = 0.5) -> TestField:
    """Constant vector times a smooth lump equal to 1 on the inner ball."""
    return _profile_field(
        center,
        radius,
        as_vector(vector),
        lambda t: _plateau(t, plateau),
        lambda t: _plateau_prime(t, plateau),
    )


def linear_field(center, radius: float, matrix, plateau: float = 0.5) -> TestField:
    """g(x) = lump(|x-c|/radius) * A (x-c); A = I radial, A skew rotational."""
    A = np.array(matrix, dtype=float)
    return _profile_field(
        center,
        radius,
        A,
        lambda t: _plateau(t, plateau),
        lambda t: _plateau_prime(t, plateau),
    )


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
    exit from the support ball.
    """
    if nodes % 2 == 0:
        nodes += 1
    bases, dirs, _, weights = _piece_rows(v)
    # a ray is integrated up to its exit from the support ball
    bh, disc = _chord_rows(v.ray_o, v.ray_d, g.support_center, g.support_radius)
    hit = disc > 0.0
    exits = np.where(hit, -bh + np.sqrt(np.where(hit, disc, 0.0)), 0.0)
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
    norms = _row_norms(residual)
    big = ~np.isfinite(residual).all(axis=1)
    if big.any():
        ends = big[vertex]
        residual[big] = 0.0
        np.add.at(residual, vertex[ends], (weights[ends] * 2.0**-64)[:, None] * away[ends])
        with np.errstate(over="ignore"):
            norms[big] = _row_norms(residual[big]) * 2.0**64
        residual[big & (norms < math.inf)] *= 2.0**64
    return points[first], residual, norms


def _row_norms(r: np.ndarray) -> np.ndarray:
    """|r| of every row, with the bits np.linalg.norm gives the row alone.

    A nonzero row whose squared norm is subnormal, zero or infinite is
    rescaled by its largest entry s first, as s * |r / s|, so the norm of a
    tiny or huge residual keeps full precision.
    """
    with np.errstate(over="ignore"):
        sq = _rowdot(r, r)
    norms = np.sqrt(sq)
    s = np.max(np.abs(r), axis=1)
    odd = np.flatnonzero(((sq < _TINY) | (sq == math.inf)) & (0.0 < s) & (s < math.inf))
    if odd.size:
        scaled = r[odd] / s[odd, None]
        norms[odd] = s[odd] * np.sqrt(_rowdot(scaled, scaled))
    return norms


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
    of their vertices' first ends.  Raises ValueError for a NaN or negative
    tol.
    """
    if not tol >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    points, residual, norms = _vertex_forces(v)
    keep = np.flatnonzero(norms > tol)
    r, m = residual[keep], norms[keep]
    omega = -r / m[:, None]
    # a subnormal residual has too few bits to divide by its norm, and the
    # row of an infinite one is its scaled re-sum; take their directions
    # from the row scaled to its largest entry
    sub = np.flatnonzero((m < _TINY) | (m == math.inf))
    if sub.size:
        scaled = r[sub] / np.max(np.abs(r[sub]), axis=1)[:, None]
        omega[sub] = -scaled / np.sqrt(_rowdot(scaled, scaled))[:, None]
    return [VariationAtom(x, o, mass) for x, o, mass in zip(points[keep], omega, m.tolist())]


def is_stationary(v: DiscreteVarifold, tol: float) -> tuple[bool, float]:
    """Whether every vertex balances at tolerance tol; also the max residual."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    worst = float(_vertex_forces(v)[2].max(initial=0.0))
    return worst <= tol, worst


def boundary_variation(v: DiscreteVarifold, y, r: float,
                       tangency_tol: float = 1e-9) -> list[VariationAtom]:
    """Boundary force atoms of v restricted to the open ball B(y, r).

    Every transversal crossing x of a piece with the sphere contributes the
    atom (x, s_out, weight), where s_out is the piece direction oriented
    outward; each omega satisfies <omega, (x-y)/r> >= 0.  Raises
    DegenerateGeometryError when a piece is tangent to the sphere or has an
    endpoint on it, in which case the caller should perturb r.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    c = as_vector(y, dim=v.ambient_dim)
    base, u, hi, w = _piece_rows(v)

    def ends_on_sphere(p):
        d = p - c
        return np.abs(np.sqrt(_rowdot(d, d)) - r) <= tangency_tol

    on_sphere = ends_on_sphere(base)
    on_sphere[:len(v.seg_w)] |= ends_on_sphere(v.seg_b)
    bh, disc = _chord_rows(base, u, c, r)
    foot = -bh  # closest approach parameter of the supporting line
    tangent = (np.abs(disc) <= tangency_tol) & (-tangency_tol <= foot) & (
        foot <= hi + tangency_tol)
    bad = on_sphere | tangent
    if bad.any():
        # the first bad piece reports, its endpoints before its tangency
        if on_sphere[int(np.argmax(bad))]:
            raise DegenerateGeometryError(
                "piece endpoint lies on the cutting sphere; perturb the radius"
            )
        raise DegenerateGeometryError(
            "piece is tangent to the cutting sphere; perturb the radius"
        )
    hit = disc > 0.0
    s = np.sqrt(np.where(hit, disc, 0.0))
    t = np.stack((-bh - s, -bh + s), axis=1)
    # row-major order: pieces in order, each entry crossing before its exit
    rows, side = np.nonzero(hit[:, None] & (0.0 < t) & (t < hi[:, None]))
    x = base[rows] + t[rows, side][:, None] * u[rows]
    omega = np.where(side == 0, -1.0, 1.0)[:, None] * u[rows]
    return [VariationAtom(xi, oi, wi) for xi, oi, wi in zip(x, omega, w[rows].tolist())]
