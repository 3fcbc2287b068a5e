"""Orthogonal projections of varifolds: plain pushforward and weighted.

The plain pushforward of a weighted piece keeps its multiplicity (the
Jacobian of the projection exactly cancels the length contraction).  The
weighted projection multiplies the image multiplicity by the direction
contraction |pi_P s|, which is the variant that preserves stationarity of
one-dimensional varifolds.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConicVarifold,
    DiscreteVarifold,
    SampledDensity,
    Subspace,
    _circle_modes,
    _count,
    _integrate_modes,
    _rowdot,
    _same_dim,
    _unit_rows,
    as_vector,
    circle_grid,
    conic_atoms,
    unit,
)

# Image pieces with direction contraction at or below this are dropped: their
# weighted image weight is negligible and the mapped piece has zero length.
DROP_TOL = 1e-12


def _images(dirs: np.ndarray, p: Subspace) -> tuple[np.ndarray, ...]:
    """(keep, c, img, sq): the image img = pi_P d of every unit row d of dirs, its
    squared norm sq (for _unit_rows) and contraction c = sqrt(sq), and the
    mask of the rows with c above DROP_TOL."""
    img = p.project(dirs)
    sq = _rowdot(img, img)
    c = np.sqrt(sq)
    return c > DROP_TOL, c, img, sq


def _project_pieces(v: DiscreteVarifold, p: Subspace, weighted: bool) -> DiscreteVarifold:
    _same_dim(p.ambient_dim, v.ambient_dim, "subspace")
    s, seg_c, _, _ = _images(v.seg_u, p)
    r, ray_c, ray_img, ray_sq = _images(v.ray_d, p)
    seg_w = v.seg_w[s] * seg_c[s] if weighted else v.seg_w[s]
    ray_w = v.ray_w[r] * ray_c[r] if weighted else v.ray_w[r]
    return DiscreteVarifold._from_columns(
        v.ambient_dim, p.project(v.seg_a[s]), p.project(v.seg_b[s]), seg_w,
        p.project(v.ray_o[r]), _unit_rows(ray_img[r], ray_sq[r])[0], ray_w,
    )


def mapping_projection(v: DiscreteVarifold, p: Subspace) -> DiscreteVarifold:
    """Pushforward of v under orthogonal projection; multiplicities kept.

    Pieces orthogonal to the target (contraction <= 1e-12) have images of
    zero one-dimensional mass and are dropped.
    """
    return _project_pieces(v, p, weighted=False)


def weighted_projection(v: DiscreteVarifold, p: Subspace) -> DiscreteVarifold:
    """Weighted projection: image multiplicity scaled by |pi_P s| per piece.

    The mass of the image over any set is then the integral of the squared
    contraction, and it never exceeds the plain pushforward mass.
    """
    return _project_pieces(v, p, weighted=True)


# ---------------------------------------------------------------------------
# Conic specialization
# ---------------------------------------------------------------------------

def _halfline_kernel_coefficients(n_modes: int, base_angle: float) -> np.ndarray:
    """int over the half circle {cos(theta-a) > 0} of e^{ik theta} cos(theta-a).

    Closed form: e^{ika} * c_k with c_k = pi/2 for |k| = 1 and
    c_k = 2 cos(k pi / 2) / (1 - k^2) otherwise.
    """
    ks = np.arange(n_modes)
    c = np.empty(n_modes, dtype=float)
    other = ks != 1
    c[other] = 2.0 * np.cos(ks[other] * np.pi / 2.0) / (1.0 - ks[other].astype(float) ** 2)
    c[~other] = np.pi / 2.0
    return c * np.exp(1j * ks * base_angle)


def _density_halfline_mass(density: SampledDensity, u: np.ndarray) -> float:
    """Mode-exact weighted half-line mass of a sampled circle density.

    The sampled values are read as a trigonometric interpolant and each mode
    is integrated against the one-sided cosine kernel in closed form, so the
    result is exact for band-limited densities.
    """
    angle = math.atan2(u[1], u[0])
    coeffs = _circle_modes(density.values)
    kernel = _halfline_kernel_coefficients(len(coeffs), angle)
    return _integrate_modes(coeffs, kernel, density.grid.size)


def halfline_multiplicity(c: ConicVarifold, u) -> float:
    """Multiplicity of the +u half line of the weighted projection onto span(u)."""
    _same_dim(c.ambient_dim, 2, "cone")
    u = unit(as_vector(u, dim=2))
    m = 0.0
    if c.n_atoms:
        dots = c.atom_directions @ u
        pos = dots > 0.0
        m += float(np.dot(c.atom_masses[pos], dots[pos]))
    if c.density is not None:
        m += _density_halfline_mass(c.density, u)
    if m < 0.0:
        raise ValueError("multiplicity must be nonnegative")
    return float(m)


def weighted_projection_conic(c: ConicVarifold, p: Subspace) -> ConicVarifold:
    """Weighted projection of a conic varifold, staying conic.

    An atom (z, m) maps to (pi_P z / |pi_P z|, m |pi_P z|); images that
    collide are merged by mass addition, and atoms orthogonal to the target
    are dropped.  Density parts map through their quadrature nodes, except on
    the circle-to-line case where the two half-line masses are evaluated
    mode-exactly.
    """
    _same_dim(p.ambient_dim, c.ambient_dim, "subspace")
    # circle to line: the density's two half-line masses are taken mode-exactly
    halfline = c.density is not None and c.ambient_dim == 2 and p.dim == 1
    dirs, masses = (c.atom_directions, c.atom_masses) if halfline else c.mass_rows()
    keep, contraction, img, sq = _images(dirs, p)
    images = list(zip(_unit_rows(img[keep], sq[keep])[0], masses[keep] * contraction[keep]))
    if halfline:
        u = unit(p.basis[0])
        for sign in (1.0, -1.0):
            m = _density_halfline_mass(c.density, sign * u)
            if m > DROP_TOL:
                images.append((sign * u, m))
    return conic_atoms(c.ambient_dim, images)


# ---------------------------------------------------------------------------
# The projections-do-not-determine-the-measure example
# ---------------------------------------------------------------------------

def counterexample_pair() -> tuple[ConicVarifold, ConicVarifold]:
    """Two distinct planar conic varifolds with identical weighted projections.

    The first carries the uniform density 1 on the circle, the second the
    density 1 - sin(3 theta).  The degree-3 mode integrates to zero against
    the one-sided cosine kernel for every direction, so every half-line
    multiplicity agrees, yet the two measures differ on arcs.
    """
    grid = circle_grid(2048)
    uniform = SampledDensity(grid, np.ones(grid.size))
    wobbly = SampledDensity(grid, 1.0 - np.sin(3.0 * grid.angles))
    v1 = ConicVarifold(2, density=uniform)
    v2 = ConicVarifold(2, density=wobbly)
    return v1, v2


def halfline_difference_table(v1: ConicVarifold, v2: ConicVarifold,
                              n_directions: int = 360) -> np.ndarray:
    """Rows (angle, m_v1, m_v2, difference) over a uniform battery of
    n_directions directions."""
    n_directions = _count(n_directions, "n_directions", 1)
    rows = np.empty((n_directions, 4))
    for k in range(n_directions):
        ang = 2.0 * np.pi * k / n_directions
        u = np.array([math.cos(ang), math.sin(ang)])
        m1 = halfline_multiplicity(v1, u)
        m2 = halfline_multiplicity(v2, u)
        rows[k] = (ang, m1, m2, m1 - m2)
    return rows
