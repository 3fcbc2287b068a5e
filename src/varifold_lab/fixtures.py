"""Reference varifolds: classical examples and randomized generators."""

from __future__ import annotations

import numpy as np

from .core import (
    ConicVarifold,
    DiscreteVarifold,
    RayPiece,
    SegmentPiece,
    Subspace,
    as_vector,
    conic_atoms,
    unit,
)


def full_line(point, direction, weight: float = 1.0) -> DiscreteVarifold:
    """A straight line through a point, realized as two opposite rays."""
    p = as_vector(point)
    u = unit(as_vector(direction, dim=p.shape[0]))
    rays = (RayPiece(p, u, weight), RayPiece(p, -u, weight))
    return DiscreteVarifold(p.shape[0], (), rays)


def y_junction(ambient_dim: int = 2, weights=(1.0, 1.0, 1.0),
               arm_length: float | None = None) -> DiscreteVarifold:
    """Three arms at mutual 120 degrees from the origin in the xy-plane.

    Rays by default; finite segments when arm_length is given.  Equal
    weights balance the junction exactly.
    """
    if ambient_dim < 2:
        raise ValueError("need ambient dimension >= 2")
    origin = np.zeros(ambient_dim)
    dirs = []
    for k in range(3):
        ang = 2.0 * np.pi * k / 3.0
        d = np.zeros(ambient_dim)
        d[0], d[1] = np.cos(ang), np.sin(ang)
        dirs.append(d)
    if arm_length is None:
        rays = tuple(RayPiece(origin, d, w) for d, w in zip(dirs, weights))
        return DiscreteVarifold(ambient_dim, (), rays)
    segs = tuple(
        SegmentPiece(origin, arm_length * d, w) for d, w in zip(dirs, weights)
    )
    return DiscreteVarifold(ambient_dim, segs, ())


def balanced_y_cone(ambient_dim: int = 3) -> ConicVarifold:
    """Three unit-mass spherical atoms at 120 degrees in the xy-plane."""
    atoms = []
    for k in range(3):
        ang = 2.0 * np.pi * k / 3.0
        d = np.zeros(ambient_dim)
        d[0], d[1] = np.cos(ang), np.sin(ang)
        atoms.append((d, 1.0))
    return conic_atoms(ambient_dim, atoms)


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return unit(rng.normal(size=n))


def random_subspace(rng: np.random.Generator, n: int, dim: int) -> Subspace:
    """A uniformly random dim-dimensional subspace of R^n."""
    q, _ = np.linalg.qr(rng.normal(size=(n, dim)))
    return Subspace(n, q.T)


def random_balanced_star(rng: np.random.Generator, n: int,
                         arms: int) -> list[tuple[np.ndarray, float]]:
    """(direction, weight) arms whose weighted sum is exactly zero."""
    if arms < 3:
        raise ValueError("a balanced star needs at least 3 arms")
    while True:
        dirs = [random_unit_vector(rng, n) for _ in range(arms - 1)]
        weights = list(rng.uniform(0.5, 2.0, size=arms - 1))
        residual = -sum(w * d for d, w in zip(dirs, weights))
        m = float(np.linalg.norm(residual))
        if m > 1e-6:
            dirs.append(unit(residual))
            weights.append(m)
            return list(zip(dirs, weights))


def random_stationary_network(
    rng: np.random.Generator,
    ambient_dim: int,
    n_vertices: int = 3,
    max_degree: int = 5,
) -> DiscreteVarifold:
    """A random vertex-balanced network: balanced stars joined by segments,
    with every unsplit arm leaving as a ray.  Globally stationary."""
    root = rng.uniform(-1.0, 1.0, size=ambient_dim)
    segs: list[SegmentPiece] = []
    open_arms: list[tuple[np.ndarray, np.ndarray, float]] = []
    for d, w in random_balanced_star(rng, ambient_dim, int(rng.integers(3, max_degree + 1))):
        open_arms.append((root, d, w))
    for _ in range(n_vertices - 1):
        if not open_arms:
            break
        idx = int(rng.integers(len(open_arms)))
        base, d, w = open_arms.pop(idx)
        new_vertex = base + float(rng.uniform(0.5, 1.5)) * d
        segs.append(SegmentPiece(base, new_vertex, w))
        # new star must absorb the incoming arm: away vectors sum to zero
        arms = int(rng.integers(2, max_degree))
        dirs = [random_unit_vector(rng, ambient_dim) for _ in range(arms - 1)]
        weights = list(rng.uniform(0.5, 2.0, size=arms - 1))
        residual = w * d - sum(wi * di for di, wi in zip(dirs, weights))
        m = float(np.linalg.norm(residual))
        if m <= 1e-6:
            dirs.append(random_unit_vector(rng, ambient_dim))
            weights.append(float(rng.uniform(0.5, 2.0)))
            residual = w * d - sum(wi * di for di, wi in zip(dirs, weights))
            m = float(np.linalg.norm(residual))
        dirs.append(unit(residual))
        weights.append(m)
        for di, wi in zip(dirs, weights):
            open_arms.append((new_vertex, di, wi))
    rays = tuple(RayPiece(base, d, w) for base, d, w in open_arms)
    return DiscreteVarifold(ambient_dim, tuple(segs), rays)


def random_varifold(
    rng: np.random.Generator,
    ambient_dim: int,
    n_segments: int = 4,
    n_rays: int = 2,
    box: float = 2.0,
) -> DiscreteVarifold:
    """Unstructured random pieces; no stationarity intended."""
    segs = []
    for _ in range(n_segments):
        a = rng.uniform(-box, box, size=ambient_dim)
        b = a + rng.uniform(0.2, 1.0) * random_unit_vector(rng, ambient_dim)
        segs.append(SegmentPiece(a, b, float(rng.uniform(0.2, 3.0))))
    rays = []
    for _ in range(n_rays):
        rays.append(
            RayPiece(
                rng.uniform(-box, box, size=ambient_dim),
                random_unit_vector(rng, ambient_dim),
                float(rng.uniform(0.2, 3.0)),
            )
        )
    return DiscreteVarifold(ambient_dim, tuple(segs), tuple(rays))


def random_conic(
    rng: np.random.Generator,
    ambient_dim: int,
    n_atoms: int = 6,
    min_separation: float = 1e-3,
    mass_range: tuple[float, float] = (0.1, 2.0),
    max_tries: int = 1000,
) -> ConicVarifold:
    """Random atomic conic varifold with a minimum angular separation."""
    dirs: list[np.ndarray] = []
    tries = 0
    while len(dirs) < n_atoms:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("could not place separated atoms")
        z = random_unit_vector(rng, ambient_dim)
        if all(np.linalg.norm(z - d) > min_separation for d in dirs):
            dirs.append(z)
    masses = rng.uniform(*mass_range, size=n_atoms)
    return ConicVarifold(ambient_dim, np.array(dirs), masses)
