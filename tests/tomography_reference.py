"""The tomography solve as it ran level by level and atom by atom, kept as
the reference for the array code in varifold_lab.tomography.

The band oracle computed the slopes and weights of one (v, xi) pair at a
time.  Location bisected one level per oracle call and merged each pair's bands in
a Python loop; the plane solve clustered, eliminated and built incidence
rows one representative at a time; the lift and the chart merge went atom
by atom, and conic_atoms normalized and merged one (direction, mass) pair at
a time.  Tests compare the library with these bit for bit.
"""

import math
from typing import Callable, Sequence

import numpy as np

from scipy.optimize import nnls

from varifold_lab.core import ATOM_SEPARATION_TOL, ConicVarifold, Subspace, as_vector, unit
from varifold_lab.tomography import (
    MAX_ATOMS,
    AmbiguousReconstruction,
    CoverageGap,
    LineMeasure,
    PlaneMeasure,
    hyperplane_of,
)


def pair_slopes(dirs: np.ndarray, masses: np.ndarray, v: np.ndarray,
                xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BandOracle's (slopes, weights) of one (v, xi) pair, computed on its
    own: an atom behind v, or whose slope or weight overflows, gets a NaN
    slope and weight 0.  Raises as the oracle does on a non-finite pair and
    on weights that sum past the float range."""
    if not (np.isfinite(v).all() and np.isfinite(xi).all()):
        raise ValueError("v and xi must be finite")
    z1 = dirs @ v
    z2 = dirs @ xi
    front = z1 > 0.0
    lam, weight = np.full(z1.shape, np.nan), np.zeros(z1.shape)
    with np.errstate(over="ignore"):
        lam[front] = z2[front] / z1[front]
        weight[front] = masses[front] * (z1[front] ** 2 + z2[front] ** 2) / z1[front]
        out = ~(np.isfinite(lam) & np.isfinite(weight))
        lam[out], weight[out] = np.nan, 0.0
        if not weight.sum() < math.inf:
            raise OverflowError("the cone's band masses overflow the float range")
    return lam, weight


def conic_atoms(ambient_dim, atoms, density=None) -> ConicVarifold:
    """Build a ConicVarifold from (direction, mass) pairs, merging duplicates:
    each pair against the atoms kept before it, in order."""
    dirs = []
    masses = []
    for d, m in atoms:
        z = np.array(d, dtype=float)
        if abs(float(np.dot(z, z)) - 1.0) > 1e-13:
            z = unit(z)
        z.setflags(write=False)
        for i, existing in enumerate(dirs):
            if np.linalg.norm(existing - z) <= ATOM_SEPARATION_TOL:
                masses[i] += float(m)
                break
        else:
            dirs.append(z)
            masses.append(float(m))
    arr = np.array(dirs) if dirs else np.zeros((0, ambient_dim))
    return ConicVarifold(ambient_dim, arr, np.array(masses), density)


def lift_to_sphere(gamma: PlaneMeasure, v) -> ConicVarifold:
    """Inverse gnomonic transport: atom (x, m) lifts to ((x+v)/|x+v|, m |x+v|)."""
    v = unit(as_vector(v, dim=gamma.plane.ambient_dim))
    atoms = []
    for i in range(gamma.n_atoms):
        shifted = gamma.points[i] + v
        norm = float(np.linalg.norm(shifted))
        atoms.append((shifted / norm, float(gamma.masses[i]) * norm))
    return conic_atoms(gamma.plane.ambient_dim, atoms)


def locate_atoms(
    oracle: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    pairs: Sequence[tuple[np.ndarray, np.ndarray]],
    lam_max: float,
    width_target: float = 1e-10,
    mass_tol: float = 1e-9,
    max_depth: int = 80,
) -> list[LineMeasure]:
    """locate_marginal_atoms for every (v, xi) pair at once.

    Each bisection level is one oracle call whose rows carry their own
    (v, xi) and stay sorted by pair.  Each pair's merged bands are then
    re-measured in a call of their own; BandOracle sums a row alike in
    every call, so the located masses have the library's bits.
    """
    vs = np.array([v for v, _ in pairs], dtype=float)
    xis = np.array([xi for _, xi in pairs], dtype=float)
    owner = np.arange(len(pairs))
    bands = np.tile([-lam_max, lam_max], (len(pairs), 1))
    done = []
    for _ in range(max_depth):
        width = bands[:, 1] - bands[:, 0]
        narrow = width <= np.maximum(width_target, 4e-16 * np.abs(bands).max(axis=1))
        done.append((owner[narrow], bands[narrow]))
        owner, bands = owner[~narrow], bands[~narrow]
        if not owner.size:
            break
        mid = 0.5 * (bands[:, 0] + bands[:, 1])
        owner = np.repeat(owner, 2)
        bands = np.repeat(bands, 2, axis=0)
        bands[0::2, 1] = mid
        bands[1::2, 0] = mid
        alive = oracle(vs[owner], xis[owner], bands) > mass_tol
        owner, bands = owner[alive], bands[alive]
    done.append((owner, bands))
    owner = np.concatenate([o for o, _ in done])
    bands = np.concatenate([iv for _, iv in done])

    located = []
    for i, (v, xi) in enumerate(pairs):
        intervals = sorted(map(tuple, bands[owner == i].tolist()))
        merged: list[list[float]] = []
        for lo, hi in intervals:
            gap = 2.0 * max(width_target, 4e-16 * max(abs(lo), abs(hi)))
            if merged and lo - merged[-1][1] <= gap:
                merged[-1][1] = hi
            else:
                merged.append([lo, hi])
        if not merged:
            located.append(LineMeasure(xi, np.zeros(0), np.zeros(0)))
            continue
        merged_bands = np.array(merged)
        totals = oracle(v, xi, merged_bands)
        keep = totals > mass_tol
        mids = 0.5 * (merged_bands[:, 0] + merged_bands[:, 1])[keep]
        gamma = totals[keep] / (1.0 + mids**2)
        located.append(LineMeasure(xi, mids, gamma))
    return located


def cluster_1d(values: np.ndarray, tol_of) -> list[tuple[float, np.ndarray]]:
    """Group sorted scalars closer than a local tolerance; (rep, indices)."""
    order = np.argsort(values)
    groups: list[list[int]] = []
    for idx in order:
        val = values[idx]
        if groups and val - values[groups[-1][-1]] <= tol_of(val):
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return [(float(np.mean(values[g])), np.array(g)) for g in groups]


def reconstruct_plane_measure(
    plane: Subspace,
    marginals: Sequence[LineMeasure],
    k_max: int = 32,
    match_tol: float = 1e-7,
    residual_tol: float = 1e-8,
) -> PlaneMeasure:
    """Recover an atomic plane measure from its one-dimensional marginals.

    Candidate positions are enumerated from an orthogonal subset of the
    marginal directions, candidates incompatible with any other marginal are
    eliminated, and the remaining nonnegative mass assignment is solved by
    least squares on the incidence system.  When more than dim + 1 marginals
    are supplied, the last one is held out and used only to verify the
    solution.  Raises AmbiguousReconstruction when the system is
    rank-deficient, inconsistent, or fails the held-out check.
    """
    d = plane.dim
    if len(marginals) < d:
        raise ValueError(f"need at least {d} marginal directions")
    held_out = None
    solving = list(marginals)
    if len(marginals) > d + 1:
        held_out = solving.pop()

    def tol_of(val: float) -> float:
        return match_tol * (1.0 + abs(val))

    # orthogonal subset used for the candidate grid
    axes: list[int] = []
    for i, m in enumerate(solving):
        if all(abs(float(np.dot(m.direction, solving[j].direction))) <= 1e-9 for j in axes):
            axes.append(i)
        if len(axes) == d:
            break
    if len(axes) < d:
        raise ValueError("marginals do not contain an orthogonal direction subset")

    axis_coord_lists = []
    for i in axes:
        reps = [rep for rep, _ in cluster_1d(solving[i].coordinates, tol_of)]
        if not reps:
            if any(m.n_atoms for m in marginals):
                raise AmbiguousReconstruction(
                    "an axis marginal is empty while others carry mass"
                )
            return PlaneMeasure(plane, np.zeros((0, plane.ambient_dim)), np.zeros(0))
        axis_coord_lists.append(reps)
    n_candidates = int(np.prod([len(c) for c in axis_coord_lists]))
    if n_candidates > max(200_000, k_max**d):
        raise AmbiguousReconstruction(
            f"candidate grid too large ({n_candidates}); supply cleaner marginals"
        )
    grids = np.meshgrid(*axis_coord_lists, indexing="ij")
    coords = np.column_stack([g.ravel() for g in grids])
    axis_dirs = np.array([solving[i].direction for i in axes])
    candidates = coords @ axis_dirs

    # eliminate candidates incompatible with any non-axis solving marginal
    alive = np.ones(candidates.shape[0], dtype=bool)
    for i, m in enumerate(solving):
        if i in axes:
            continue
        proj = candidates @ m.direction
        ok = np.zeros_like(alive)
        for rep, _ in cluster_1d(m.coordinates, tol_of):
            ok |= np.abs(proj - rep) <= tol_of(rep)
        alive &= ok
    candidates = candidates[alive]
    if candidates.shape[0] == 0:
        raise AmbiguousReconstruction("no candidate is compatible with all marginals")

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for m in solving:
        proj = candidates @ m.direction
        markers = np.concatenate([proj, m.coordinates])
        for rep, _ in cluster_1d(markers, tol_of):
            members = np.abs(proj - rep) <= tol_of(rep)
            if not members.any():
                continue
            measured = float(
                np.sum(m.masses[np.abs(m.coordinates - rep) <= tol_of(rep)])
            )
            rows.append(members.astype(float))
            rhs.append(measured)
    A = np.array(rows)
    b = np.array(rhs)
    if np.linalg.matrix_rank(A) < candidates.shape[0]:
        raise AmbiguousReconstruction(
            "incidence system is rank-deficient; add a marginal direction"
        )
    w, _ = nnls(A, b)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    if float(np.max(np.abs(A @ w - b))) > residual_tol * scale:
        raise AmbiguousReconstruction("marginals are mutually inconsistent")

    keep = w > 1e-10
    candidates, w = candidates[keep], w[keep]
    if candidates.shape[0] > k_max:
        raise AmbiguousReconstruction(
            f"solution uses {candidates.shape[0]} atoms, above the budget {k_max}"
        )
    if held_out is not None and candidates.shape[0]:
        proj = candidates @ held_out.direction
        markers = np.concatenate([proj, held_out.coordinates])
        for rep, _ in cluster_1d(markers, tol_of):
            predicted = float(np.sum(w[np.abs(proj - rep) <= tol_of(rep)]))
            measured = float(
                np.sum(held_out.masses[np.abs(held_out.coordinates - rep) <= tol_of(rep)])
            )
            if abs(predicted - measured) > residual_tol * max(1.0, measured):
                raise AmbiguousReconstruction(
                    "held-out marginal disagrees with the reconstruction"
                )
    return PlaneMeasure(plane, candidates, w)


def reconstruct_from_marginals(
    ambient_dim: int,
    charts: Sequence[tuple[np.ndarray, Sequence[LineMeasure]]],
    keep_fraction: float = 0.2,
    coverage_tol: float = 1e-8,
) -> ConicVarifold:
    """Merge the hemisphere reconstructions of (unit normal, marginals) charts.

    Each chart with located mass is solved on the hyperplane v-perp and
    lifted back to the sphere.  Hemisphere results are merged, keeping
    well-conditioned recoveries (pole component at least keep_fraction, or
    0.9 / sqrt(ambient_dim) if that is smaller); an atom recovered twice is
    identified when directions agree within 1e-6 radians and masses within
    1e-8 relative to the larger of 1 and the mass.  Marginal mass beyond the
    explained mass by more than coverage_tol relative to the larger of 1 and
    the marginal's mass is a coverage gap.

    Raises AmbiguousReconstruction from the plane solve or on conflicting
    masses, and CoverageGap when marginal mass is not explained by the
    merged reconstruction.
    """
    keep_cut = min(keep_fraction, 0.9 / math.sqrt(ambient_dim))
    kept: list[tuple[np.ndarray, float, float]] = []  # (direction, mass, pole dot)
    for v, marginals in charts:
        if all(m.n_atoms == 0 for m in marginals):
            continue
        gamma = reconstruct_plane_measure(hyperplane_of(v), marginals, k_max=MAX_ATOMS)
        cone_v = lift_to_sphere(gamma, v)
        for i in range(cone_v.n_atoms):
            z = cone_v.atom_directions[i]
            h = float(np.dot(z, v))
            if h >= keep_cut:
                kept.append((z, float(cone_v.atom_masses[i]), h))

    final: list[tuple[np.ndarray, float, float]] = []
    for z, m, h in kept:
        for i, (zf, mf, hf) in enumerate(final):
            if float(np.linalg.norm(z - zf)) < 1e-6:
                if abs(m - mf) > 1e-8 * max(1.0, mf):
                    raise AmbiguousReconstruction(
                        "conflicting masses for the same recovered direction"
                    )
                if h > hf:
                    final[i] = (z, m, h)
                break
        else:
            final.append((z, m, h))

    if final:
        result = conic_atoms(ambient_dim, [(z, m) for z, m, _ in final])
    else:
        result = ConicVarifold(ambient_dim)

    # attest that every located marginal atom is explained by the result:
    # the full hemisphere mass of the reconstruction bounds what any one
    # marginal window can see, so located mass above it is unaccounted for
    for v, marginals in charts:
        explained = 0.0
        for i in range(result.n_atoms):
            h = float(np.dot(result.atom_directions[i], v))
            if h > 0.0:
                explained += float(result.atom_masses[i]) * h
        for m in marginals:
            unaccounted = float(np.sum(m.masses)) - explained
            if unaccounted > coverage_tol * max(1.0, float(np.sum(m.masses))):
                raise CoverageGap(
                    f"marginal mass {unaccounted:.3e} unaccounted for under "
                    f"normal {np.array2string(v, precision=3)}"
                )
    return result
