"""Cut-and-paste stationarization.

Keep a varifold inside a ball, discard the rest, and paste one outward ray
per boundary force atom.  Each pasted ray continues its piece straight
through the sphere crossing, so the result balances exactly at the crossing
points and keeps the original small-scale behavior at the ball's center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DiscreteVarifold, RayPiece, _point, restrict
from .variation import DegenerateGeometryError, VariationAtom, boundary_variation

RADIUS_CANDIDATES = 16


@dataclass(frozen=True, eq=False)
class SurgeryResult:
    """Outcome of a cut-and-paste: the clipped inside, the pasted rays,
    their superposition, and the boundary atoms that prescribed the rays."""

    inner: DiscreteVarifold
    pasted_rays: tuple[RayPiece, ...]
    combined: DiscreteVarifold
    boundary_atoms: tuple[VariationAtom, ...]


def cut_and_paste(v: DiscreteVarifold, y, r: float) -> SurgeryResult:
    """Replace everything outside B(y, r) by boundary-prescribed rays.

    The boundary force measure of the clipped varifold is purely atomic at
    the transversal sphere crossings, so the pasted part is a finite ray
    list with no discretization error.  When v is stationary in a
    neighborhood of the closed ball, the combined varifold is stationary and
    its dilations at y agree with those of v below scale r.

    Raises DegenerateGeometryError when a piece ends on the sphere or
    touches it by boundary_variation's scale-free rule: about a vertex every
    r above TANGENCY_TOL works, off one r^2 must exceed the rounding of a
    piece's squared distance from y.  Callers should perturb r (see
    find_good_radius).  ValueError unless y is a finite point of R^n and
    0 < r < inf.
    """
    c = _point(y, v.ambient_dim)
    atoms = boundary_variation(v, c, r)
    inner = restrict(v, c, r, "inside")
    # checked: a crossing of extreme-coordinate input can leave the float range
    pasted = tuple(RayPiece(a.location, a.omega, a.mass) for a in atoms)
    combined = inner + DiscreteVarifold(v.ambient_dim, (), pasted)
    return SurgeryResult(inner, pasted, combined, tuple(atoms))


def find_good_radius(v: DiscreteVarifold, y, r_lo: float, r_hi: float) -> float:
    """First radius in a geometric scan of RADIUS_CANDIDATES radii of
    [r_lo, r_hi] avoiding degeneracy.

    Mirrors the fact that almost every radius admits a clean boundary force
    measure: tangency scales with r, so about a vertex every scale has one,
    and off a vertex only r^2 near the rounding of |base - y|^2 fails.
    Raises DegenerateGeometryError if every candidate fails, and ValueError
    unless y is a finite point of R^n and 0 < r_lo <= r_hi < inf.
    """
    if not 0.0 < r_lo <= r_hi < math.inf:
        raise ValueError("need 0 < r_lo <= r_hi < inf")
    c = _point(y, v.ambient_dim)
    ratios = np.geomspace(r_lo, r_hi, RADIUS_CANDIDATES)
    for r in ratios:
        try:
            boundary_variation(v, c, float(r))
        except DegenerateGeometryError:
            continue
        return float(r)
    raise DegenerateGeometryError(
        f"no clean cutting radius among {RADIUS_CANDIDATES} candidates in "
        f"[{r_lo}, {r_hi}]"
    )
