"""Per-piece geometry, kept as the reference for the columnar library code.

The library reads piece geometry only from the column arrays of
DiscreteVarifold, and takes every chord in core._chord_rows.  These are the
per-piece forms those replaced: tests rebuild the old loops from them and
compare the columnar results bit for bit.
"""

import json
import math

import numpy as np

from varifold_lab.core import TANGENT_REL_TOL, RayPiece, SegmentPiece


def piece_frame(piece):
    """Return (base, unit direction, parameter upper bound) for a piece."""
    if isinstance(piece, SegmentPiece):
        return piece.a, piece.direction, piece.length
    return piece.origin, piece.direction, math.inf


def ball_interval(base, direction, center, radius):
    """Parameter interval where base + t*direction lies in the open ball.

    direction must be a unit vector; returns None when the line misses the
    ball or is tangent to it within rounding (core.TANGENT_REL_TOL).
    """
    d = base - center
    bh = float(np.dot(d, direction))
    q = float(np.dot(d, d)) - radius * radius
    disc = bh * bh - q
    if disc <= TANGENT_REL_TOL * (bh * bh + radius * radius):
        return None
    s = math.sqrt(disc)
    return (-bh - s, -bh + s)


def _vec(x):
    return [float(t) for t in np.asarray(x, dtype=float)]


def document_text(discrete=None, conic=None):
    """The text save_varifold writes, by the writer that sorted piece objects
    built through the public constructors: segments by (a, b, weight), rays
    by (origin, direction, weight) and cone atoms by direction, as tuples."""
    n = discrete.ambient_dim if discrete is not None else conic.ambient_dim
    doc = {"ambient_dim": n}
    if discrete is not None:
        segments = [SegmentPiece(a, b, w)
                    for a, b, w in zip(discrete.seg_a, discrete.seg_b, discrete.seg_w.tolist())]
        rays = [RayPiece(o, d, w)
                for o, d, w in zip(discrete.ray_o, discrete.ray_d, discrete.ray_w.tolist())]
        doc["segments"] = [
            {"a": _vec(s.a), "b": _vec(s.b), "weight": s.weight}
            for s in sorted(segments, key=lambda s: (tuple(s.a), tuple(s.b), s.weight))
        ]
        doc["rays"] = [
            {"origin": _vec(r.origin), "direction": _vec(r.direction), "weight": r.weight}
            for r in sorted(rays, key=lambda r: (tuple(r.origin), tuple(r.direction), r.weight))
        ]
    if conic is not None:
        order = sorted(range(conic.n_atoms), key=lambda i: tuple(conic.atom_directions[i]))
        section = {"atoms": [
            {"dir": _vec(conic.atom_directions[i]), "mass": float(conic.atom_masses[i])}
            for i in order
        ]}
        if conic.density is not None:
            section["density"] = {"grid": conic.density.grid.descriptor,
                                  "values": _vec(conic.density.values)}
        doc["conic"] = section
    return json.dumps(doc, indent=2) + "\n"
