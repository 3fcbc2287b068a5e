"""Per-piece geometry, kept as the reference for the columnar library code.

The library reads piece geometry only from the column arrays of
DiscreteVarifold, and takes every chord in core._chord_rows.  These are the
per-piece forms those replaced: tests rebuild the old loops from them and
compare the columnar results bit for bit.
"""

import math

import numpy as np

from varifold_lab.core import SegmentPiece


def piece_frame(piece):
    """Return (base, unit direction, parameter upper bound) for a piece."""
    if isinstance(piece, SegmentPiece):
        return piece.a, piece.direction, piece.length
    return piece.origin, piece.direction, math.inf


def ball_interval(base, direction, center, radius):
    """Parameter interval where base + t*direction lies in the open ball.

    direction must be a unit vector; returns None when the line misses.
    """
    d = base - center
    bh = float(np.dot(d, direction))
    q = float(np.dot(d, d)) - radius * radius
    disc = bh * bh - q
    if disc <= 0.0:
        return None
    s = math.sqrt(disc)
    return (-bh - s, -bh + s)
