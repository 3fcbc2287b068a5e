"""JSON varifold documents and deterministic CSV emission.

Document schema (all sections optional except ambient_dim):

    {
      "ambient_dim": n,
      "segments": [{"a": [...], "b": [...], "weight": w}, ...],
      "rays": [{"origin": [...], "direction": [...], "weight": w}, ...],
      "conic": {
        "atoms": [{"dir": [...], "mass": m}, ...],
        "density": {"grid": "s1:720", "values": [...]}
      }
    }

Floats are serialized in decimal with enough digits to round-trip exactly.
Segments, rays and cone atoms are sorted lexicographically by their fields
before emission, so that identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ConicVarifold,
    DiscreteVarifold,
    RayPiece,
    SampledDensity,
    SegmentPiece,
    Subspace,
    _count,
    _same_dim,
    grid_from_descriptor,
)


class SchemaError(ValueError):
    """The document does not match the varifold JSON schema."""


@dataclass(frozen=True, eq=False)
class VarifoldDocument:
    """Parsed contents of a varifold JSON file."""

    ambient_dim: int
    discrete: DiscreteVarifold | None = None
    conic: ConicVarifold | None = None

    def require_discrete(self) -> DiscreteVarifold:
        if self.discrete is None or self.discrete.is_empty:
            raise SchemaError("document carries no segments or rays")
        return self.discrete

    def require_conic(self) -> ConicVarifold:
        if self.conic is None:
            raise SchemaError("document carries no conic section")
        return self.conic


def _sorted_records(**columns: np.ndarray) -> list[dict]:
    """One {name: value} record per row of the (k, n) or (k,) columns, in the
    stable order sorted() gives the rows' tuples of fields (-0.0 ties 0.0)."""
    order = np.lexsort(np.column_stack(list(columns.values())).T[::-1])
    return [dict(zip(columns, row)) for row in zip(*(c[order].tolist() for c in columns.values()))]


def document_to_dict(
    discrete: DiscreteVarifold | None = None,
    conic: ConicVarifold | None = None,
) -> dict:
    if discrete is None and conic is None:
        raise ValueError("nothing to serialize")
    n = discrete.ambient_dim if discrete is not None else conic.ambient_dim
    if conic is not None:
        _same_dim(conic.ambient_dim, n, "conic part")
    doc: dict = {"ambient_dim": n}
    if discrete is not None:
        doc["segments"] = _sorted_records(a=discrete.seg_a, b=discrete.seg_b,
                                          weight=discrete.seg_w)
        doc["rays"] = _sorted_records(origin=discrete.ray_o, direction=discrete.ray_d,
                                      weight=discrete.ray_w)
    if conic is not None:
        # atom directions are distinct, so their masses never decide the order
        section: dict = {"atoms": _sorted_records(dir=conic.atom_directions,
                                                  mass=conic.atom_masses)}
        if conic.density is not None:
            section["density"] = {"grid": conic.density.grid.descriptor,
                                  "values": conic.density.values.tolist()}
        doc["conic"] = section
    return doc


def document_from_dict(doc: dict) -> VarifoldDocument:
    try:
        n = _count(doc["ambient_dim"], "ambient_dim", 1)
        # the constructors coerce and check every field
        segments = tuple(SegmentPiece(s["a"], s["b"], s["weight"]) for s in doc.get("segments", []))
        rays = tuple(RayPiece(r["origin"], r["direction"], r["weight"]) for r in doc.get("rays", []))
        discrete = None
        if segments or rays:
            discrete = DiscreteVarifold(n, segments, rays)
        conic = None
        if "conic" in doc:
            sec = doc["conic"]
            atoms = sec.get("atoms", [])
            dens = None
            if "density" in sec and sec["density"] is not None:
                grid = grid_from_descriptor(str(sec["density"]["grid"]))
                dens = SampledDensity(grid, sec["density"]["values"])
            conic = ConicVarifold(n, [a["dir"] for a in atoms], [a["mass"] for a in atoms], dens)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed varifold document: {exc}") from exc
    if discrete is None and conic is None:
        raise SchemaError("document contains no varifold data")
    return VarifoldDocument(n, discrete, conic)


def save_varifold(
    path: str | Path,
    discrete: DiscreteVarifold | None = None,
    conic: ConicVarifold | None = None,
) -> None:
    Path(path).write_text(json.dumps(document_to_dict(discrete, conic), indent=2) + "\n")


def _reject_constant(name: str):
    raise SchemaError(f"non-finite number {name} is not allowed")


def _loads(text: str):
    """json.loads that rejects the NaN, Infinity and -Infinity extensions;
    SchemaError for text that is not JSON."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


def load_varifold(path: str | Path) -> VarifoldDocument:
    raw = _loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise SchemaError("document root must be an object")
    return document_from_dict(raw)


def load_subspace(path: str | Path) -> Subspace:
    raw = _loads(Path(path).read_text())
    try:
        basis = np.array(raw["basis"], dtype=float)
        return Subspace(raw.get("ambient_dim", basis.shape[1]), basis)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed subspace document: {exc}") from exc


def save_subspace(path: str | Path, subspace: Subspace) -> None:
    doc = {"ambient_dim": subspace.ambient_dim, "basis": subspace.basis.tolist()}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def format_float(x: float) -> str:
    """Decimal with 17 significant digits: lossless double round-trip."""
    return f"{x:.17g}"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows with floats at 17 significant digits, sorted as given."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                for c in row
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")
