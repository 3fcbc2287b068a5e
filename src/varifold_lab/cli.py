"""Command-line front end.

Subcommands: check-stationary, project, surgery, reconstruct,
counterexample, blowup, fixture.  Every run that writes files also writes a
`<output>.manifest.json` recording the command, inputs, parameters, and
outputs.  Exit codes: 0 success, 1 domain error (degenerate geometry,
ambiguous reconstruction, coverage gap, zero density, violated bound,
overflow), 2 input/output, schema or argument errors and unknown commands.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .blowup import (
    ZeroDensityError,
    dense_lines_fixture,
    dilation_factors,
    projection_growth_table,
    tangent_estimate,
)
from .core import _count, _point, _positive, _rowdot, _same_dim, _tolerance
from .fixtures import balanced_y_cone, full_line, y_junction
from .io import (
    SchemaError,
    format_float,
    load_subspace,
    load_varifold,
    save_varifold,
    write_csv,
)
from .projection import (
    counterexample_pair,
    halfline_difference_table,
    mapping_projection,
    weighted_projection,
)
from .surgery import cut_and_paste
from .tomography import (
    AmbiguousReconstruction,
    BandOracle,
    CoverageGap,
    _check_band_row,
    _measured_charts,
    default_normals,
    reconstruct_conic,
    reconstruct_from_marginals,
)
from .variation import DegenerateGeometryError, vertex_residuals

DOMAIN_ERRORS = (
    DegenerateGeometryError,
    AmbiguousReconstruction,
    CoverageGap,
    ZeroDensityError,
    OverflowError,
)


@dataclass
class RunManifest:
    """Record of one CLI run, serialized next to its outputs."""

    command: str
    inputs: list[str] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    def write(self) -> None:
        if not self.outputs:
            return
        path = Path(self.outputs[0]).with_suffix("").as_posix() + ".manifest.json"
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "parameters": self.parameters,
            "outputs": self.outputs,
            "tool_version": __version__,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _flag(what: str, rule, *args):
    """rule(*args), a ValueError it raises re-raised as a SchemaError
    "<what>: <message>": the flags obey the library's own rules."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise SchemaError(f"{what}: {exc}") from exc


def _parse_floats(text: str, what: str) -> list[float]:
    """The comma-separated numbers of a flag; their range is the library's to check."""
    return _flag(what, lambda: [float(t) for t in text.strip().strip("[]()").split(",")])


def _atom_table(atoms, n: int) -> tuple[list[str], list[tuple]]:
    """(header, sorted rows) of a CSV table of variation atoms in R^n."""
    header = [f"x{i + 1}" for i in range(n)] + [f"omega{i + 1}" for i in range(n)] + ["mass"]
    rows = sorted(tuple(a.location) + tuple(a.omega) + (a.mass,) for a in atoms)
    return header, rows


def _cmd_check_stationary(args, manifest: RunManifest) -> int:
    doc = load_varifold(args.input)
    v = doc.require_discrete()
    atoms = vertex_residuals(v, _flag("--tol", _tolerance, args.tol, "tolerance"))
    header, rows = _atom_table(atoms, v.ambient_dim)
    worst = max((a.mass for a in atoms), default=0.0)
    manifest.inputs.append(args.input)
    manifest.parameters["tol"] = args.tol
    print(f"max residual mass: {format_float(worst)}")
    if args.out:
        write_csv(args.out, header, rows)
        manifest.outputs.append(args.out)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(format_float(c) for c in row))
    return 0


def _cmd_project(args, manifest: RunManifest) -> int:
    doc = load_varifold(args.input)
    v = doc.require_discrete()
    p = load_subspace(args.subspace)
    _flag("--subspace", _same_dim, p.ambient_dim, v.ambient_dim, "subspace")
    image = mapping_projection(v, p) if args.mapping else weighted_projection(v, p)
    out = args.out or (Path(args.input).stem + ".projected.json")
    save_varifold(out, discrete=image)
    manifest.inputs += [args.input, args.subspace]
    manifest.parameters["mode"] = "mapping" if args.mapping else "weighted"
    manifest.outputs.append(str(out))
    print(f"wrote {out}")
    return 0


def _cmd_surgery(args, manifest: RunManifest) -> int:
    doc = load_varifold(args.input)
    v = doc.require_discrete()
    center = _flag("--center", _point, _parse_floats(args.center, "--center"), v.ambient_dim)
    radius = _flag("--radius", _positive, args.radius, "radius")
    result = cut_and_paste(v, center, radius)
    prefix = args.out or (Path(args.input).stem + ".surgery")
    out_json = f"{prefix}.json"
    out_csv = f"{prefix}.boundary.csv"
    save_varifold(out_json, discrete=result.combined)
    header, rows = _atom_table(result.boundary_atoms, v.ambient_dim)
    write_csv(out_csv, header, rows)
    manifest.inputs.append(args.input)
    manifest.parameters.update(center=list(map(float, center)), radius=radius)
    manifest.outputs += [out_json, out_csv]
    print(f"wrote {out_json} and {out_csv} ({len(rows)} boundary atoms)")
    return 0


def _cmd_counterexample(args, manifest: RunManifest) -> int:
    v1, v2 = counterexample_pair()
    table = _flag("--directions", halfline_difference_table, v1, v2, args.directions)
    out = args.out or "counterexample.csv"
    write_csv(out, ["angle", "m_v1", "m_v2", "diff"], [tuple(r) for r in table])
    manifest.parameters["directions"] = args.directions
    manifest.outputs.append(out)
    print(f"max |diff| over {args.directions} directions: "
          f"{format_float(float(np.max(np.abs(table[:, 3]))))}")
    print(f"wrote {out}")
    return 0


def _reconstruct_from_cone(args, manifest: RunManifest) -> int:
    doc = load_varifold(args.input)
    cone = doc.require_conic()
    n = _flag(args.input, _count, cone.ambient_dim, "ambient_dim", 2)
    normals = _flag("--normals", default_normals, n, args.normals)
    oracle = BandOracle(cone)
    recon = reconstruct_conic(oracle, n, normals=normals)
    # each atom's nearest reconstructed atom, the first of equals
    diff = recon.atom_directions[None, :, :] - cone.atom_directions[:, None, :]
    dist = np.sqrt(_rowdot(diff, diff))  # np.linalg.norm's bits
    rows = []
    for i, (z, m) in enumerate(zip(cone.atom_directions, cone.atom_masses.tolist())):
        if recon.n_atoms:
            best = int(np.argmin(dist[i]))
            err, mass_err = float(dist[i, best]), abs(float(recon.atom_masses[best]) - m)
        else:
            err, mass_err = math.inf, m
        rows.append(tuple(z) + (m, err, mass_err))
    header = [f"dir{i + 1}" for i in range(n)] + ["mass", "position_error", "mass_error"]
    rows.sort()
    out = args.report or (Path(args.input).stem + ".residuals.csv")
    write_csv(out, header, rows)
    outputs = [out]
    if args.out:
        save_varifold(args.out, conic=recon)
        outputs.append(args.out)
    manifest.inputs.append(args.input)
    manifest.parameters["normals_extra"] = args.normals
    manifest.outputs += outputs
    worst_pos = max((r[-2] for r in rows), default=0.0)
    worst_mass = max((r[-1] for r in rows), default=0.0)
    print(
        f"recovered {recon.n_atoms}/{cone.n_atoms} atoms; "
        f"max position error {format_float(worst_pos)}, "
        f"max mass error {format_float(worst_mass)}"
    )
    print(f"wrote {', '.join(outputs)}")
    return 0


def _reconstruct_from_measurements(args, manifest: RunManifest) -> int:
    n = _flag("--ambient-dim", _count, args.ambient_dim, "ambient_dim", 2)
    path = Path(args.from_measurements)
    lines = path.read_text().strip().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty file, expected a CSV header")
    header = [h.strip() for h in lines[0].split(",")]
    expected = [f"v{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)] + [
        "s", "t", "band_mass",
    ]
    if header != expected:
        raise SchemaError(f"expected CSV columns {expected}, got {header}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(expected):
            raise SchemaError(f"line {lineno}: expected {len(expected)} cells, got {len(cells)}")
        vals = _flag(f"line {lineno}", lambda: [float(t) for t in cells])
        if not np.all(np.isfinite(vals)):
            raise SchemaError(f"line {lineno}: values must be finite")
        _flag(f"line {lineno}", _check_band_row, vals)
        rows.append(vals)
    try:
        charts = _measured_charts(np.array(rows).reshape(-1, len(expected)))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    recon = reconstruct_from_marginals(n, charts)
    out = args.out or (path.stem + ".reconstructed.json")
    save_varifold(out, conic=recon)
    manifest.inputs.append(str(path))
    manifest.parameters["ambient_dim"] = n
    manifest.outputs.append(out)
    print(f"reconstructed {recon.n_atoms} atoms; wrote {out}")
    return 0


def _cmd_reconstruct(args, manifest: RunManifest) -> int:
    if args.from_measurements:
        return _reconstruct_from_measurements(args, manifest)
    if not args.input:
        raise SchemaError("reconstruct needs an input cone or --from-measurements")
    return _reconstruct_from_cone(args, manifest)


def _cmd_blowup(args, manifest: RunManifest) -> int:
    doc = load_varifold(args.input)
    v = doc.require_discrete()
    point = _flag("--point", _point, _parse_floats(args.point, "--point"), v.ambient_dim)
    lambdas = _flag("--lambdas", dilation_factors, _parse_floats(args.lambdas, "--lambdas"))
    cone, diag = tangent_estimate(v, point, lambdas)
    prefix = args.out or (Path(args.input).stem + ".blowup")
    out_json = f"{prefix}.cone.json"
    out_csv = f"{prefix}.csv"
    save_varifold(out_json, conic=cone)
    write_csv(out_csv, ["lambda", "weak_star_distance"],
              list(zip(diag.lambdas, diag.distances)))
    manifest.inputs.append(args.input)
    manifest.parameters.update(point=list(map(float, point)), lambdas=lambdas)
    manifest.outputs += [out_json, out_csv]
    stab = diag.stabilized_at
    print(f"cone atoms: {cone.n_atoms}; stabilized at index: {stab}")
    print(f"wrote {out_json} and {out_csv}")
    return 0


def _cmd_fixture(args, manifest: RunManifest) -> int:
    name = args.name
    if name == "dense-lines":
        v = _flag("--k", dense_lines_fixture, args.k, args.seed)
        prefix = args.out or f"dense_lines_k{args.k}"
        out_json = f"{prefix}.json"
        save_varifold(out_json, discrete=v)
        cap_dir = np.array([0.0, 0.0, 1.0])
        ks = sorted({max(1, args.k // 4), max(1, args.k // 2), args.k})
        table = projection_growth_table(ks, cap_dir, 0.5, seed=args.seed)
        out_csv = f"{prefix}.growth.csv"
        write_csv(out_csv, ["k", "radial_cap_mass"], table)
        manifest.parameters.update(k=args.k, seed=args.seed)
        manifest.outputs += [out_json, out_csv]
        print(f"wrote {out_json} and {out_csv}")
        return 0
    if name == "line":
        v = full_line(np.zeros(2), np.array([1.0, 0.0]))
        out = args.out or "line.json"
        save_varifold(out, discrete=v)
    elif name == "y-junction":
        out = args.out or "y_junction.json"
        save_varifold(out, discrete=y_junction())
    else:  # "y-cone": the parser's choices admit no other name
        out = args.out or "y_cone.json"
        save_varifold(out, conic=balanced_y_cone())
    manifest.parameters["name"] = name
    manifest.outputs.append(str(out))
    print(f"wrote {out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varifold-lab",
        description="Exact calculus on one-dimensional varifolds",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check-stationary", help="vertex residual table")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")

    p = sub.add_parser("project", help="project a varifold onto a subspace")
    p.add_argument("input")
    p.add_argument("--subspace", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--weighted", action="store_true", default=True)
    mode.add_argument("--mapping", action="store_true", default=False)
    p.add_argument("--out")

    p = sub.add_parser("surgery", help="cut-and-paste stationarization")
    p.add_argument("input")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("reconstruct", help="tomographic cone reconstruction")
    p.add_argument("input", nargs="?")
    p.add_argument("--normals", type=int, default=1,
                   help="extra generic normals beyond the signed axes")
    p.add_argument("--report")
    p.add_argument("--out")
    p.add_argument("--from-measurements")
    p.add_argument("--ambient-dim", type=int)

    p = sub.add_parser("counterexample", help="projection-blind density pair")
    p.add_argument("--directions", type=int, default=360)
    p.add_argument("--out")

    p = sub.add_parser("blowup", help="tangent cone with diagnostics")
    p.add_argument("input")
    p.add_argument("--point", required=True)
    p.add_argument("--lambdas", required=True)
    p.add_argument("--out")

    p = sub.add_parser("fixture", help="emit a catalog varifold")
    p.add_argument("name", choices=["dense-lines", "line", "y-junction", "y-cone"])
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    return parser


_HANDLERS = {
    "check-stationary": _cmd_check_stationary,
    "project": _cmd_project,
    "surgery": _cmd_surgery,
    "reconstruct": _cmd_reconstruct,
    "counterexample": _cmd_counterexample,
    "blowup": _cmd_blowup,
    "fixture": _cmd_fixture,
}


def run(argv: list[str]) -> tuple[int, RunManifest | None]:
    """Execute one CLI invocation; returns (exit status, manifest)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), None
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2, None
    manifest = RunManifest(command=" ".join([args.command] + list(argv[1:])))
    try:
        status = _HANDLERS[args.command](args, manifest)
    except DOMAIN_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1, manifest
    except (SchemaError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2, manifest
    manifest.write()
    return status, manifest


def main() -> None:
    status, _ = run(sys.argv[1:])
    sys.exit(status)
