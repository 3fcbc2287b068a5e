"""The cold-CLI workloads: one fresh `python -m varifold_lab` process per operation.

`cli-cold` runs six subcommands on fixed small inputs kept in golden/inputs;
their expected outputs (data files and manifests) are in golden/<command>.
Both were recorded with

    python3 perfbench/cli_cold.py --record-golden

from the repository root.  Every output is compared byte for byte.
`cli-measurements` runs `reconstruct --from-measurements` on a band table of a
cone drawn from the seed and checks the output against that cone instead of
a golden file (a golden would record whatever the command returns).  The seed
also orders the commands within each pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from speed import START_REF_S, reference_start

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
TRACED_ENTRY = HERE / "cli_traced.py"

# (label, argv); every command writes into out/<label>/ of the work directory.
COMMANDS = (
    ("check-stationary", ["check-stationary", "net.json", "--out", "out/check-stationary/residuals.csv"]),
    ("project", ["project", "net.json", "--subspace", "plane.json",
                 "--out", "out/project/projected.json"]),
    ("surgery", ["surgery", "net.json", "--center", "0.1,-0.05,0.02", "--radius", "1.3",
                 "--out", "out/surgery/cut"]),
    ("blowup", ["blowup", "y.json", "--point", "0,0", "--lambdas", "1,0.5,0.25,0.125",
                "--out", "out/blowup/y"]),
    ("reconstruct", ["reconstruct", "cone.json", "--report", "out/reconstruct/residuals.csv",
                     "--out", "out/reconstruct/recon.json"]),
    ("reconstruct-measurements", ["reconstruct", "--from-measurements", "bands.csv",
                                  "--ambient-dim", "3",
                                  "--out", "out/reconstruct-measurements/measured.json"]),
    ("fixture", ["fixture", "dense-lines", "--k", "8", "--seed", "1", "--out", "out/fixture/dl"]),
)
MEASURED = "reconstruct-measurements"


def _digest(folder: Path) -> tuple:
    if not folder.is_dir():
        return ()
    return tuple(sorted((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                        for p in folder.iterdir()))


def write_band_table(path: Path, cone) -> None:
    """Narrow bands around every front-hemisphere atom of every default-normal
    marginal, measured by the forward operator; the CSV format of
    `reconstruct --from-measurements`."""
    import varifold_lab as vl

    oracle = vl.BandOracle(cone)
    n = cone.ambient_dim
    lines = [",".join([f"v{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)]
                      + ["s", "t", "band_mass"])]
    for v in vl.default_normals(n):
        h = cone.atom_directions @ v
        for xi in vl.marginal_direction_battery(vl.hyperplane_of(v)):
            lam = (cone.atom_directions @ xi)[h > 1e-6] / h[h > 1e-6]
            width = 1e-9 * (1.0 + np.abs(lam))
            bands = np.column_stack([lam - width, lam + width])
            for (s, t), m in zip(bands, oracle(v, xi, bands)):
                lines.append(",".join(repr(float(c)) for c in (*v, *xi, s, t, m)))
    path.write_text("\n".join(lines) + "\n")


class ColdCli:
    name = "cli-cold"
    speed_probe = (reference_start, START_REF_S)
    labels = tuple(label for label, _ in COMMANDS if label != MEASURED)
    mix = ("6 subcommands per pass (check-stationary, project, surgery, blowup, "
           "reconstruct from a cone, fixture) on inputs of at most 30 pieces or 4 atoms")

    def __init__(self, root: Path, src: Path):
        self.work = root / ".perfbench" / self.name
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.trace_dir = root / ".perfbench" / "cli-traces"
        self.summaries: list[dict] = []

    def build(self, rng):
        from varifold_lab import fixtures

        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(GOLDEN / "inputs", self.work)
        cone = fixtures.random_conic(rng, 3, n_atoms=int(rng.integers(2, 5)),
                                     min_separation=1e-3, mass_range=(0.1, 2.0))
        write_band_table(self.work / "bands.csv", cone)
        from workloads import Case

        commands = [(label, argv) for label, argv in COMMANDS if label in self.labels]
        cases = [Case(commands[i][0], tuple(commands[i][1]),
                      {"cone": cone} if commands[i][0] == MEASURED else {})
                 for i in rng.permutation(len(commands))]
        return cases, {}

    def run(self, case, tracer):
        out_dir = self.work / "out" / case.label
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        if tracer is None:
            cmd = [sys.executable, "-m", "varifold_lab", *case.data]
        else:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            trace_file = self.trace_dir / f"{len(self.summaries)}.json"
            cmd = [sys.executable, str(TRACED_ENTRY), str(trace_file), *case.data]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if tracer is not None:
            self.summaries.append(json.loads(trace_file.read_text()))
        return proc.returncode, proc.stderr

    def check(self, case, out):
        from workloads import Checked

        status, stderr = out
        out_dir = self.work / "out" / case.label
        digest = (status, _digest(out_dir))
        if status != 0:
            return Checked(False, digest, {}, f"exit {status}: {stderr.strip()[-200:]}")
        if case.label == MEASURED:
            return self._check_measured(case, out_dir / "measured.json", digest)
        want = _digest(GOLDEN / case.label)
        ok = digest[1] == want
        return Checked(ok, digest, {}, "" if ok else "outputs differ from the golden files")

    def _check_measured(self, case, path, digest):
        from workloads import Checked

        cone = case.expect["cone"]
        atoms = json.loads(path.read_text())["conic"]["atoms"]
        dirs = np.array([a["dir"] for a in atoms]).reshape(-1, 3)
        masses = np.array([a["mass"] for a in atoms])
        pos = mass = 0.0
        for z, m in zip(cone.atom_directions, cone.atom_masses):
            dist = np.linalg.norm(dirs - z, axis=1) if len(dirs) else np.array([np.inf])
            j = int(np.argmin(dist))
            pos = max(pos, float(dist[j]))
            mass = max(mass, abs(float(masses[j]) - float(m)) if len(dirs) else np.inf)
        ok = len(atoms) == cone.n_atoms and pos <= 1e-6 and mass <= 1e-6
        return Checked(ok, digest, {}, "" if ok else
                       f"{len(atoms)}/{cone.n_atoms} atoms, position error {pos:.3g}, "
                       f"mass error {mass:.3g} against the generating cone")


class MeasuredCli(ColdCli):
    name = "cli-measurements"
    labels = (MEASURED,)
    mix = ("reconstruct --from-measurements on the band table of one cone in R^3 "
           "with 2..4 atoms, drawn from the seed")


def record_golden(root: Path) -> None:
    """Write the fixed inputs and record every command's outputs as goldens."""
    sys.path.insert(0, str(root / "src"))
    import varifold_lab as vl
    from varifold_lab import fixtures, io

    rng = np.random.default_rng(20261017)
    inputs = GOLDEN / "inputs"
    shutil.rmtree(GOLDEN, ignore_errors=True)
    inputs.mkdir(parents=True)
    io.save_varifold(inputs / "net.json",
                     discrete=fixtures.random_stationary_network(rng, 3, n_vertices=8))
    plane = fixtures.random_subspace(rng, 3, 2)
    (inputs / "plane.json").write_text(json.dumps(
        {"ambient_dim": 3, "basis": [[float(c) for c in row] for row in plane.basis]},
        indent=2) + "\n")
    io.save_varifold(inputs / "y.json", discrete=fixtures.y_junction())
    io.save_varifold(inputs / "cone.json", conic=fixtures.random_conic(rng, 3, n_atoms=4))
    work = ColdCli(root, root / "src")
    cases, _ = work.build(np.random.default_rng(0))
    for case in cases:
        status, stderr = work.run(case, None)
        if status != 0:
            raise SystemExit(f"{case.label} exited {status}: {stderr}")
        shutil.copytree(work.work / "out" / case.label, GOLDEN / case.label)
    print(f"recorded goldens for {len(cases)} commands under {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record-golden"]:
        raise SystemExit("usage: python3 perfbench/cli_cold.py --record-golden")
    record_golden(Path.cwd())
