"""The in-process benchmark workloads.

Each workload builds a fixed list of inputs (one pass) from the seed, runs one
timed operation per input through the public API, and checks every output
outside the timed region.  The library receives only the generated inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import varifold_lab as vl
from varifold_lab import fixtures


@dataclass
class Case:
    label: str
    data: tuple
    expect: dict = field(default_factory=dict)


@dataclass
class Checked:
    ok: bool
    digest: object
    diag: dict = field(default_factory=dict)
    why: str = ""


def _bits(*arrays) -> tuple:
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays)


# Fresh oracles built per cone in set-up: enough for the passes of a 25 s
# run (at most four on a 2-vCPU Xeon VM) or the two of a traced run.
ORACLES_PER_CONE = 8


class TomoRoundtrip:
    """reconstruct_conic(BandOracle(cone), 3) on criterion-7 cones."""

    name = "tomo-roundtrip"
    mix = "200 cones in R^3, 20 of each atom count 1..10, separation >= 1e-3, masses 0.1..2"

    def build(self, rng):
        cases, oracle_s = [], 0.0
        for i in range(200):
            k = 1 + i % 10
            cone = fixtures.random_conic(rng, 3, n_atoms=k, min_separation=1e-3,
                                         mass_range=(0.1, 2.0))
            t = time.perf_counter()
            oracles = [vl.BandOracle(cone) for _ in range(ORACLES_PER_CONE)]
            oracle_s += time.perf_counter() - t
            cases.append(Case(f"atoms={k}", (cone, oracles)))
        return cases, {"tomography.oracle_setup_s": oracle_s}

    def run(self, case, tracer):
        # every operation gets an oracle whose (v, xi) cache is empty, as a
        # user's first reconstruction does; a run that outlasts the pool
        # builds the oracle in the timed region (about 6 us)
        cone, oracles = case.data
        oracle = oracles.pop() if oracles else vl.BandOracle(cone)
        if tracer is not None:
            oracle = tracer.counting_oracle(oracle)
        return vl.reconstruct_conic(oracle, 3)

    def check(self, case, recon):
        cone = case.data[0]
        pos = mass = 0.0
        for i in range(cone.n_atoms):
            if recon.n_atoms == 0:
                pos = mass = float("inf")
                break
            dist = np.linalg.norm(recon.atom_directions - cone.atom_directions[i], axis=1)
            j = int(np.argmin(dist))
            pos = max(pos, float(dist[j]))
            mass = max(mass, abs(float(recon.atom_masses[j]) - float(cone.atom_masses[i])))
        ok = recon.n_atoms == cone.n_atoms and pos <= 1e-6 and mass <= 1e-6
        return Checked(ok, _bits(recon.atom_directions, recon.atom_masses),
                       {"tomography.max_pos_err": pos, "tomography.max_mass_err": mass},
                       "" if ok else f"{recon.n_atoms}/{cone.n_atoms} atoms, "
                                     f"position error {pos:.3g}, mass error {mass:.3g}")


# Vertex counts of the ladder: geometric, 25 to about 1,000 pieces.  With
# nine sizes the median and the tail input fall in the middle of one
# network's three operations rather than between two sizes.
LADDER_VERTICES = (8, 13, 20, 32, 51, 80, 127, 202, 320)
STATIONARY_TOL = 1e-10
CONTROL_BUMP = 1e-3


def network_of_size(rng, n, n_vertices):
    """A random stationary network whose piece count is within 3% of
    3 * n_vertices + 1, the generator's mean, so that every seed runs the
    same size ladder."""
    target = 3 * n_vertices + 1
    while True:
        net = fixtures.random_stationary_network(rng, n, n_vertices=n_vertices)
        if abs(len(net.segments) + len(net.rays) - target) <= max(1, 0.03 * target):
            return net


class StationarityLadder:
    """is_stationary on stationary networks, their weighted projections,
    and perturbed controls whose residual is known."""

    name = "stationarity-ladder"
    mix = ("networks of " + "/".join(map(str, LADDER_VERTICES)) +
           " vertices (3 pieces per vertex, 25 to 961 pieces) in R^2, R^3, R^4 in turn; "
           "each as itself, one weighted projection, and one perturbed control")

    def build(self, rng):
        cases = []
        for i, nv in enumerate(LADDER_VERTICES):
            n = 2 + i % 3
            net = network_of_size(rng, n, nv)
            sub = fixtures.random_subspace(rng, n, int(rng.integers(1, n)))
            # scaling one ray leaves a residual of exactly bump * weight at its origin
            j = int(rng.integers(len(net.rays)))
            rays = list(net.rays)
            ray = rays[j]
            rays[j] = vl.RayPiece(ray.origin, ray.direction, ray.weight * (1.0 + CONTROL_BUMP))
            control = vl.DiscreteVarifold(n, net.segments, tuple(rays))
            size = f"R^{n} pieces={len(net.segments) + len(net.rays)}"
            cases.append(Case(f"network {size}", ("network", net)))
            cases.append(Case(f"projection {size}", ("projection", net, sub)))
            cases.append(Case(f"control {size}", ("control", control),
                              {"residual": CONTROL_BUMP * ray.weight}))
        return cases[::-1], {}  # slowest first, see worker.one_pass

    def run(self, case, tracer):
        kind, v = case.data[0], case.data[1]
        if kind == "projection":
            v = vl.weighted_projection(v, case.data[2])
        return vl.is_stationary(v, STATIONARY_TOL)

    def check(self, case, result):
        stationary, worst = result
        if case.data[0] == "control":
            want = case.expect["residual"]
            ok = not stationary and abs(worst - want) <= 1e-12
            diag = {}
            why = f"control: stationary={stationary}, residual {worst!r}, expected {want!r}"
        else:
            ok = bool(stationary) and worst <= STATIONARY_TOL
            diag = {"variation.max_residual": worst}
            why = f"stationary={stationary}, residual {worst!r}"
        return Checked(ok, (bool(stationary), worst), diag, "" if ok else why)


# One network size, dimensions in turn: what varies between inputs is only
# how the ball cuts the network, which keeps the median steady across seeds.
SURGERY_VERTICES = 90
SURGERY_CASES = 33
MASS_TOL = 1e-12  # criterion 4's tolerance for ball masses of the dilations


class SurgeryBattery:
    """find_good_radius and cut_and_paste, then the criterion-4 ball-mass
    battery comparing dilations of the original and the result."""

    name = "surgery-battery"
    mix = (f"{SURGERY_CASES} stationary networks of {SURGERY_VERTICES} vertices "
           f"({3 * SURGERY_VERTICES + 1} pieces within 3%) in R^2, R^3, R^4 in turn; "
           "3 dilations x 50 balls x 2 masses per operation")

    def build(self, rng):
        cases = []
        for i in range(SURGERY_CASES):
            n = 2 + i % 3
            net = network_of_size(rng, n, SURGERY_VERTICES)
            y = rng.uniform(-0.3, 0.3, n)
            balls = [(rng.uniform(-0.6, 0.6, n), float(rng.uniform(0.1, 0.35)))
                     for _ in range(50)]
            cases.append(Case(f"pieces={len(net.segments) + len(net.rays)}", (net, y, balls)))
        return cases, {}

    def run(self, case, tracer):
        v, y, balls = case.data
        r = vl.find_good_radius(v, y, 0.8, 1.7)
        result = vl.cut_and_paste(v, y, r)
        masses = []
        for lam in (r / 2.0, r / 4.0, r / 8.0):
            dv, dw = vl.dilate(v, y, lam), vl.dilate(result.combined, y, lam)
            for center, radius in balls:
                masses.append((vl.mass(dv, center, radius), vl.mass(dw, center, radius)))
        return r, result, masses

    def check(self, case, out):
        r, result, masses = out
        y = case.data[1]
        gaps = [abs(mw - mv) for mv, mw in masses]
        off = sum(1 for g in gaps if g > MASS_TOL)
        gap = max(gaps)
        residual = max((a.mass for a in vl.vertex_residuals(result.combined)), default=0.0)
        outward = all(
            float(np.dot(ray.direction, (ray.origin - y) / np.linalg.norm(ray.origin - y)))
            >= -1e-12 for ray in result.pasted_rays)
        ok = off == 0 and residual <= STATIONARY_TOL and outward
        pieces = [np.concatenate([s.a, s.b, [s.weight]]) for s in result.combined.segments]
        pieces += [np.concatenate([q.origin, q.direction, [q.weight]])
                   for q in result.combined.rays]
        digest = (r, _bits(np.array(masses)), _bits(*pieces))
        return Checked(ok, digest, {"variation.max_residual": residual},
                       "" if ok else f"{off} ball masses off (largest gap {gap:.3g}), "
                                     f"residual {residual:.3g}, outward={outward}")


TANGENT_LAMBDAS = tuple(2.0 ** -k for k in range(22))
DENSE_K = (4, 6, 8, 12, 16, 20, 24, 32, 40, 48)


class TangentCatalog:
    """tangent_estimate with 22 power-of-two dilations on the fixture catalogue."""

    name = "tangent-catalog"
    mix = ("30 cases: 6 lines and 4 Y-junctions (rays, segments) in R^2 and R^3, "
           "dense-lines at k=" + "/".join(map(str, DENSE_K)) + " in R^2 and R^3; "
           "22 dilations each")

    def build(self, rng):
        cases = []
        for n in (2, 2, 2, 3, 3, 3):
            x = rng.uniform(-1.0, 1.0, n)
            cases.append(Case(f"line R^{n}", (fixtures.full_line(x, rng.normal(size=n)), x)))
        for n in (2, 3):
            cases.append(Case(f"y-junction R^{n}", (fixtures.y_junction(n), np.zeros(n))))
            cases.append(Case(f"y-segments R^{n}",
                              (fixtures.y_junction(n, arm_length=float(rng.uniform(0.5, 2.0))),
                               np.zeros(n))))
        for n in (2, 3):
            for k in DENSE_K:
                v = vl.dense_lines_fixture(k, seed=int(rng.integers(1 << 16)), ambient_dim=n)
                x = v.rays[2 * int(rng.integers(k))].origin
                cases.append(Case(f"dense-lines R^{n} k={k}", (v, x)))
        return cases[::-1], {}  # slowest first, see worker.one_pass

    def run(self, case, tracer):
        v, x = case.data
        battery = None
        if tracer is not None:
            battery = tracer.counting_battery(vl.default_battery(v.ambient_dim))
        return vl.tangent_estimate(v, x, TANGENT_LAMBDAS, battery=battery)

    def check(self, case, out):
        cone, diag = out
        v, x = case.data
        theta = vl.density(v, x).value
        cd = vl.conic_to_discrete(cone)
        law = max(abs(vl.mass(cd, np.zeros(v.ambient_dim), r) - 2.0 * r * theta)
                  for r in (0.25, 1.0, 2.0))
        ok = diag.stabilized_at is not None and diag.distances[-1] == 0.0 and law <= 1e-12
        return Checked(ok, (_bits(cone.atom_directions, cone.atom_masses), diag.distances), {},
                       "" if ok else f"final distance {diag.distances[-1]!r}, mass law {law:.3g}")


WORKLOADS = {w.name: w for w in (TomoRoundtrip, StationarityLadder, SurgeryBattery, TangentCatalog)}
