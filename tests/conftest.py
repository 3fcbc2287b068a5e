import numpy as np
import pytest

from varifold_lab import ConicVarifold, SampledDensity, circle_grid, sphere_grid
from varifold_lab.fixtures import random_conic


def _random_density(rng, grid):
    values = rng.uniform(0.0, 2.0, size=grid.size)
    values[rng.random(grid.size) < 0.3] = 0.0  # zero nodes carry no ray
    return SampledDensity(grid, values)


@pytest.fixture
def mixed_cones():
    """Random cones in R^2, R^3 and R^4: atoms only, and atoms (or none)
    plus a sampled density on S^1 or S^2."""
    rng = np.random.default_rng(2024)
    cones = []
    for _ in range(4):
        for n in (2, 3, 4):
            cones.append(random_conic(rng, n, n_atoms=int(rng.integers(1, 7))))
        for n, grid in ((2, circle_grid(64)), (3, sphere_grid(6, 12))):
            atoms = random_conic(rng, n, n_atoms=int(rng.integers(1, 5)))
            cones.append(ConicVarifold(n, atoms.atom_directions, atoms.atom_masses,
                                       _random_density(rng, grid)))
            cones.append(ConicVarifold(n, density=_random_density(rng, grid)))
    return cones
