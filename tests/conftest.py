import numpy as np
import pytest

from varifold_lab import ConicVarifold, SampledDensity, circle_grid, sphere_grid
from varifold_lab.core import DiscreteVarifold, RayPiece, SegmentPiece, _is_unit
from varifold_lab.fixtures import random_conic
from varifold_lab.tomography import LineMeasure, PlaneMeasure
from varifold_lab.variation import VariationAtom


def _same_arrays(built, again, names):
    for name in names:
        a, b = getattr(built, name), getattr(again, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"{name} differs"
        assert a.flags.c_contiguous and not a.flags.writeable, f"{name} is not read-only"


def _recheck_discrete(v):
    again = DiscreteVarifold._from_columns(
        v.ambient_dim, v.seg_a, v.seg_b, v.seg_w, v.ray_o, v.ray_d, v.ray_w)
    _same_arrays(v, again, ("seg_a", "seg_b", "seg_w", "seg_len", "seg_u",
                            "ray_o", "ray_d", "ray_w"))


def _recheck_conic(c):
    again = ConicVarifold(c.ambient_dim, c.atom_directions, c.atom_masses, c.density)
    _same_arrays(c, again, ("atom_directions", "atom_masses"))


def _recheck_plane(m):
    _same_arrays(m, PlaneMeasure(m.plane, m.points, m.masses), ("points", "masses"))


def _recheck_line(m):
    # the constructor normalizes its direction; a trusted one is unit already
    again = LineMeasure(m.direction, m.coordinates, m.masses)
    assert m.direction.shape == again.direction.shape and not m.direction.flags.writeable
    if not _is_unit(m.direction):
        raise ValueError("direction must be a unit vector")
    _same_arrays(m, again, ("coordinates", "masses"))


def _recheck_fields(obj):
    """Rebuild a value from its fields through its public constructor; every
    field must come back with the same bits."""
    names = list(type(obj).__dataclass_fields__)
    again = type(obj)(*(getattr(obj, name) for name in names))
    arrays = [name for name in names if isinstance(getattr(obj, name), np.ndarray)]
    _same_arrays(obj, again, arrays)
    for name in set(names) - set(arrays):
        assert getattr(obj, name) == getattr(again, name), f"{name} differs"


# every class with an unchecked _trusted constructor, and the public checks
# that each object it builds must pass
RECHECKS = {
    DiscreteVarifold: _recheck_discrete,
    ConicVarifold: _recheck_conic,
    PlaneMeasure: _recheck_plane,
    LineMeasure: _recheck_line,
    SegmentPiece: _recheck_fields,
    RayPiece: _recheck_fields,
    VariationAtom: _recheck_fields,
}


def _rechecked(cls, recheck):
    build = cls._trusted.__func__
    busy = []  # _recheck_discrete builds through _trusted itself

    def trusted(cls, *args):
        built = build(cls, *args)
        if not busy:
            busy.append(cls)
            try:
                recheck(built)
            except ValueError as exc:
                raise AssertionError(
                    f"{cls.__name__}._trusted built an invalid value: {exc}") from exc
            finally:
                busy.pop()
        return built

    return classmethod(trusted)


@pytest.fixture(autouse=True, scope="session")
def recheck_trusted_builds():
    """Run the public checks of its class on every object that a _trusted
    constructor builds, so that an unchecked build of an invalid value fails
    the test that made it, with an AssertionError that no test expecting a
    ValueError can take for its own."""
    with pytest.MonkeyPatch.context() as mp:
        for cls, recheck in RECHECKS.items():
            mp.setattr(cls, "_trusted", _rechecked(cls, recheck))
        yield


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
