import importlib

import pytest

import torus_planes
import numpy as np

from torus_planes import (
    CircleHomeo,
    ConfigError,
    DerivedLine,
    FactorActionReport,
    ParallelClass,
    ProjPoint,
    TorusPoint,
    TrialConfig,
    TwoPointFamily,
    classical_plane,
    half_classical_plane,
)


class TestNamespace:
    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from torus_planes import *", namespace)
        assert set(torus_planes.__all__) <= namespace.keys()

    @pytest.mark.parametrize("name", torus_planes.__all__)
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"torus_planes.{torus_planes._HOME[name]}")
        assert getattr(torus_planes, name) is getattr(home, name)

    def test_dir_lists_every_public_name(self):
        assert set(torus_planes.__all__) <= set(dir(torus_planes))

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            torus_planes.no_such_name  # noqa: B018
        assert not hasattr(torus_planes, "no_such_name")


# ProjPoint and Circle compare by identity, so every value shares them
_X = ProjPoint.from_real(2.0)
_CIRCLE = classical_plane().join(*(TorusPoint.from_reals(x, x * x) for x in (0, 1, 2)))
_VALUES = {
    "TrialConfig": lambda: TrialConfig(seed=3, trials=7),
    "ParallelClass": lambda: ParallelClass("plus", _X),
    "DerivedLine": lambda: DerivedLine(kind="circle", circle=_CIRCLE),
    "FactorActionReport": lambda: FactorActionReport(
        "minus", "L2-on-line", False, (ParallelClass("minus", _X),)),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_types_are_immutable_and_compare_by_fields(name):
    make = _VALUES[name]
    value = make()
    first = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make() and hash(value) == hash(make())
    assert value != value._replace(**{first: object()})


# the slotted classes, each built with every slot set past _Frozen.__setattr__
_FAMILY = lambda: TwoPointFamily(*(ProjPoint.from_real(x) for x in (0.0, 1.0, 2.0, 3.0)))
_FROZEN = {
    "ProjPoint": lambda: _X,
    "TorusPoint": lambda: TorusPoint(_X, _X),
    "TwoPointFamily": _FAMILY,
    "FrameMember": lambda: _FAMILY().member(2.0),
    "CircleHomeo": lambda: CircleHomeo.power(2.0),
    "Circle": lambda: _CIRCLE,
    "PlaneModel": lambda: half_classical_plane(CircleHomeo.power(2.0)),
}


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_slotted_values_refuse_assignment(name):
    value = _FROZEN[name]()
    assert type(value).__name__ == name
    slots = [s for cls in type(value).__mro__ for s in getattr(cls, "__slots__", ())]
    assert slots
    for slot in slots:
        before = getattr(value, slot)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, slot, before)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, slot)
        assert getattr(value, slot) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_trial_config_takes_every_integral_and_nothing_else():
    assert TrialConfig(seed=np.int64(7), trials=np.int64(3)) == (7, 3)
    for seed, trials in ((1, 2.0), (-1, 5), (1, 0), ("1", 5)):
        with pytest.raises(ConfigError):
            TrialConfig(seed=seed, trials=trials)
