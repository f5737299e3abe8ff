"""The frozen records against `@dataclass(frozen=True)` twins.

Each twin below repeats a record's declaration as it stood when the
records were dataclasses: its fields in order, their defaults, and which
fields `__init__`, ==, hash and repr take. The records are now plain
classes (`xistep.records`); on sample instances they must compare, hash,
print, pickle, copy and refuse assignment as their twins do, keep their
constructor signatures, and `replace` must check its result again and
start it with empty caches."""

import copy
import dataclasses
import inspect
import pickle
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from xistep import (config, moments, partitions, reversibility, setfun,
                    simplex, simulator)
from xistep.records import replace

from conftest import (ATOM_HALF_QUARTER, E_STAR, KINGMAN, indicator_power,
                      kingman_model, kingman_scalar, rand_consistent_params,
                      seeded)

F = Fraction


@dataclass(frozen=True)
class ExperimentConfig:
    xi: object
    theta: Fraction
    base: object
    u1: Fraction
    u2: Fraction
    e_star: object
    alpha: Fraction
    mu1: object
    mu2: object
    replicas: int
    seed: int
    b_max: int
    options: dict = field(default_factory=dict)
    digest: str = ""


@dataclass(frozen=True)
class ScalarParams:
    theta: Fraction
    alpha: Fraction
    u1: Fraction
    u2: Fraction
    a2: Fraction = None
    a21: Fraction = None
    a3: Fraction = None
    a211: Fraction = None
    a22: Fraction = None
    a31: Fraction = None
    a4: Fraction = None
    table: object = field(default=None, compare=False, repr=False)
    _rows: dict = field(init=False, default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LinearSystem:
    unknowns: tuple
    solution: dict
    bands: tuple = field(repr=False)
    lifted: tuple = field(repr=False)
    scales: tuple = field(repr=False)
    common: int = field(repr=False)
    det: int = field(repr=False)


@dataclass(frozen=True)
class HausdorffReport:
    min_value: Fraction
    violations: tuple
    checked: int


@dataclass(frozen=True)
class LabeledPartition:
    partition: tuple
    labels: tuple


@dataclass(frozen=True)
class ReversibilityProbe:
    left: tuple
    right: tuple


@dataclass(frozen=True)
class FactorizationReport:
    s1_matches: tuple
    s1_zero_iff_symmetric: bool
    t1_zero_iff_half: bool
    contra_zero_iff_no_triple: bool
    bracket_positive: bool


@dataclass(frozen=True)
class ContradictionReport:
    pair_rate: Fraction
    residual: Fraction
    cubic_numerator: Fraction
    closed_form_matches: bool
    cubic_scaling: bool
    nonzero: bool


@dataclass(frozen=True)
class DyadicSet:
    level: int
    cells: frozenset


@dataclass(frozen=True)
class SetFunction:
    level: int
    coeffs: tuple


@dataclass(frozen=True)
class TensorFunction:
    factors: tuple


@dataclass(frozen=True)
class BaseMeasure:
    grid_level: int
    densities: tuple
    atoms: tuple = ()


@dataclass(frozen=True)
class MutationSpec:
    theta: Fraction
    base: object


@dataclass(frozen=True)
class SimplexAtom:
    coords: tuple
    weight: Fraction


@dataclass(frozen=True)
class XiMeasure:
    kingman_mass: Fraction = Fraction(0)
    atoms: tuple = ()


@dataclass(frozen=True)
class CollisionProfile:
    n: int
    merge_sizes: tuple
    s: int


@dataclass(frozen=True)
class RateTable:
    b_max: int
    rows: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConsistencyReport:
    checks: tuple


@dataclass(frozen=True)
class ModelParams:
    xi: object
    mutation: object
    u1: Fraction
    u2: Fraction
    b_max: int
    table: object = field(init=False, compare=False, repr=False)
    _tables: tuple = field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class DualState:
    lp: object
    y: object
    clock: float = 0.0
    events: int = 0


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    replicas: int
    seed: int


@dataclass(frozen=True)
class StopRule:
    at_time: float = None
    at_absorption: bool = False
    max_events: int = simulator.EVENT_CAP


@dataclass(frozen=True)
class Trajectory:
    events: tuple
    truncated: bool = False
    stop_time: float = None
    _decoded: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)


TWINS = {
    config.ExperimentConfig: ExperimentConfig,
    moments.ScalarParams: ScalarParams,
    moments.LinearSystem: LinearSystem,
    moments.HausdorffReport: HausdorffReport,
    partitions.LabeledPartition: LabeledPartition,
    reversibility.ReversibilityProbe: ReversibilityProbe,
    reversibility.FactorizationReport: FactorizationReport,
    reversibility.ContradictionReport: ContradictionReport,
    setfun.DyadicSet: DyadicSet,
    setfun.SetFunction: SetFunction,
    setfun.TensorFunction: TensorFunction,
    setfun.BaseMeasure: BaseMeasure,
    setfun.MutationSpec: MutationSpec,
    simplex.SimplexAtom: SimplexAtom,
    simplex.XiMeasure: XiMeasure,
    simplex.CollisionProfile: CollisionProfile,
    simplex.RateTable: RateTable,
    simplex.ConsistencyReport: ConsistencyReport,
    simulator.ModelParams: ModelParams,
    simulator.DualState: DualState,
    simulator.McEstimate: McEstimate,
    simulator.StopRule: StopRule,
    simulator.Trajectory: Trajectory,
}

VALID_CONFIG = {
    "xi": {"kingman_mass": "1"}, "theta": "1",
    "mutation": {"kind": "uniform", "base": {"densities": ["1"]}},
    "u1": "1", "u2": "2", "e_star": {"level": 1, "cells": [0]},
    "seed": 7, "b_max": 4, "options": {"order": 2}}


def samples():
    """Per record class, instances that differ in their compared fields;
    caches are filled where a record keeps one."""
    uniform = setfun.BaseMeasure.uniform()
    skewed = setfun.BaseMeasure(1, (F(1), F(1, 2)), ((F(1, 3), F(1, 4)),))
    params = kingman_scalar()
    moments.solve_stationary(3, params)             # fills `_rows`
    systems = moments.stationary_system(2, params)
    systems[1].matrix                               # a cached property
    table = simplex.build_rate_table(ATOM_HALF_QUARTER, 4)
    table.drop_numerators(4)
    model = kingman_model()
    f, eta = indicator_power(2), (1, 2)
    state, traj = simulator.run_until(
        simulator.initial_state(f, eta), model,
        simulator.StopRule(at_time=0.7), simulator.replica_rng(5, 0))
    simulator.replay(f, eta, traj, model)           # fills `_decoded`
    skewed.exact_weights(2)                         # fills `_cache`
    return {
        config.ExperimentConfig: [
            config.parse_config(VALID_CONFIG, "ab"),
            config.parse_config(dict(VALID_CONFIG, options={}), "cd")],
        moments.ScalarParams: [params, kingman_scalar(u1=F(2)),
                               rand_consistent_params(seeded(1))],
        moments.LinearSystem: systems,
        moments.HausdorffReport: [
            moments.hausdorff_check(moments.solve_stationary(3, params)),
            moments.HausdorffReport(F(-1), ((((0,), (1,)), F(-1)),), 3)],
        partitions.LabeledPartition: [
            partitions.LabeledPartition(((1,), (2,)), (1, 2)),
            partitions.LabeledPartition(((1, 2),), (2,))],
        reversibility.ReversibilityProbe: [reversibility.S1_PROBE,
                                           reversibility.T1_PROBE],
        reversibility.FactorizationReport: [
            reversibility.FactorizationReport((True, False), True, True,
                                              False, True),
            reversibility.FactorizationReport((), False, True, True, True)],
        reversibility.ContradictionReport: [
            reversibility.final_contradiction(F(1)),
            reversibility.final_contradiction(F(2), F(1, 2))],
        setfun.DyadicSet: [E_STAR, setfun.DyadicSet(2, frozenset({1, 2}))],
        setfun.SetFunction: [setfun.SetFunction.indicator(E_STAR),
                             setfun.SetFunction(1, (0.5, 1.0))],
        setfun.TensorFunction: [f, indicator_power(3)],
        setfun.BaseMeasure: [uniform, skewed],
        setfun.MutationSpec: [setfun.MutationSpec(1, uniform),
                              setfun.MutationSpec(F(1, 2), skewed)],
        simplex.SimplexAtom: list(ATOM_HALF_QUARTER.atoms) + [
            simplex.SimplexAtom((F(1, 3),), F(2))],
        simplex.XiMeasure: [KINGMAN, ATOM_HALF_QUARTER, simplex.XiMeasure()],
        simplex.CollisionProfile: [simplex.CollisionProfile(2, (2,), 0),
                                   simplex.CollisionProfile(4, (2, 2), 0)],
        simplex.RateTable: [table, simplex.build_rate_table(KINGMAN, 4),
                            simplex.RateTable(3)],
        simplex.ConsistencyReport: [simplex.check_consistency(table),
                                    simplex.ConsistencyReport(())],
        simulator.ModelParams: [model, kingman_model(u1=F(2))],
        simulator.DualState: [state, simulator.initial_state(f, eta)],
        simulator.McEstimate: [simulator.McEstimate(0.5, 0.01, 100, 7),
                               simulator.McEstimate(0.25, 0.02, 100, 7)],
        simulator.StopRule: [simulator.StopRule(at_time=0.5),
                             simulator.StopRule(at_absorption=True)],
        simulator.Trajectory: [traj, simulator.Trajectory(())],
    }


@pytest.fixture(scope="module")
def cases():
    """(record, its twin) pairs, the twin holding the record's values."""
    pairs = []
    for cls, records in samples().items():
        twin = TWINS[cls]
        init = [f.name for f in dataclasses.fields(twin) if f.init]
        pairs += [(r, twin(**{name: getattr(r, name) for name in init}))
                  for r in records]
    return pairs


def init_args(record):
    return {name: getattr(record, name) for name in record._fields}


def test_every_record_has_a_twin(cases):
    assert {type(r) for r, _ in cases} == set(TWINS)
    for cls, twin in TWINS.items():
        assert cls.__qualname__ == twin.__qualname__
        assert not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("cls", TWINS, ids=lambda cls: cls.__name__)
def test_signature(cls):
    """Positional order, keyword names and defaults; a default made by a
    factory is None, which builds the same empty value."""
    twin = TWINS[cls]
    got = list(inspect.signature(cls).parameters.values())
    want = [f for f in dataclasses.fields(twin) if f.init]
    assert [p.name for p in got] == [f.name for f in want]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in got)
    for p, f in zip(got, want):
        if f.default_factory is not dataclasses.MISSING:
            assert p.default is None
        elif f.default is dataclasses.MISSING:
            assert p.default is p.empty
        else:
            assert p.default == f.default
            assert type(p.default) is type(f.default)


def test_factory_defaults_are_fresh():
    a, b = simplex.RateTable(3), simplex.RateTable(3)
    assert a.rows == {} and a.rows is not b.rows


def test_repr(cases):
    for record, twin in cases:
        assert repr(record) == repr(twin)


def hashed(obj):
    try:
        return hash(obj)
    except TypeError as e:   # a dict among the compared fields
        return str(e)


def test_hash(cases):
    for record, twin in cases:
        assert hashed(record) == hashed(twin)
        assert hashed(record) == hashed(type(record)(**init_args(record)))


def test_eq_and_ne_within_and_across_classes(cases):
    rebuilt = [(type(r)(**init_args(r)), t) for r, t in cases]
    pairs = cases + rebuilt
    for r1, t1 in pairs:
        assert r1.__eq__(t1) is NotImplemented and r1 != t1
        for r2, t2 in pairs:
            assert (r1 == r2) is (t1 == t2)
            assert (r1 != r2) is (t1 != t2)


def test_pickle_and_copy_round_trips(cases):
    for record, twin in cases:
        for back in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(back) is type(record) and back is not record
            assert back == record and repr(back) == repr(record)
            assert all(getattr(back, name) == getattr(record, name)
                       for name in record._fields)
        assert pickle.loads(pickle.dumps(twin)) == twin


def test_pickle_leaves_unpicklable_caches_behind(cases):
    filled = 0
    for record, _ in cases:
        back = pickle.loads(pickle.dumps(record))
        for name in ("_decoded", "_cache"):
            if vars(record).get(name):
                filled += 1
                assert vars(back)[name] == {}
    assert filled == 2


def test_assignment_and_deletion_refused(cases):
    for record, twin in cases:
        before = dict(vars(record))
        for name in [f.name for f in dataclasses.fields(twin)] + ["other"]:
            for act in (lambda obj: setattr(obj, name, 1),
                        lambda obj: delattr(obj, name)):
                with pytest.raises(AttributeError) as got:
                    act(record)
                with pytest.raises(dataclasses.FrozenInstanceError) as want:
                    act(twin)
                assert str(got.value) == str(want.value)
        assert vars(record) == before


def test_replace_starts_with_empty_caches(cases):
    for record, _ in cases:
        cold = type(record)(**init_args(record))
        fresh = replace(record)
        assert fresh == record and fresh is not record
        assert vars(fresh) == vars(cold)
    params = kingman_scalar()
    moments.solve_stationary(2, params)
    assert params._rows and replace(params)._rows == {}
    assert "_row_scale" in vars(params)
    assert "_row_scale" not in vars(replace(params))


# per record class, a change that `replace` takes on its first sample, its
# values already in the form the record keeps, and, where `__init__`
# checks its arguments, a change it refuses with the message it gives
CHANGES = {
    config.ExperimentConfig: ({"seed": 11}, None),
    moments.ScalarParams: ({"u1": F(3)},
                           ({"theta": F(0)}, "theta must be positive")),
    moments.LinearSystem: ({"det": 5}, None),
    moments.HausdorffReport: ({"checked": 99}, None),
    partitions.LabeledPartition: (
        {"labels": (2, 1)},
        ({"labels": (1, 3)}, "labels must be colony 1 or 2")),
    reversibility.ReversibilityProbe: (
        {"right": (1, 1)},
        ({"left": (0, 0), "right": (0, 0)}, "at least one side must be")),
    reversibility.FactorizationReport: ({"bracket_positive": False}, None),
    reversibility.ContradictionReport: ({"nonzero": False}, None),
    setfun.DyadicSet: ({"cells": frozenset({1})},
                       ({"cells": frozenset({5})}, "cell index out of range")),
    setfun.SetFunction: ({"coeffs": (F(0), F(1))},
                         ({"coeffs": (F(1),)}, "one coefficient per cell")),
    setfun.TensorFunction: ({"factors": indicator_power(1).factors},
                            ({"factors": ()}, "at least one factor")),
    setfun.BaseMeasure: ({"atoms": ((F(1, 2), F(0)),)},
                         ({"densities": (F(2),)},
                          "total mass must be 1, got 2")),
    setfun.MutationSpec: ({"theta": F(2)},
                          ({"theta": F(-1)}, "theta must be nonnegative")),
    simplex.SimplexAtom: ({"weight": F(2)},
                          ({"weight": F(0)}, "weight must be positive")),
    simplex.XiMeasure: ({"kingman_mass": F(2)},
                        ({"kingman_mass": F(-1)}, "must be nonnegative")),
    simplex.CollisionProfile: ({"n": 3, "s": 1},
                               ({"s": 1}, "need n = s \\+ sum")),
    simplex.RateTable: ({"b_max": 9}, None),
    simplex.ConsistencyReport: ({"checks": ()}, None),
    simulator.ModelParams: ({"u2": F(3)},
                            ({"u1": F(0)}, "migration rate u1 must be "
                             "positive, got 0")),
    simulator.DualState: ({"clock": 2.5},
                          ({"y": indicator_power(3)}, "tensor arity")),
    simulator.McEstimate: ({"mean": 0.75}, None),
    simulator.StopRule: ({"max_events": 9},
                         ({"at_absorption": True}, "exactly one target")),
    simulator.Trajectory: ({"stop_time": 0.9}, None),
}


def test_replace_checks_again(cases):
    first = {}
    for record, twin in cases:
        first.setdefault(type(record), (record, twin))
    for record, twin in first.values():
        change, refused = CHANGES[type(record)]
        got = replace(record, **change)
        want = dataclasses.replace(twin, **change)
        assert repr(got) == repr(want) and hashed(got) == hashed(want)
        assert (got == record) is (want == twin)
        if refused is not None:
            bad, message = refused
            with pytest.raises(ValueError, match=message):
                replace(record, **bad)
            with pytest.raises(ValueError, match=message):
                type(record)(**dict(init_args(record), **bad))


@pytest.mark.parametrize("cls,name", [
    (moments.ScalarParams, "_rows"), (simulator.ModelParams, "table"),
    (simulator.ModelParams, "_tables"), (simulator.Trajectory, "_decoded")])
def test_replace_refuses_a_field_init_does_not_take(cases, cls, name):
    record, twin = next((r, t) for r, t in cases if type(r) is cls)
    for swap in (replace, dataclasses.replace):
        with pytest.raises(ValueError, match=name):
            swap(record if swap is replace else twin, **{name: {}})
