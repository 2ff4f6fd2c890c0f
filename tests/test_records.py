"""The contract of the 18 frozen value types: repr, equality, hashing,
frozenness, copying, pickling, the stored ``vars`` and ``replace``.

Each case builds one instance of a class afresh, so two builds are equal but
not identical.  ``fields`` are the repr, ``==`` and hash fields in order;
``extra`` are the attributes the constructor derives that take no part in
them; ``change`` makes an unequal instance through ``replace``.
"""

import copy
import pickle

import numpy as np
import pytest

from transduce._record import Record
from transduce.estimator import (CouplingBenchmark, DesignReport, MillerChain,
                                 MixingBands, PumpGeometry, SweepRow)
from transduce.materials import DispersionModel, Material, MaterialDb
from transduce.phasematch import PhaseMatchInput, PhaseMatchResult, ThreeWaveResidual
from transduce.tensors import PhotoelasticTensor
from transduce.thermo import FreeEnergyModel, RelationReport, VectorFreeEnergyModel
from transduce.units import Dimension, Quantity


def tensor():
    return PhotoelasticTensor([[0.5 * (i == j) for j in range(6)] for i in range(6)])


def tabulated():
    return DispersionModel("tabulated-points", (1e-6, 3e-6),
                           [[1.5e-6, 2.25, 2.25, 2.125], [2.5e-6, 2.0, 2.0, 1.875]])


def sellmeier():
    return DispersionModel("sellmeier", (1e-6, 3e-6), sellmeier=(((1.0, 1e-14),),) * 3)


def material():
    return Material("fix", tabulated(), tensor(), "note", 1e-11, (5.0, 5.0, 5.0),
                    {"longitudinal": 5000.0}, 5.4e12)


def bands():
    return MixingBands(1.0, 2.0, 0.5, axes=[2, 1, 0])


def chain():
    return MillerChain((2.0, 2.0, 2.0), (0.2, 0.2, 0.77), 1e-11,
                       (0.25, 0.25, 0.25), 1.0, 2.0, -3.0)


def vector_model():
    return VectorFreeEnergyModel(1.0, [1.0, 2.0], np.eye(2), np.zeros(8),
                                 np.zeros(4), np.zeros(8))


def vector_model_from_lists():
    # The same values as vector_model, given flat or nested, with ints.
    return VectorFreeEnergyModel(1, (1, 2), [1, 0, 0, 1], [[[0] * 2] * 2] * 2,
                                 [[0, 0], [0, 0]], [0] * 8)


TENSOR = ("PhotoelasticTensor(entries=((0.5, 0.0, 0.0, 0.0, 0.0, 0.0), "
          "(0.0, 0.5, 0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.5, 0.0, 0.0, 0.0), "
          "(0.0, 0.0, 0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.5, 0.0), "
          "(0.0, 0.0, 0.0, 0.0, 0.0, 0.5)))")
TABULATED = ("DispersionModel(kind='tabulated-points', valid_range_m=(1e-06, 3e-06), "
             "points=((1.5e-06, 2.25, 2.25, 2.125), (2.5e-06, 2.0, 2.0, 1.875)), "
             "sellmeier=None)")
MATERIAL = (f"Material(name='fix', dispersion={TABULATED}, photoelastic={TENSOR}, "
            "photoelastic_note='note', d_eff=1e-11, eps_r=(5.0, 5.0, 5.0), "
            "v_sound={'longitudinal': 5000.0}, damage_threshold=5400000000000.0, "
            "qpm_order=1)")
BANDS = ("MixingBands(omega_p1=1.0, omega_p2=2.0, omega_m=0.5, axes=(2, 1, 0), "
         "acoustic_mode='longitudinal', strain_voigt=2, omega_t=3.5)")
CHAIN = ("MillerChain(n_bands=(2.0, 2.0, 2.0), p_entries=(0.2, 0.2, 0.77), "
         "d_eff=1e-11, eta1_rel_bands=(0.25, 0.25, 0.25), eta2=1.0, Q=2.0, q_eff=-3.0)")
ROW = ("SweepRow(power_w=1.0, peak_field_v_per_m=2.0, intensity_w_per_m2=3.0, "
       "p_virt=4.0, p_virt_over_p_nominal=5.0, intensity_over_threshold=6.0, "
       "g_scaled_rad_per_s=7.0)")
ZEROS_222 = "(((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)))"

# (id, build, repr, fields, extra, change)
CASES = [
    ("PhotoelasticTensor", tensor, TENSOR, ("entries",), (),
     {"entries": np.eye(6)}),
    ("DispersionModel-tabulated", tabulated, TABULATED,
     ("kind", "valid_range_m", "points", "sellmeier"), ("_columns",),
     {"valid_range_m": (1e-6, 4e-6)}),
    ("DispersionModel-sellmeier", sellmeier,
     "DispersionModel(kind='sellmeier', valid_range_m=(1e-06, 3e-06), points=None, "
     "sellmeier=(((1.0, 1e-14),), ((1.0, 1e-14),), ((1.0, 1e-14),)))",
     ("kind", "valid_range_m", "points", "sellmeier"), ("_columns",),
     {"sellmeier": (((2.0, 1e-14),),) * 3}),
    ("Material", material, MATERIAL,
     ("name", "dispersion", "photoelastic", "photoelastic_note", "d_eff", "eps_r",
      "v_sound", "damage_threshold", "qpm_order"), (), {"qpm_order": 3}),
    ("MaterialDb", lambda: MaterialDb({"fix": material()}),
     f"MaterialDb(materials={{'fix': {MATERIAL}}})", ("materials",), (),
     {"materials": {}}),
    ("Dimension", lambda: Dimension(1, 0, -1),
     "Dimension(m=1, kg=0, s=-1, a=0)", ("m", "kg", "s", "a"), (), {"a": 1}),
    ("Quantity", lambda: Quantity(2.5, Dimension(1, 0, -1)),
     "Quantity(value=2.5, dim=Dimension(m=1, kg=0, s=-1, a=0))",
     ("value", "dim"), (), {"dim": Dimension()}),
    ("MixingBands", bands, BANDS,
     ("omega_p1", "omega_p2", "omega_m", "axes", "acoustic_mode", "strain_voigt",
      "omega_t"), ("wavelengths",), {"strain_voigt": 0}),
    ("MillerChain", chain, CHAIN,
     ("n_bands", "p_entries", "d_eff", "eta1_rel_bands", "eta2", "Q", "q_eff"), (),
     {"Q": 2.5}),
    ("PumpGeometry", lambda: PumpGeometry(1e-3, 1.2e-6, 2.26),
     "PumpGeometry(power=0.001, mfd=1.2e-06, n_mode=2.26)",
     ("power", "mfd", "n_mode"), (), {"power": 0.0}),
    ("CouplingBenchmark", lambda: CouplingBenchmark(2.0, "ref"),
     "CouplingBenchmark(g0_ref=2.0, label='ref')", ("g0_ref", "label"), (),
     {"label": "other"}),
    ("SweepRow", lambda: SweepRow(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0), ROW,
     ("power_w", "peak_field_v_per_m", "intensity_w_per_m2", "p_virt",
      "p_virt_over_p_nominal", "intensity_over_threshold", "g_scaled_rad_per_s"), (),
     {"p_virt": -4.0}),
    ("DesignReport",
     lambda: DesignReport("fix", chain(), 0.77, CouplingBenchmark(2.0, "ref"),
                          (SweepRow(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),), ("a", "b")),
     f"DesignReport(material='fix', chain={CHAIN}, p_nominal=0.77, "
     f"benchmark=CouplingBenchmark(g0_ref=2.0, label='ref'), rows=({ROW},), "
     "notes=('a', 'b'))",
     ("material", "chain", "p_nominal", "benchmark", "rows", "notes"), (),
     {"notes": ()}),
    ("PhaseMatchInput", lambda: PhaseMatchInput(bands(), material(), 1e-4),
     f"PhaseMatchInput(bands={BANDS}, material={MATERIAL}, length=0.0001, "
     "poling_period=None, poling_sign=1)",
     ("bands", "material", "length", "poling_period", "poling_sign"), ("_k_grating",),
     {"poling_sign": -1}),
    ("PhaseMatchResult", lambda: PhaseMatchResult(1.0, 2.0, 3.0, 4.0, 0.0, -8.0, 0.5),
     "PhaseMatchResult(k_t=1.0, k_p1=2.0, k_p2=3.0, k_m=4.0, k_poling=0.0, "
     "delta_k=-8.0, efficiency=0.5)",
     ("k_t", "k_p1", "k_p2", "k_m", "k_poling", "delta_k", "efficiency"), (),
     {"efficiency": 1.0}),
    ("ThreeWaveResidual", lambda: ThreeWaveResidual(0.5, 0.25, False),
     "ThreeWaveResidual(delta_k_3wm=0.5, suppression=0.25, phase_matched=False)",
     ("delta_k_3wm", "suppression", "phase_matched"), (), {"phase_matched": True}),
    ("FreeEnergyModel", lambda: FreeEnergyModel(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
     "FreeEnergyModel(c=1.0, h=2.0, eta1=3.0, eta2=4.0, p=5.0, q=6.0)",
     ("c", "h", "eta1", "eta2", "p", "q"), (), {"q": 0.0}),
    ("RelationReport",
     lambda: RelationReport(1e-9, 2e-9, 3e-9, 4e-9, 0.25, 1e-6, True, True, True, False),
     "RelationReport(order1_residual=1e-09, order2_residual=2e-09, "
     "order3_residual=3e-09, factor2_residual=4e-09, fd_step_used=0.25, tol=1e-06, "
     "order1_passed=True, order2_passed=True, order3_passed=True, "
     "factor2_passed=False)",
     ("order1_residual", "order2_residual", "order3_residual", "factor2_residual",
      "fd_step_used", "tol", "order1_passed", "order2_passed", "order3_passed",
      "factor2_passed"), (), {"tol": 1e-3}),
    ("VectorFreeEnergyModel", vector_model,
     "VectorFreeEnergyModel(c=1.0, h=(1.0, 2.0), eta1=((1.0, 0.0), (0.0, 1.0)), "
     f"eta2={ZEROS_222}, p=((0.0, 0.0), (0.0, 0.0)), q={ZEROS_222})",
     ("c", "h", "eta1", "eta2", "p", "q"), (), {"c": 2.0}),
]
# Each holds a dict, which cannot be hashed.
UNHASHABLE = {"Material", "MaterialDb", "PhaseMatchInput"}

cases = pytest.mark.parametrize("name, build, text, fields, extra, change", CASES,
                                ids=[c[0] for c in CASES])


def test_every_value_type_has_a_case():
    classes = {type(build()) for _, build, *_ in CASES}
    assert len(classes) == 18


@cases
def test_fields_are_the_constructor_parameters(name, build, text, fields, extra, change):
    assert type(build())._fields == fields


@cases
def test_repr(name, build, text, fields, extra, change):
    assert repr(build()) == text


@cases
def test_vars_holds_the_fields_then_the_derived_attributes(
        name, build, text, fields, extra, change):
    assert list(vars(build())) == [*fields, *extra]


@pytest.mark.parametrize("build, values", [
    (SweepRow, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)),
    (RelationReport, (1e-9, 2e-9, 3e-9, 4e-9, 0.25, 1e-6, True, True, True, False))])
def test_vars_is_the_constructor_arguments_in_order(build, values):
    # DesignReport.to_csv, DesignReport.to_dict and RelationReport.to_dict
    # are built from vars().
    assert tuple(vars(build(*values)).values()) == values


@cases
def test_equality_and_hash(name, build, text, fields, extra, change):
    a, b = build(), build()
    other = a.replace(**change)
    assert a == a and not a != a
    assert a == b and not a != b
    assert a != other and not a == other
    assert a.__eq__(tuple(getattr(a, f) for f in fields)) is NotImplemented
    assert a != tuple(getattr(a, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


@cases
def test_assignment_and_deletion_raise(name, build, text, fields, extra, change):
    obj = build()
    for attr in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{attr}'"):
            setattr(obj, attr, 0)
    with pytest.raises(AttributeError, match=f"cannot delete field '{fields[0]}'"):
        delattr(obj, fields[0])
    assert repr(obj) == text


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"])
@cases
def test_round_trip(name, build, text, fields, extra, change, duplicate):
    obj = build()
    dup = duplicate(obj)
    assert type(dup) is type(obj) and dup is not obj
    assert repr(dup) == text
    assert list(vars(dup)) == list(vars(obj))
    assert dup == obj
    if name not in UNHASHABLE:
        assert hash(dup) == hash(obj)
    with pytest.raises(AttributeError):
        setattr(dup, fields[0], 0)


def test_vector_models_built_apart_from_the_same_values_are_equal():
    # The coefficients are nested float tuples, however they were given.
    a, b = vector_model(), vector_model_from_lists()
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert a.replace(c=2.0) != b


class TestReplace:
    def test_unchanged_copy_is_equal(self):
        b = bands()
        assert b.replace() == b and b.replace() is not b

    def test_derived_fields_are_computed_again(self):
        b = bands().replace(omega_m=1.5)
        assert (b.omega_t, b.wavelengths) == (4.5, MixingBands(1.0, 2.0, 1.5).wavelengths)
        d = tabulated().replace(points=[[1e-6, 2.0, 2.0, 2.0]])
        assert d._columns == ([1e-6], [2.0], [2.0], [2.0])

    def test_validation_runs_again(self):
        pm = PhaseMatchInput(bands(), material(), 1e-4)
        with pytest.raises(ValueError, match="^interaction length must be positive, got 0$"):
            pm.replace(length=0)

    @pytest.mark.parametrize("build, name", [
        (bands, "omega_t"), (bands, "wavelengths"), (tabulated, "_columns"),
        (chain, "no_such_field")])
    def test_name_the_constructor_does_not_take_is_a_type_error(self, build, name):
        obj = build()
        with pytest.raises(TypeError, match=name):
            obj.replace(**{name: 1.0})



@pytest.fixture
def pair():
    # Defined in the test, since a base that cannot derive the fields fails
    # on the class statement itself.
    class Pair(Record):
        """A record that declares its fields only in its constructor."""

        def __init__(self, left, right=0.0):
            total = left + right        # a local of __init__, not a field
            self.__dict__.update(left=left, right=right, total=total)

    return Pair


class TestFieldsFromTheConstructor:
    def test_fields_are_the_positional_parameters(self, pair):
        assert pair._fields == ("left", "right")

    def test_repr_equality_and_hash_follow_them(self, pair):
        a, b = pair(1.0, 2.0), pair(1.0, 2.0)
        assert repr(a) == f"{pair.__qualname__}(left=1.0, right=2.0)"
        assert a == b and a != pair(1.0, 3.0)
        assert hash(a) == hash(b) == hash((1.0, 2.0))

    def test_replace_rebuilds_from_them(self, pair):
        c = pair(1.0, 2.0).replace(right=5.0)
        assert c == pair(1.0, 5.0) and c.total == 6.0
        with pytest.raises(TypeError, match="total"):
            pair(1.0).replace(total=0.0)
