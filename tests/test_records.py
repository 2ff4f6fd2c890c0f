"""The contract of the 18 frozen value types: repr, equality, hashing,
frozenness, copying, pickling, the stored ``vars`` and ``replace``.

Each case builds one instance of a class afresh, so two builds are equal but
not identical.  ``fields`` are the repr, ``==`` and hash fields in order;
``extra`` are the attributes the constructor derives that take no part in
them; ``change`` makes an unequal instance through ``replace``.
"""

import copy
import math
import pickle
import random

import numpy as np
import pytest

from transduce._record import Record
from transduce.estimator import (OPTOMECHANICAL_CRYSTAL_BENCHMARK,
                                 PIEZO_OPTOMECHANICAL_BENCHMARK, CouplingBenchmark,
                                 DesignReport, MillerChain, MixingBands, PumpGeometry,
                                 SweepRow, damage_limited_power, power_sweep,
                                 second_order_photoelasticity)
from transduce.materials import DispersionModel, Material, MaterialDb, default_db
from transduce.phasematch import (PhaseMatchInput, PhaseMatchResult, ThreeWaveResidual,
                                  poling_period, three_wave_residual)
from transduce.tensors import PhotoelasticTensor
from transduce.thermo import (_RUNGS, FreeEnergyModel, RelationReport,
                              VectorFreeEnergyModel, verify_relations)
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
    return MillerChain((2.0, 2.0, 2.0), (0.2, 0.2, 0.77), 1e-11)


def design_bands():
    # Pumps at 2.35 um and their output at 1.18 um, inside the window.
    return MixingBands(8e14, 8e14, 1e10)


def design():
    return PhaseMatchInput(design_bands(), material(), 1e-4)


def result():
    return PhaseMatchResult(design())


def three_wave():
    return ThreeWaveResidual(design())


def report():
    return DesignReport(material(), design_bands(), [0.0, 1e-3], 1.2e-6, 2.26,
                        CouplingBenchmark(2.0, "ref"), 0.77)


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
         "acoustic_mode='longitudinal', strain_voigt=2)")
CHAIN = "MillerChain(n_bands=(2.0, 2.0, 2.0), p_entries=(0.2, 0.2, 0.77), d_eff=1e-11)"
ROW = ("SweepRow(power_w=1.0, peak_field_v_per_m=2.0, intensity_w_per_m2=3.0, "
       "p_virt=4.0, p_virt_over_p_nominal=5.0, intensity_over_threshold=6.0, "
       "g_scaled_rad_per_s=7.0)")
DESIGN_BANDS = ("MixingBands(omega_p1=800000000000000.0, omega_p2=800000000000000.0, "
                "omega_m=10000000000.0, axes=(0, 1, 2), acoustic_mode='longitudinal', "
                "strain_voigt=2)")
DESIGN = (f"PhaseMatchInput(bands={DESIGN_BANDS}, material={MATERIAL}, length=0.0001, "
          "poling_period=None, poling_sign=1)")
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
     ("omega_p1", "omega_p2", "omega_m", "axes", "acoustic_mode", "strain_voigt"),
     ("omega_t", "wavelengths", "_indices", "_wavevectors"), {"strain_voigt": 0}),
    ("MillerChain", chain, CHAIN, ("n_bands", "p_entries", "d_eff"),
     ("eta1_rel_bands", "eta2", "Q", "q_eff"), {"d_eff": 2e-11}),
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
    ("DesignReport", report,
     f"DesignReport(material={MATERIAL}, bands={DESIGN_BANDS}, powers=(0.0, 0.001), "
     "mfd=1.2e-06, n_mode=2.26, benchmark=CouplingBenchmark(g0_ref=2.0, label='ref'), "
     "p_nominal=0.77)",
     ("material", "bands", "powers", "mfd", "n_mode", "benchmark", "p_nominal"),
     ("chain", "rows"), {"powers": (0.0,)}),
    ("PhaseMatchInput", lambda: PhaseMatchInput(bands(), material(), 1e-4),
     f"PhaseMatchInput(bands={BANDS}, material={MATERIAL}, length=0.0001, "
     "poling_period=None, poling_sign=1)",
     ("bands", "material", "length", "poling_period", "poling_sign"), ("_k_grating",),
     {"poling_sign": -1}),
    ("PhaseMatchResult", result, f"PhaseMatchResult(pm_in={DESIGN})", ("pm_in",),
     ("k_t", "k_p1", "k_p2", "k_m", "k_poling", "delta_k", "efficiency"),
     {"pm_in": design().replace(length=2e-4)}),
    ("ThreeWaveResidual", three_wave, f"ThreeWaveResidual(pm_in={DESIGN}, pump_choice=1)",
     ("pm_in", "pump_choice"), ("delta_k_3wm", "suppression", "phase_matched"),
     {"pump_choice": 2}),
    ("FreeEnergyModel", lambda: FreeEnergyModel(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
     "FreeEnergyModel(c=1.0, h=2.0, eta1=3.0, eta2=4.0, p=5.0, q=6.0)",
     ("c", "h", "eta1", "eta2", "p", "q"), (), {"q": 0.0}),
    ("RelationReport",
     lambda: RelationReport(1e-9, 2e-9, 3e-9, 4e-6, 1e-6),
     "RelationReport(order1_residual=1e-09, order2_residual=2e-09, "
     "order3_residual=3e-09, factor2_residual=4e-06, tol=1e-06)",
     ("order1_residual", "order2_residual", "order3_residual", "factor2_residual",
      "tol"), (), {"tol": 1e-3}),
    ("VectorFreeEnergyModel", vector_model,
     "VectorFreeEnergyModel(c=1.0, h=(1.0, 2.0), eta1=((1.0, 0.0), (0.0, 1.0)), "
     f"eta2={ZEROS_222}, p=((0.0, 0.0), (0.0, 0.0)), q={ZEROS_222})",
     ("c", "h", "eta1", "eta2", "p", "q"), (), {"c": 2.0}),
]
# Each holds a dict (a Material's v_sound), which cannot be hashed.
UNHASHABLE = {"Material", "MaterialDb", "PhaseMatchInput", "DesignReport",
              "PhaseMatchResult", "ThreeWaveResidual"}

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
    (RelationReport, (1e-9, 2e-9, 3e-9, 4e-6, 1e-6))])
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

    def test_a_verdict_follows_its_residual(self):
        rep = verify_relations(FreeEnergyModel(1, 2, 3, 4, 5, 6))
        assert rep.order1_passed and rep.all_passed
        failed = rep.replace(order1_residual=1.0)
        assert failed.order1_passed is False and failed.all_passed is False
        assert failed.to_dict() == {**rep.to_dict(), "order1_residual": 1.0,
                                    "order1_passed": False, "all_passed": False}
        assert failed.replace(order1_residual=rep.order1_residual).all_passed

    @pytest.mark.parametrize("rung", _RUNGS)
    @pytest.mark.parametrize("residual", [math.nan, 1e-6, 1.0])
    def test_a_residual_not_below_tol_fails_its_rung_alone(self, rung, residual):
        # NaN < tol is False, so a NaN residual fails, as does tol itself.
        rep = RelationReport(0.0, 0.0, 0.0, 0.0, 1e-6).replace(**{f"{rung}_residual": residual})
        verdicts = {r: getattr(rep, f"{r}_passed") for r in _RUNGS}
        assert verdicts == {r: r != rung for r in _RUNGS}
        assert rep.all_passed is False

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_a_tol_that_is_not_positive_and_finite_raises(self, tol):
        # An infinite tol would turn any finite residual into a pass.
        rep = RelationReport(1e300, 1e300, 1e300, 1e300, 1e-6)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            rep.replace(tol=tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            RelationReport(0.0, 0.0, 0.0, 0.0, tol)

    def test_notes_name_the_benchmark_of_the_report(self):
        m, b = material(), MixingBands.from_vacuum_wavelengths(2.4e-6, 2.4e-6, 2e9)
        report = power_sweep(m, b, [0.0], 1.2e-6, 2.26)
        assert report.benchmark is PIEZO_OPTOMECHANICAL_BENCHMARK
        moved = report.replace(benchmark=OPTOMECHANICAL_CRYSTAL_BENCHMARK)
        assert OPTOMECHANICAL_CRYSTAL_BENCHMARK.label in moved.notes[1]
        assert PIEZO_OPTOMECHANICAL_BENCHMARK.label not in moved.notes[1]
        assert moved.notes == power_sweep(m, b, [0.0], 1.2e-6, 2.26,
                                          benchmark=OPTOMECHANICAL_CRYSTAL_BENCHMARK).notes
        assert moved.to_dict()["notes"] == list(moved.notes)

    @pytest.mark.parametrize("field, value, rule", [
        # Each built; then .notes and to_dict() raised AttributeError, or
        # the report held a negative yardstick, or the sweep raised a bare
        # AttributeError.
        ("material", "", "a Material"), ("material", None, "a Material"),
        ("bands", None, "a MixingBands"), ("bands", (1.0,), "a MixingBands"),
        ("p_nominal", -1.0, "positive and finite"),
        ("p_nominal", 0.0, "positive and finite"),
        ("p_nominal", math.inf, "positive and finite"),
        ("p_nominal", math.nan, "positive and finite"),
        ("benchmark", None, "a CouplingBenchmark"),
        ("benchmark", "ref", "a CouplingBenchmark")])
    def test_a_design_report_checks_each_field(self, field, value, rule):
        with pytest.raises(ValueError) as exc:
            report().replace(**{field: value})
        assert str(exc.value) == f"{field} must be {rule}, got {value!r}"

    def test_a_design_report_stores_its_rows_as_a_tuple(self):
        built = report()
        copied = built.replace(powers=list(built.powers), p_nominal=1)
        assert type(copied.powers) is tuple and type(copied.rows) is tuple
        assert copied.p_nominal == 1.0 and type(copied.p_nominal) is float
        assert copied.to_csv() == built.replace(p_nominal=1.0).to_csv()

    def test_a_chain_runs_again_from_its_inputs(self):
        # replace(d_eff=...) kept the old eta2, Q and q_eff.
        m, b = material(), MixingBands.from_vacuum_wavelengths(2.4e-6, 2.4e-6, 2e9)
        chain = second_order_photoelasticity(m, b)
        doubled = chain.replace(d_eff=2 * chain.d_eff)
        assert vars(doubled) == vars(second_order_photoelasticity(m.replace(d_eff=2e-11), b))
        assert (doubled.eta2, doubled.q_eff) == (2 * chain.eta2, 2 * chain.q_eff)
        assert doubled.eta1_rel_bands == chain.eta1_rel_bands

    def test_a_report_cannot_carry_a_chain_that_is_not_finite(self):
        # replace(q_eff=nan) built, and to_dict() then reported a NaN q_eff;
        # q_eff is no field now, a report runs its own chain, and a d_eff
        # that is not finite raises.
        built = report()
        with pytest.raises(TypeError, match="q_eff"):
            built.chain.replace(q_eff=math.nan)
        with pytest.raises(TypeError, match="chain"):
            built.replace(chain=built.chain)
        with pytest.raises(ValueError, match="^d_eff must be finite, got nan$"):
            built.chain.replace(d_eff=math.nan)

    def test_phase_matched_follows_the_suppression(self):
        # replace(suppression=1.0) kept phase_matched=False; the suppression
        # is no field now, and a replaced input evaluates it again.
        m, b = material(), MixingBands.from_vacuum_wavelengths(2.4e-6, 2.4e-6, 2e9)
        pm = PhaseMatchInput(b, m, 1e-4)
        period, sign = poling_period(pm)
        tw = three_wave_residual(pm.replace(poling_period=period, poling_sign=sign))
        assert tw.delta_k_3wm != 0.0 and tw.phase_matched is False
        # 1 - sinc^2(y) is y^2/3 to leading order in y = dk3 * L / 2, so
        # L = 2 * sqrt(3 * x) / |dk3| gives 1 - suppression = x: the cut at
        # 1 - 1e-12 falls between x = 0.5e-12 and x = 2e-12.
        for x, matched in ((0.5e-12, True), (2e-12, False)):
            length = 2.0 * math.sqrt(3.0 * x) / abs(tw.delta_k_3wm)
            near = tw.replace(pm_in=tw.pm_in.replace(length=length))
            assert near.delta_k_3wm == tw.delta_k_3wm
            assert 1.0 - near.suppression == pytest.approx(x, rel=1e-3)
            assert near.phase_matched is matched
        # With no phonon, no grating and the pump's axis, the three-wave
        # output is the pump itself: a zero mismatch.
        unshifted = tw.replace(pm_in=pm.replace(bands=b.replace(omega_m=0.0, axes=(0, 1, 0))))
        assert unshifted.delta_k_3wm == 0.0 and unshifted.phase_matched is True

    def test_a_report_is_built_from_its_inputs(self):
        # A report stored a material name, a chain and rows that no replace
        # could compute again.
        with pytest.raises(TypeError):
            DesignReport("fix", chain(), 0.77, CouplingBenchmark(2.0, "ref"),
                         (SweepRow(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),))
        built = report()
        assert built.chain == second_order_photoelasticity(material(), design_bands())
        assert built.rows == power_sweep(material(), design_bands(), [0.0, 1e-3], 1.2e-6,
                                         2.26, CouplingBenchmark(2.0, "ref"), 0.77).rows

    def test_a_report_cannot_carry_a_row_that_is_no_row_of_numbers(self):
        # Built, and to_csv() wrote the row None,'x',0,0,0,0,0; the rows are
        # no field now, so a report carries only the rows it computed.
        with pytest.raises(TypeError, match="rows"):
            report().replace(rows=())

    def test_a_sweep_row_stores_floats_and_a_signed_p_virt(self):
        # A row stores what its report computed from the powers it read:
        # an int and a numpy power give float rows, and positive entries and
        # d_eff a negative p_virt.
        rows = power_sweep(material(), design_bands(), [0, np.float64(1e-3)], 1.2e-6, 2.26,
                           CouplingBenchmark(2.0, "ref"), 0.77).rows
        assert rows == report().rows
        assert all(type(v) is float for row in rows for v in vars(row).values())
        assert rows[0].p_virt == 0.0 and rows[1].p_virt < 0.0 < rows[1].g_scaled_rad_per_s

    @pytest.mark.parametrize("seed", range(20))
    def test_every_report_row_is_finite_and_signed_only_in_p_virt(self, seed):
        # A row no longer checks its values: the result rule of each formula
        # that computed them is what keeps them finite and, but for p_virt,
        # >= 0.  Each seeded report has a zero-power row.
        rng = random.Random(seed)
        bto = default_db().get("BaTiO3")
        bands = MixingBands.from_vacuum_wavelengths(
            rng.uniform(2.4e-6, 2.7e-6), rng.uniform(2.4e-6, 2.7e-6), rng.uniform(1e9, 1e10),
            axes=[rng.randrange(3) for _ in range(3)])
        mfd = rng.uniform(0.8e-6, 2e-6)
        powers = [0.0, *(rng.uniform(0.0, 10.0 * damage_limited_power(bto, mfd))
                         for _ in range(7))]
        rows = power_sweep(bto, bands, powers, mfd, rng.uniform(1.5, 2.5),
                           p_nominal=rng.uniform(0.01, 1.0)).rows
        assert [r.power_w for r in rows] == powers
        for row in rows:
            for name, v in vars(row).items():
                assert type(v) is float and math.isfinite(v), (name, v)
                assert name == "p_virt" or v >= 0.0, (name, v)

    def test_validation_runs_again(self):
        pm = PhaseMatchInput(bands(), material(), 1e-4)
        with pytest.raises(ValueError, match="^length must be positive and finite, got 0.0$"):
            pm.replace(length=0)

    @pytest.mark.parametrize("build, name", [
        (bands, "omega_t"), (bands, "wavelengths"), (tabulated, "_columns"),
        (chain, "eta1_rel_bands"), (chain, "eta2"), (chain, "Q"), (chain, "q_eff"),
        (three_wave, "phase_matched"), (chain, "no_such_field"),
        (report, "chain"), (report, "rows"), (result, "delta_k"), (result, "efficiency"),
        (three_wave, "delta_k_3wm"), (three_wave, "suppression")])
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
