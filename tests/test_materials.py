import copy
import json
import math
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from transduce import MixingBands, PhaseMatchInput, default_db, delta_k
from transduce.errors import MaterialFileError, RangeError
from transduce.materials import (DispersionModel, MaterialDb, dumps_materials,
                                 load_materials, loads_materials, refractive_index,
                                 save_materials)
from transduce.tensors import PhotoelasticTensor

from conftest import unreadable_db

MINIMAL = {
    "schema": 1,
    "materials": [{
        "name": "demo",
        "dispersion": {"kind": "tabulated-points",
                       "points": [[1.0e-6, 1.5, 1.5, 1.5], [2.0e-6, 1.4, 1.4, 1.4]],
                       "valid_range_m": [0.9e-6, 2.1e-6]},
        "photoelastic": {"entries": [[0.0] * 6 for _ in range(6)], "note": ""},
        "d_eff_m_per_v": 1e-12,
        "eps_r": [2.0, 2.0, 2.0],
        "v_sound_m_per_s": {"longitudinal": 4000.0},
        "damage_threshold_w_per_m2": 1e12,
    }],
}


def _with(**patch):
    doc = json.loads(json.dumps(MINIMAL))
    doc["materials"][0].update(patch)
    return json.dumps(doc)


class TestLoad:
    def test_bundled_db_contains_batio3(self, db):
        assert "BaTiO3" in db.names()

    def test_empty_material_list_is_fine(self):
        db = loads_materials('{"schema": 1, "materials": []}')
        assert db.names() == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(MaterialFileError, match="not found"):
            load_materials(tmp_path / "nope.json")

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_file_is_named(self, tmp_path, kind):
        path = unreadable_db(tmp_path, kind)
        with pytest.raises(MaterialFileError, match=re.escape(f"{path}: cannot read")):
            load_materials(path)

    def test_malformed_json(self):
        with pytest.raises(MaterialFileError, match="not valid JSON"):
            loads_materials("{not json")

    def test_path_is_named_as_given(self, tmp_path, monkeypatch):
        # Messages name the path as typed: pathlib printed ./nope.json as
        # nope.json and a//b as a/b.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        for path, message in [
                ("./nope.json", "material database not found: ./nope.json"),
                (f"{tmp_path}//nope.json", f"material database not found: {tmp_path}//nope.json"),
                ("./bad.json", "./bad.json: not valid JSON: ")]:
            with pytest.raises(MaterialFileError) as exc:
                load_materials(path)
            assert str(exc.value).startswith(message)

    def test_str_and_path_like_paths(self, db, tmp_path):
        for path in (str(tmp_path / "a.json"), tmp_path / "b.json"):
            save_materials(db, path)
            assert dumps_materials(load_materials(path)) == dumps_materials(db)

    def test_wrong_schema(self):
        with pytest.raises(MaterialFileError, match="schema"):
            loads_materials('{"schema": 2, "materials": []}')

    def test_negative_damage_threshold_names_the_field(self):
        with pytest.raises(MaterialFileError) as exc:
            loads_materials(_with(damage_threshold_w_per_m2=-1.0))
        assert str(exc.value) == ("<string>: material 'demo': damage_threshold_w_per_m2 must "
                                  "be positive and finite, got -1.0")

    def test_non_increasing_wavelengths_rejected(self):
        bad = {"kind": "tabulated-points",
               "points": [[2.0e-6, 1.5, 1.5, 1.5], [1.0e-6, 1.4, 1.4, 1.4]],
               "valid_range_m": [0.9e-6, 2.1e-6]}
        with pytest.raises(MaterialFileError, match="strictly increasing"):
            loads_materials(_with(dispersion=bad))

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(MaterialFileError, match="d_eff_pm_per_v"):
            loads_materials(_with(d_eff_pm_per_v=10.0))

    def test_missing_key_rejected_by_name(self):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["materials"][0]["eps_r"]
        with pytest.raises(MaterialFileError, match="eps_r"):
            loads_materials(json.dumps(doc))

    @pytest.mark.parametrize("materials", [None, [None], [3.0]])
    def test_entry_list_of_the_wrong_type_rejected(self, materials):
        with pytest.raises(MaterialFileError, match="material"):
            loads_materials(json.dumps({"schema": 1, "materials": materials}))

    def test_duplicate_names_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["materials"].append(doc["materials"][0])
        with pytest.raises(MaterialFileError, match="duplicate"):
            loads_materials(json.dumps(doc))

    def test_unknown_material_lookup(self, db):
        with pytest.raises(MaterialFileError, match="Unobtainium"):
            db.get("Unobtainium")

    def test_unhashable_name_is_not_in_the_database(self, db):
        # A list raised a bare "unhashable type: 'list'".
        with pytest.raises(MaterialFileError) as exc:
            db.get(["BaTiO3"])
        assert str(exc.value) == ("material '['BaTiO3']' not in database "
                                  "(have: BaTiO3, vacuum)")

    def test_qpm_order_defaults_to_one(self):
        db = loads_materials(json.dumps(MINIMAL))
        assert db.get("demo").qpm_order == 1


class TestRefractiveIndex:
    def test_batio3_cited_points(self, bto):
        assert refractive_index(bto, 1310e-9, axis=2) == pytest.approx(2.27, abs=0.01)
        assert refractive_index(bto, 2600e-9, axis=2) == pytest.approx(2.26, abs=0.01)

    def test_vacuum_is_exactly_one(self, db):
        vac = db.get("vacuum")
        for lam in (200e-9, 1310e-9, 2600e-9, 9e-6):
            assert refractive_index(vac, lam, axis=0) == 1.0

    def test_out_of_range_carries_interval(self, bto):
        with pytest.raises(RangeError) as exc:
            refractive_index(bto, 5e-6, axis=2)
        assert exc.value.lo == pytest.approx(1.2e-6)
        assert exc.value.hi == pytest.approx(2.7e-6)
        assert exc.value.value == 5e-6
        assert str(exc.value) == ("wavelength 5e-06 m outside declared validity "
                                  "range [1.2e-06, 2.7e-06] m")

    @pytest.mark.parametrize("lam, shown", [
        (math.nextafter(2.7e-6, 1.0), "2.7000000000000004e-06"),
        (math.nextafter(1.2e-6, 0.0), "1.1999999999999997e-06"),
        (2.7000005e-6, "2.7000005e-06"), (2.70001e-6, "2.70001e-06")])
    def test_value_that_rounds_onto_the_bound_is_shown_in_full(self, bto, lam, shown):
        # Six digits printed 2.7e-06 "outside" [1.2e-06, 2.7e-06].
        with pytest.raises(RangeError) as exc:
            refractive_index(bto, lam, axis=2)
        assert exc.value.value == lam
        assert str(exc.value) == (f"wavelength {shown} m outside declared validity "
                                  "range [1.2e-06, 2.7e-06] m")

    def test_interpolation_is_continuous_and_bounded(self, bto):
        lams = np.linspace(1.2e-6, 2.7e-6, 401)
        ns = np.array([refractive_index(bto, lam, axis=2) for lam in lams])
        assert np.all(ns >= 2.26) and np.all(ns <= 2.27)
        assert np.max(np.abs(np.diff(ns))) < 1e-4   # no jumps on a fine grid

    def test_clamped_extension_beyond_outermost_point(self, bto):
        # inside the validity window but short of the first table point
        assert refractive_index(bto, 1.25e-6, axis=2) == 2.27

    def test_bad_axis(self, bto):
        with pytest.raises(ValueError):
            refractive_index(bto, 1310e-9, axis=3)

    @pytest.mark.parametrize("axis", [1.0, True, 2.5, "1"])
    def test_axis_that_is_no_integer_is_rejected(self, bto, db, axis):
        # 1.0 failed with a bare TypeError on a float tuple index, and True
        # read axis 1.
        for m in (bto, db.get("vacuum")):
            with pytest.raises(ValueError) as exc:
                refractive_index(m, 2e-6, axis)
            assert str(exc.value) == f"axis must be 0..2, got {axis}"

    def test_numpy_integer_axis_is_an_axis(self, bto):
        for axis in range(3):
            assert refractive_index(bto, 2e-6, np.int64(axis)) == refractive_index(
                bto, 2e-6, axis)


@st.composite
def table_and_query(draw):
    """A strictly increasing table, a validity window around it, one query.

    The query is a table node, a point between nodes, a point in the clamped
    margin beyond either end, or a window end.
    """
    lams = sorted(draw(st.lists(st.floats(1e-7, 1e-5), min_size=1, max_size=10,
                                unique=True)))
    ns = draw(st.lists(st.floats(1.0, 4.0), min_size=len(lams), max_size=len(lams)))
    lo, hi = lams[0] * 0.5, lams[-1] * 1.5
    lam = draw(st.one_of(st.sampled_from(lams + [lo, hi]), st.floats(lo, hi)))
    return lams, ns, (lo, hi), lam


class TestTabulatedLookup:
    """The list-based lookup against np.interp, which it replaces."""

    @given(table_and_query(), st.integers(0, 2))
    def test_matches_np_interp(self, case, axis):
        lams, ns, window, lam = case
        points = np.array([[x, n, n, n] for x, n in zip(lams, ns)])
        points[:, 1 + axis] = ns[::-1]      # a different column per axis
        d = DispersionModel(kind="tabulated-points", valid_range_m=window, points=points)
        want = float(np.interp(lam, points[:, 0], points[:, 1 + axis]))
        got = d.index(lam, axis)
        assert type(got) is float
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("points", [
        [[2.0e-6, 3.0, 3.0, 3.0], [1.5e-6, 2.0, 2.0, 2.0], [2.5e-6, 4.0, 4.0, 4.0]],
        [[1.0e-6, 2.0, 2.0, 2.0], [1.0e-6, 3.0, 3.0, 3.0]],
        [[1.0e-6, 2.0, 2.0, 2.0], [math.nan, 3.0, 3.0, 3.0]]],
        ids=["unsorted", "repeated", "nan"])
    def test_wavelengths_must_strictly_increase(self, points):
        # The unsorted table was bisected as if sorted, silently:
        # index(1.2e-6, 0) returned 3.0, not the 2.0 of the shortest row.
        with pytest.raises(ValueError) as exc:
            DispersionModel("tabulated-points", (0.5e-6, 3e-6), points)
        assert str(exc.value) == ("dispersion.points wavelengths must be strictly "
                                  f"increasing, got {[row[0] for row in points]}")

    def test_points_are_a_read_only_copy(self):
        points = np.array([[1e-6, 2.0, 2.0, 2.0], [2e-6, 3.0, 3.0, 3.0]])
        d = DispersionModel(kind="tabulated-points", valid_range_m=(0.5e-6, 3e-6),
                            points=points)
        points[:, 1:] = 9.0
        assert d.index(1.5e-6, 0) == 2.5
        assert d.points == ((1e-6, 2.0, 2.0, 2.0), (2e-6, 3.0, 3.0, 3.0))
        with pytest.raises(TypeError):
            d.points[0] = (1e-6, 9.0, 9.0, 9.0)
        with pytest.raises(TypeError):
            d.points[0][1] = 9.0


class TestBundledFixture:
    """Every number of the bundled BaTiO3 entry, regression-pinned."""

    def test_dispersion_points(self, bto):
        assert bto.dispersion.kind == "tabulated-points"
        assert bto.dispersion.valid_range_m == (1.2e-6, 2.7e-6)
        np.testing.assert_array_equal(
            bto.dispersion.points,
            [[1.31e-6, 2.27, 2.27, 2.27], [2.6e-6, 2.26, 2.26, 2.26]])

    def test_photoelastic_entries(self, bto):
        e = bto.photoelastic.entries
        assert e[0][2] == 0.2 and e[1][2] == 0.2 and e[2][2] == 0.77
        for v in range(6):
            for w in range(6):
                if (v, w) not in ((0, 2), (1, 2), (2, 2)):
                    assert e[v][w] == 0.0
        assert "633" in bto.photoelastic_note

    def test_scalar_parameters(self, bto):
        assert bto.d_eff == 10e-12                   # 10 pm/V
        assert bto.eps_r == (5.09, 5.09, 5.09)
        assert bto.damage_threshold == 5.4e12        # 0.54 GW/cm^2 in W/m^2
        assert bto.v_sound == {"longitudinal": 5000.0}
        assert bto.qpm_order == 1


class TestValidate:
    """Every rule a material obeys is checked by the record that holds the
    value, so a loaded entry, or one rebuilt from it, is valid."""

    def test_bundled_entries_are_valid(self, db):
        for name in db.names():
            m = db.get(name)
            # replace() builds anew, through every check of each record.
            assert m.replace(dispersion=m.dispersion.replace(),
                             photoelastic=m.photoelastic.replace()) == m
        assert db.replace() == db

    def test_dip_below_one_is_one_violation(self):
        m = loads_materials(json.dumps(MINIMAL)).get("demo")
        bad_points = [list(row) for row in m.dispersion.points]
        bad_points[1][1:] = [0.9, 0.9, 0.9]
        with pytest.raises(ValueError) as exc:
            m.dispersion.replace(points=bad_points)
        assert str(exc.value) == "dispersion.points[1][1] must be finite and >= 1, got 0.9"

    def test_narrow_sellmeier_pole_between_scan_samples_rejected(self):
        lo, hi = 0.5e-6, 2.0e-6
        grid = np.linspace(lo, hi, 64)
        pole = (grid[10] + grid[11]) / 2        # halfway between two samples
        terms = [[1.0, 1e-14], [1e-4, pole ** 2]]
        doc = json.loads(json.dumps(MINIMAL))
        doc["materials"][0]["dispersion"] = {
            "kind": "sellmeier", "sellmeier": [terms] * 3, "valid_range_m": [lo, hi]}
        # The scan alone sees nothing: n stays finite and near sqrt(2).
        assert all(1.4 < math.sqrt(1 + sum(b * lam ** 2 / (lam ** 2 - c) for b, c in terms))
                   < 1.5 for lam in grid)
        with pytest.raises(MaterialFileError) as exc:
            loads_materials(json.dumps(doc))
        assert str(exc.value) == (
            "<string>: material 'demo': dispersion.sellmeier[0][1] must be a term with no "
            f"pole inside the validity range, got [0.0001, {float(pole) ** 2!r}]")

    def test_nan_sellmeier_coefficient_rejected(self):
        # It gave n = NaN at every wavelength without a word.
        doc = json.loads(json.dumps(MINIMAL))
        doc["materials"][0]["dispersion"] = {
            "kind": "sellmeier", "sellmeier": [[[1.0, math.nan]]] * 3,
            "valid_range_m": [0.5e-6, 2.0e-6]}
        with pytest.raises(MaterialFileError) as exc:
            loads_materials(json.dumps(doc))
        assert str(exc.value) == ("<string>: material 'demo': dispersion.sellmeier[0][0] "
                                  "must be finite, got [1.0, nan]")

    @pytest.mark.parametrize("c", [0.5e-6 ** 2, 2.0e-6 ** 2])
    def test_sellmeier_pole_at_window_edge_rejected(self, c):
        with pytest.raises(ValueError) as exc:
            DispersionModel(kind="sellmeier", valid_range_m=(0.5e-6, 2.0e-6),
                            sellmeier=(((1.0, 1e-14), (1e-4, c)),) * 3)
        assert str(exc.value) == ("dispersion.sellmeier[0][1] must be a term with no pole "
                                  f"inside the validity range, got [0.0001, {c!r}]")

    def test_negative_n2_without_a_pole_is_named_as_n_below_1(self):
        # No pole in the window, yet n^2 < 0 throughout: it was reported as
        # "pole inside validity range".
        doc = json.loads(json.dumps(MINIMAL))
        doc["materials"][0]["dispersion"] = {
            "kind": "sellmeier", "sellmeier": [[[-2.0, 1e-14]]] * 3,
            "valid_range_m": [1e-6, 2e-6]}
        with pytest.raises(MaterialFileError) as exc:
            loads_materials(json.dumps(doc))
        assert str(exc.value) == ("<string>: material 'demo': dispersion.sellmeier[0] must give "
                                  "a real n >= 1 over the validity range, got n = nan at 1e-06 m")

    def test_missing_v_sound_mode_is_not_a_validation_issue(self):
        db = loads_materials(_with(v_sound_m_per_s={}))
        assert db.get("demo").v_sound == {}


# Each case: where in the entry, the value put there, the message after
# "<string>: material 'demo': ".  One case per rule of a material's values.
OUT_OF_RANGE = {
    "window not above 0": (("dispersion", "valid_range_m"), [0.0, 2.1e-6],
                           "dispersion.valid_range_m must be finite, 0 < lo < hi, "
                           "got (0.0, 2.1e-06)"),
    "window reversed": (("dispersion", "valid_range_m"), [2.1e-6, 0.9e-6],
                        "dispersion.valid_range_m must be finite, 0 < lo < hi, "
                        "got (2.1e-06, 9e-07)"),
    "infinite index": (("dispersion", "points", 0, 2), math.inf,
                       "dispersion.points[0][2] must be finite and >= 1, got inf"),
    "infinite wavelength": (("dispersion", "points", 1, 0), math.inf,
                            "dispersion.points[1][0] must be finite, got inf"),
    "index below 1": (("dispersion", "points", 1, 3), 0.5,
                      "dispersion.points[1][3] must be finite and >= 1, got 0.5"),
    "infinite photoelastic entry": (("photoelastic", "entries", 2, 2), -math.inf,
                                    "photoelastic.entries[2][2] must be finite or null, "
                                    "got -inf"),
    "infinite d_eff": (("d_eff_m_per_v",), math.inf, "d_eff_m_per_v must be finite, got inf"),
    "two eps_r": (("eps_r",), [2.0, 2.0],
                  "eps_r must be three positive finite numbers, got (2.0, 2.0)"),
    "zero eps_r": (("eps_r", 2), 0.0,
                   "eps_r must be three positive finite numbers, got (2.0, 2.0, 0.0)"),
    "negative sound speed": (("v_sound_m_per_s", "longitudinal"), -4000.0,
                             "v_sound_m_per_s.longitudinal must be positive and finite, "
                             "got -4000.0"),
    "zero damage threshold": (("damage_threshold_w_per_m2",), 0.0,
                              "damage_threshold_w_per_m2 must be positive and finite, got 0.0"),
    "qpm_order 0": (("qpm_order",), 0, "qpm_order must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_rejected_by_name(case):
    path, value, message = OUT_OF_RANGE[case]
    with pytest.raises(MaterialFileError) as exc:
        loads_materials(_set(path, value))
    assert str(exc.value) == f"<string>: material 'demo': {message}"


def _bto():
    return default_db().get("BaTiO3")


NEAR_POLE = [[[1.0, (2e-6) ** 2 * (1 + 2 ** -52)]], [[1.0, 0.0]], [[1.0, 0.0]]]

# Each case: a record built directly with a value the loader rejects, and the
# ValueError that now names it.  Each was built, or failed with a bare
# TypeError or AttributeError, before its record checked it.
UNBUILDABLE = {
    # index() returned nan at every wavelength.
    "null index cell": (
        lambda: DispersionModel("tabulated-points", (1e-6, 3e-6),
                                [[1e-6, 2.0, None, 2.0], [3e-6, 2.0, 2.0, 2.0]]),
        "dispersion.points[0][2] must be a number, got None"),
    "index of 0.5": (
        lambda: DispersionModel("tabulated-points", (1e-6, 3e-6),
                                [[1e-6, 0.5, 0.5, 0.5], [3e-6, 0.5, 0.5, 0.5]]),
        "dispersion.points[0][1] must be finite and >= 1, got 0.5"),
    # index(math.nextafter(2e-6, 1), 0) returned 70368744.17766403.
    "pole one ulp inside the window": (
        lambda: DispersionModel("sellmeier", (1e-6, 3e-6), sellmeier=NEAR_POLE),
        "dispersion.sellmeier[0][0] must be a term with no pole inside the validity range, "
        f"got [1.0, {NEAR_POLE[0][0][1]!r}]"),
    "Sellmeier n below 1": (
        lambda: DispersionModel("sellmeier", (1e-6, 2e-6), sellmeier=[[[-0.5, 0.0]]] * 3),
        "dispersion.sellmeier[0] must give a real n >= 1 over the validity range, "
        "got n = 0.7071067811865476 at 1e-06 m"),
    "infinite photoelastic entry": (
        lambda: PhotoelasticTensor([[math.inf] * 6] * 6),
        "photoelastic.entries[0][0] must be finite or null, got inf"),
    # damage_limited_power returned -1.13e-12 W.
    "negative damage threshold": (
        lambda: _bto().replace(damage_threshold=-1.0),
        "damage_threshold_w_per_m2 must be positive and finite, got -1.0"),
    "eps_r that is a number": (
        lambda: _bto().replace(eps_r=5.0), "eps_r must be a sequence of numbers, got 5.0"),
    "v_sound that is None": (
        lambda: _bto().replace(v_sound=None), "v_sound_m_per_s must be an object, got None"),
    "empty name": (lambda: _bto().replace(name=""), "name must be a non-empty string, got ''"),
    # A lookup, and dumps_materials, raised a bare AttributeError.
    "dispersion that is None": (
        lambda: _bto().replace(dispersion=None), "dispersion must be a DispersionModel, got None"),
    "photoelastic table that is no tensor": (
        lambda: _bto().replace(photoelastic=[[0.0] * 6] * 6),
        "photoelastic must be a PhotoelasticTensor, got " + repr([[0.0] * 6] * 6)),
    "key that is not the name": (
        lambda: MaterialDb({"x": _bto()}),
        "materials['x'] must be keyed by its name 'BaTiO3', got 'x'"),
    # dumps_materials raised a bare AttributeError.
    "value that is no Material": (
        lambda: MaterialDb({"y": 5}), "materials['y'] must be a Material, got 5"),
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_record_that_breaks_a_rule_cannot_be_built(case):
    build, message = UNBUILDABLE[case]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


GOOD_POINTS = [[1.0e-6, 1.5, 1.5, 1.5], [2.0e-6, 1.4, 1.4, 1.4]]


def _malformed(field, value):
    doc = json.loads(json.dumps(MINIMAL))
    entry = doc["materials"][0]
    if field == "entries":
        entry["photoelastic"]["entries"] = value
    elif field == "sellmeier":
        entry["dispersion"] = {"kind": "sellmeier", "sellmeier": value,
                               "valid_range_m": [0.9e-6, 2.1e-6]}
    else:
        entry["dispersion"][field] = value
    return json.dumps(doc)


POINTS_SHAPE = "dispersion.points must be rows of [lambda_m, nx, ny, nz] (got 2 rows of widths"
TENSOR_SHAPE = "photoelastic.entries must be 6x6 numbers (got "
SELLMEIER_SHAPE = "dispersion.sellmeier must be 3 axis lists of [B, C] number pairs, got "
TERM = [[1.0, 1e-14]]

# Each case: the table, the value put there, the start of the message after
# "<source>: material 'demo': ".  A row that is not a list, or a table that is
# null, is named by its place, as a cell is; each table's constructor names
# its shape and kind by the place the file gives them.
MALFORMED = {
    "ragged points rows": ("points", [GOOD_POINTS[0], [2.0e-6, 1.4, 1.4]], POINTS_SHAPE),
    "points rows 3 wide": ("points", [row[:3] for row in GOOD_POINTS], POINTS_SHAPE),
    "points rows 5 wide": ("points", [row + [1.4] for row in GOOD_POINTS], POINTS_SHAPE),
    "points row not a list": ("points", [GOOD_POINTS[0], 2.0e-6],
                              "dispersion.points[1] must be a sequence of numbers, got 2e-06"),
    "non-numeric point": ("points", [GOOD_POINTS[0], [2.0e-6, "n", 1.4, 1.4]],
                          "dispersion.points[1][1] must be a number, got 'n'"),
    "null points": ("points", None, "dispersion.points must be a sequence of numbers, got None"),
    "empty points": ("points", [], "dispersion.kind must be 'tabulated-points', with points, "
                     "or 'sellmeier', with sellmeier terms; got 'tabulated-points'"),
    "window of one bound": ("valid_range_m", [0.9e-6],
                            "dispersion.valid_range_m must be [lo, hi], got (9e-07,)"),
    "null window": ("valid_range_m", None,
                    "dispersion.valid_range_m must be a sequence of numbers, got None"),
    "photoelastic 5x6": ("entries", [[0.0] * 6 for _ in range(5)], TENSOR_SHAPE),
    "photoelastic 6x5": ("entries", [[0.0] * 5 for _ in range(6)], TENSOR_SHAPE),
    "ragged photoelastic": ("entries", [[0.0] * 6 for _ in range(5)] + [[0.0] * 7],
                            TENSOR_SHAPE),
    "photoelastic row not a list": (
        "entries", [[0.0] * 6 for _ in range(5)] + [0.0],
        "photoelastic.entries[5] must be a sequence of numbers, got 0.0"),
    "non-numeric photoelastic": ("entries", [[0.0] * 6 for _ in range(5)]
                                 + [[0.0] * 5 + ["p"]],
                                 "photoelastic.entries[5][5] must be a number, got 'p'"),
    "null photoelastic entries": ("entries", None, "photoelastic.entries must be a sequence "
                                  "of numbers, got None"),
    "Sellmeier axis not a list": ("sellmeier", [TERM, 2.0, TERM],
                                  "dispersion.sellmeier[1] must be a sequence of numbers, "
                                  "got 2.0"),
    "Sellmeier term not a list": ("sellmeier", [TERM, TERM, TERM + [0.5]],
                                  "dispersion.sellmeier[2][1] must be a sequence of numbers, "
                                  "got 0.5"),
    "two Sellmeier axes": ("sellmeier", [TERM, TERM], SELLMEIER_SHAPE),
    "Sellmeier term 3 wide": ("sellmeier", [[[1.0, 1e-14, 0.0]]] * 3, SELLMEIER_SHAPE),
    "null Sellmeier": ("sellmeier", None,
                       "dispersion.sellmeier must be a sequence of numbers, got None"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_rejected_by_material_name(case, tmp_path):
    *where, message = MALFORMED[case]
    text = _malformed(*where)
    with pytest.raises(MaterialFileError) as exc:
        loads_materials(text)
    assert str(exc.value).startswith(f"<string>: material 'demo': {message}")
    path = tmp_path / "bad.json"
    path.write_text(text)
    cp = subprocess.run([sys.executable, "-m", "transduce", "materials", "--db", str(path)],
                        capture_output=True, text=True)
    assert cp.returncode == 1
    assert cp.stderr.startswith(f"error: {path}: material 'demo': {message}")
    assert "Traceback" not in cp.stderr


def _set(path, value):
    doc = json.loads(json.dumps(MINIMAL))
    target = doc["materials"][0]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


# Each case: where in the entry, the value put there, the field the error names.
BAD_SCALARS = {
    "null d_eff": (("d_eff_m_per_v",), None, "d_eff_m_per_v"),
    "string d_eff": (("d_eff_m_per_v",), "ten", "d_eff_m_per_v"),
    "boolean d_eff": (("d_eff_m_per_v",), True, "d_eff_m_per_v"),
    "numeric-string eps_r entry": (("eps_r", 0), "2.0", "eps_r[0]"),
    "null damage threshold": (("damage_threshold_w_per_m2",), None,
                              "damage_threshold_w_per_m2"),
    "null valid_range_m[0]": (("dispersion", "valid_range_m", 0), None,
                              "dispersion.valid_range_m[0]"),
    "null v_sound_m_per_s": (("v_sound_m_per_s",), None, "v_sound_m_per_s"),
    "null v_sound entry": (("v_sound_m_per_s", "longitudinal"), None,
                           "v_sound_m_per_s.longitudinal"),
    "null eps_r entry": (("eps_r", 1), None, "eps_r[1]"),
    "null dispersion": (("dispersion",), None, "dispersion"),
    "null photoelastic": (("photoelastic",), None, "photoelastic"),
    "null Sellmeier B": (("dispersion",), {"kind": "sellmeier",
                                           "sellmeier": [[[None, 1e-14]]] * 3,
                                           "valid_range_m": [0.9e-6, 2.1e-6]},
                         "dispersion.sellmeier[0][0][0]"),
    "numeric-string point": (("dispersion", "points", 1, 1), "1.4",
                             "dispersion.points[1][1]"),
    "boolean point": (("dispersion", "points", 0, 0), True, "dispersion.points[0][0]"),
    "boolean photoelastic entry": (("photoelastic", "entries", 0, 0), True,
                                   "photoelastic.entries[0][0]"),
    "numeric-string photoelastic entry": (("photoelastic", "entries", 5, 2), "0.2",
                                          "photoelastic.entries[5][2]"),
    "boolean Sellmeier B": (("dispersion",), {"kind": "sellmeier",
                                              "sellmeier": [[[True, 1e-14]]] * 3,
                                              "valid_range_m": [0.9e-6, 2.1e-6]},
                            "dispersion.sellmeier[0][0][0]"),
    "numeric-string Sellmeier C": (("dispersion",), {"kind": "sellmeier",
                                                     "sellmeier": [[[1.0, "1e-14"]]] * 3,
                                                     "valid_range_m": [0.9e-6, 2.1e-6]},
                                   "dispersion.sellmeier[0][0][1]"),
    "null Sellmeier C of a later term": (("dispersion",), {
        "kind": "sellmeier", "valid_range_m": [0.9e-6, 2.1e-6],
        "sellmeier": [[[1.0, 1e-14]], [[1.0, 1e-14]], [[1.0, 1e-14], [0.5, None]]]},
        "dispersion.sellmeier[2][1][1]"),
    "string Sellmeier B": (("dispersion",), {"kind": "sellmeier",
                                             "sellmeier": [[["1.0", 1e-14]]] * 3,
                                             "valid_range_m": [0.9e-6, 2.1e-6]},
                           "dispersion.sellmeier[0][0][0]"),
    "boolean qpm_order": (("qpm_order",), True, "qpm_order"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCALARS))
def test_bad_scalar_field_rejected_by_name(case, tmp_path):
    path, value, field = BAD_SCALARS[case]
    text = _set(path, value)
    named = f"material 'demo': {field} "
    with pytest.raises(MaterialFileError, match=re.escape(named)):
        loads_materials(text)
    db_path = tmp_path / "bad.json"
    db_path.write_text(text)
    cp = subprocess.run([sys.executable, "-m", "transduce", "materials", "--db",
                         str(db_path)], capture_output=True, text=True)
    assert cp.returncode == 1
    assert named in cp.stderr
    assert "Traceback" not in cp.stderr


@pytest.mark.parametrize("lam", [1.5e-6, 2e-6])
def test_sellmeier_pole_at_a_query_is_rejected_when_built(lam):
    # A term with lam^2 = C raised a bare ZeroDivisionError at a lookup of
    # lam, and then a RangeError; no model can hold a pole in its window now.
    with pytest.raises(ValueError) as exc:
        DispersionModel("sellmeier", (1e-6, 3e-6),
                        sellmeier=[[[1.0, lam * lam]], [[1.0, 0.0]], [[1.0, 0.0]]])
    assert str(exc.value) == ("dispersion.sellmeier[0][0] must be a term with no pole inside "
                              f"the validity range, got [1.0, {lam * lam!r}]")


def test_sellmeier_n2_below_zero_between_scan_samples_is_a_range_error():
    # Three poles just below the window make n^2 < 0 from 1.00003 to 1.006 um,
    # all between the first two samples of the constructor's n >= 1 scan.
    x0 = 1e-6 ** 2
    terms = [[0.05, x0 - 1e-17], [-1.0, x0 - 1e-15], [10.0, x0 - 1e-13]]
    d = DispersionModel("sellmeier", (1e-6, 2e-6), sellmeier=[terms] * 3)
    assert d.index(1e-6, 0) > 1.0 and d.index(1.0159e-6, 0) > 1.0
    with pytest.raises(RangeError) as exc:
        d.index(1.0001e-6, 2)
    assert str(exc.value) == "Sellmeier n^2 < 0 at 1.0001e-06 m"
    assert (exc.value.lo, exc.value.hi, exc.value.value) == (1e-6, 2e-6, 1.0001e-6)


def test_sellmeier_zero_b_term_at_the_query_adds_nothing():
    lam = 1.5e-6
    d = DispersionModel(kind="sellmeier", valid_range_m=(1e-6, 2e-6),
                        sellmeier=(((1.0, 1e-14), (0.0, lam * lam)),) * 3)
    ref = DispersionModel(kind="sellmeier", valid_range_m=(1e-6, 2e-6),
                          sellmeier=(((1.0, 1e-14),),) * 3)
    assert d.index(lam, 0) == ref.index(lam, 0)


class TestRoundTrip:
    def test_load_serialize_load_is_bit_exact(self, db):
        text = dumps_materials(db)
        db2 = loads_materials(text)
        assert db.names() == db2.names()
        for name in db.names():
            a, b = db.get(name), db2.get(name)
            assert a.d_eff == b.d_eff
            assert a.eps_r == b.eps_r
            assert a.damage_threshold == b.damage_threshold
            assert a.v_sound == b.v_sound
            assert a.qpm_order == b.qpm_order
            assert np.array_equal(a.photoelastic.entries, b.photoelastic.entries,
                                  equal_nan=True)
            assert a.dispersion.kind == b.dispersion.kind
            assert a.dispersion.valid_range_m == b.dispersion.valid_range_m
            if a.dispersion.points is not None:
                assert np.array_equal(a.dispersion.points, b.dispersion.points)
            else:
                assert a.dispersion.sellmeier == b.dispersion.sellmeier
        assert dumps_materials(db2) == text

    def test_save_and_reload(self, db, tmp_path):
        path = tmp_path / "db.json"
        save_materials(db, path)
        assert dumps_materials(load_materials(path)) == dumps_materials(db)


def test_sellmeier_evaluation_against_direct_formula():
    # one-term Sellmeier: n^2 = 1 + B lam^2 / (lam^2 - C)
    doc = json.loads(json.dumps(MINIMAL))
    doc["materials"][0]["dispersion"] = {
        "kind": "sellmeier",
        "sellmeier": [[[1.0, 1e-14]], [[1.0, 1e-14]], [[1.0, 1e-14]]],
        "valid_range_m": [0.5e-6, 2.0e-6]}
    db = loads_materials(json.dumps(doc))
    lam = 1.0e-6
    expected = np.sqrt(1 + 1.0 * lam**2 / (lam**2 - 1e-14))
    assert refractive_index(db.get("demo"), lam, 0) == pytest.approx(expected, rel=1e-15)


class TestFrozen:
    """Material and MaterialDb keep read-only copies of their mappings."""

    MUTATIONS = [
        lambda d: d.__setitem__("longitudinal", 1.0),
        lambda d: d.__delitem__("longitudinal"),
        lambda d: d.clear(),
        lambda d: d.pop("longitudinal"),
        lambda d: d.popitem(),
        lambda d: d.setdefault("shear", 1.0),
        lambda d: d.update(shear=1.0),
        lambda d: d.__ior__({"shear": 1.0})]

    @staticmethod
    def _pm(m):
        bands = MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9)
        return PhaseMatchInput(bands=bands, material=m, length=100e-6)

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=[
        "setitem", "delitem", "clear", "pop", "popitem", "setdefault", "update", "ior"])
    def test_sound_speeds_of_the_bundled_entry_cannot_be_edited(self, mutate):
        # Editing the bundled BaTiO3's v_sound after one delta_k moved the
        # next delta_k on the same input from -2.46e6 to -1.26e10 rad/m.
        bto = default_db().get("BaTiO3")
        speeds, before = dict(bto.v_sound), delta_k(self._pm(bto))
        with pytest.raises(TypeError, match="FrozenDict is read-only"):
            mutate(bto.v_sound)
        assert bto.v_sound == speeds
        assert delta_k(self._pm(bto)) == before

    def test_editing_the_callers_dicts_changes_nothing(self):
        bto = default_db().get("BaTiO3")
        speeds, eps = dict(bto.v_sound), list(bto.eps_r)
        m = bto.replace(v_sound=speeds, eps_r=eps)
        before = delta_k(self._pm(m))
        speeds["longitudinal"] = 1.0
        eps[2] = 1.0
        assert m == bto and type(m.eps_r) is tuple
        assert delta_k(self._pm(m)) == before
        entries = {"BaTiO3": bto}
        db = MaterialDb(entries)
        entries.clear()
        assert db.get("BaTiO3") is bto
        with pytest.raises(TypeError, match="read-only"):
            db.materials["other"] = bto

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_read_only(self, duplicate):
        db = default_db()
        for dup in (duplicate(db), duplicate(db.get("BaTiO3"))):
            mapping = dup.materials if isinstance(dup, MaterialDb) else dup.v_sound
            with pytest.raises(TypeError, match="read-only"):
                mapping.clear()
        assert dumps_materials(duplicate(db)) == dumps_materials(db)
