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
                                 save_materials, validate_material)

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
        with pytest.raises(MaterialFileError, match="damage_threshold_w_per_m2"):
            loads_materials(_with(damage_threshold_w_per_m2=-1.0))

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
    def test_bundled_entries_are_valid(self, db):
        for name in db.names():
            assert validate_material(db.get(name)) == []

    def test_dip_below_one_is_one_violation(self):
        db = loads_materials(json.dumps(MINIMAL))
        m = db.get("demo")
        bad_points = [list(row) for row in m.dispersion.points]
        bad_points[1][1:] = [0.9, 0.9, 0.9]
        bad = m.replace(dispersion=m.dispersion.replace(points=bad_points))
        violations = validate_material(bad)
        assert len(violations) == 1
        assert violations[0].field == "dispersion.points"
        assert violations[0].rule == "n >= 1"

    def test_narrow_sellmeier_pole_between_scan_samples_rejected(self):
        lo, hi = 0.5e-6, 2.0e-6
        grid = np.linspace(lo, hi, 64)
        pole = (grid[10] + grid[11]) / 2        # halfway between two samples
        terms = [[1.0, 1e-14], [1e-4, pole ** 2]]
        doc = json.loads(json.dumps(MINIMAL))
        doc["materials"][0]["dispersion"] = {
            "kind": "sellmeier", "sellmeier": [terms] * 3, "valid_range_m": [lo, hi]}
        # The scan alone sees nothing: n stays finite and near sqrt(2).
        d = DispersionModel(kind="sellmeier", valid_range_m=(lo, hi),
                            sellmeier=(tuple(map(tuple, terms)),) * 3)
        assert all(1.4 < d.index(lam, 0) < 1.5 for lam in grid)
        with pytest.raises(MaterialFileError, match="pole inside validity range"):
            loads_materials(json.dumps(doc))

    def test_nan_sellmeier_coefficient_rejected(self):
        # It gave n = NaN at every wavelength without a word.
        doc = json.loads(json.dumps(MINIMAL))
        doc["materials"][0]["dispersion"] = {
            "kind": "sellmeier", "sellmeier": [[[1.0, math.nan]]] * 3,
            "valid_range_m": [0.5e-6, 2.0e-6]}
        with pytest.raises(MaterialFileError, match="dispersion.sellmeier violates 'finite B and C'"):
            loads_materials(json.dumps(doc))

    @pytest.mark.parametrize("c", [0.5e-6 ** 2, 2.0e-6 ** 2])
    def test_sellmeier_pole_at_window_edge_rejected(self, c):
        m = loads_materials(json.dumps(MINIMAL)).get("demo")
        disp = DispersionModel(kind="sellmeier", valid_range_m=(0.5e-6, 2.0e-6),
                               sellmeier=(((1.0, 1e-14), (1e-4, c)),) * 3)
        violations = validate_material(m.replace(dispersion=disp))
        assert [v.rule for v in violations] == ["pole inside validity range"] * 3

    def test_negative_n2_without_a_pole_is_named_as_n_below_1(self):
        # No pole in the window, yet n^2 < 0 throughout: it was reported as
        # "pole inside validity range".
        doc = json.loads(json.dumps(MINIMAL))
        doc["materials"][0]["dispersion"] = {
            "kind": "sellmeier", "sellmeier": [[[-2.0, 1e-14]]] * 3,
            "valid_range_m": [1e-6, 2e-6]}
        with pytest.raises(MaterialFileError,
                           match="dispersion.sellmeier violates 'n >= 1 over validity range'"):
            loads_materials(json.dumps(doc))

    def test_missing_v_sound_mode_is_not_a_validation_issue(self):
        db = loads_materials(_with(v_sound_m_per_s={}))
        assert validate_material(db.get("demo")) == []


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


POINTS_SHAPE = "dispersion points must be rows of [lambda_m, nx, ny, nz] (got 2 rows of widths"
TENSOR_SHAPE = "photoelastic tensor must be 6x6 numbers (got "
SELLMEIER_SHAPE = "dispersion sellmeier must be 3 axis lists of [B, C] number pairs, got "
TERM = [[1.0, 1e-14]]

# Each case: the table, the value put there, the start of the message after
# "material 'demo': ".  A row that is not a list, or a table that is null, is
# named by its place, as a cell is.
MALFORMED = {
    "ragged points rows": ("points", [GOOD_POINTS[0], [2.0e-6, 1.4, 1.4]], POINTS_SHAPE),
    "points rows 3 wide": ("points", [row[:3] for row in GOOD_POINTS], POINTS_SHAPE),
    "points rows 5 wide": ("points", [row + [1.4] for row in GOOD_POINTS], POINTS_SHAPE),
    "points row not a list": ("points", [GOOD_POINTS[0], 2.0e-6],
                              "dispersion.points[1] must be a sequence of numbers, got 2e-06"),
    "non-numeric point": ("points", [GOOD_POINTS[0], [2.0e-6, "n", 1.4, 1.4]],
                          "dispersion.points[1][1] must be a number, got 'n'"),
    "null points": ("points", None, "dispersion.points must be a sequence of numbers, got None"),
    "empty points": ("points", [], "dispersion kind must be 'tabulated-points', with points, "
                     "or 'sellmeier', with sellmeier terms; got 'tabulated-points'"),
    "window of one bound": ("valid_range_m", [0.9e-6],
                            "valid_range_m must be [lo, hi], got (9e-07,)"),
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
    assert str(exc.value).startswith(f"material 'demo': {message}")
    path = tmp_path / "bad.json"
    path.write_text(text)
    cp = subprocess.run([sys.executable, "-m", "transduce", "materials", "--db", str(path)],
                        capture_output=True, text=True)
    assert cp.returncode == 1
    assert cp.stderr.startswith(f"error: material 'demo': {message}")
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
    with pytest.raises(MaterialFileError, match=re.escape(f"material 'demo': {field} ")):
        loads_materials(text)
    db_path = tmp_path / "bad.json"
    db_path.write_text(text)
    cp = subprocess.run([sys.executable, "-m", "transduce", "materials", "--db",
                         str(db_path)], capture_output=True, text=True)
    assert cp.returncode == 1
    assert f"material 'demo': {field} " in cp.stderr
    assert "Traceback" not in cp.stderr


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
