"""Every integer argument of the package follows one rule.

An int or a numpy integer is accepted and is stored or used as a plain int;
a float (even an integer-valued one) and a bool are rejected, as is an int
out of range, each with the message the site raises.  One row per
site, five inputs per row.  A container of integers (or of coordinates) that
is not one, or holds the wrong count, is named as well.
"""

import json
import pickle
from typing import Callable, NamedTuple

import numpy as np
import pytest

from transduce import MixingBands, PhaseMatchInput, default_db
from transduce.errors import MaterialFileError
from transduce.estimator import qpm_deff_reduction
from transduce.materials import dumps_materials, loads_materials, refractive_index
from transduce.phasematch import three_wave_residual
from transduce.tensors import voigt_index, voigt_pair
from transduce.thermo import fd_partial

def _bands(**kw):
    return MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9, **kw)


DB = default_db()
BTO = DB.get("BaTiO3")
BANDS = _bands()
PM = PhaseMatchInput(BANDS, BTO, 100e-6, poling_period=2.5e-6, poling_sign=-1)
ENTRY = next(m for m in json.loads(dumps_materials(DB))["materials"]
             if m["name"] == "BaTiO3")


def _load(v):
    # A file holds no numpy integer: one is written as the JSON integer it is.
    doc = {"schema": 1, "materials": [{**ENTRY, "qpm_order": v}]}
    return loads_materials(json.dumps(doc, default=int)).get("BaTiO3")


def _field(x, d):
    return x * x * d + 3.0 * x * d ** 3


class Site(NamedTuple):
    call: Callable           # the argument -> what the site stores or returns
    valid: int
    out_of_range: int
    error: type
    message: Callable        # the argument -> the site's message


SITES = {
    "MixingBands.axes": Site(
        lambda v: _bands(axes=(0, 1, v)), 2, 3, ValueError,
        lambda v: f"axes must be three indices in 0..2, got (0, 1, {v})"),
    "MixingBands.strain_voigt": Site(
        lambda v: _bands(strain_voigt=v), 2, 6, ValueError,
        lambda v: f"strain_voigt must be in 0..5, got {v}"),
    "DispersionModel.index": Site(
        lambda v: refractive_index(BTO, 2e-6, v), 1, 3, ValueError,
        lambda v: f"axis must be 0..2, got {v}"),
    "voigt_index": Site(
        lambda v: voigt_index(v, 2), 1, 3, ValueError,
        lambda v: f"axis indices must be in 0..2, got ({v}, 2)"),
    "voigt_pair": Site(
        voigt_pair, 3, 6, ValueError, lambda v: f"Voigt index must be in 0..5, got {v}"),
    "qpm_deff_reduction": Site(
        qpm_deff_reduction, 2, 0, ValueError,
        lambda v: f"poling diffraction order must be >= 1, got {v}"),
    # The Material constructor, under the id of the check it absorbed.
    "validate_material.qpm_order": Site(
        lambda v: BTO.replace(qpm_order=v), 2, 0, ValueError,
        lambda v: f"qpm_order must be an integer >= 1, got {v!r}"),
    "loader.qpm_order": Site(
        _load, 2, 0, MaterialFileError,
        lambda v: f"<string>: material 'BaTiO3': qpm_order must be an integer >= 1, got {v!r}"),
    "PhaseMatchInput.poling_sign": Site(
        lambda v: PhaseMatchInput(BANDS, BTO, 100e-6, poling_sign=v), -1, 0, ValueError,
        lambda v: f"poling sign must be +-1, got {v}"),
    "three_wave_residual.pump_choice": Site(
        lambda v: three_wave_residual(PM, v), 2, 3, ValueError,
        lambda v: f"pump_choice must be 1 or 2, got {v}"),
    "fd_partial.x_order": Site(
        lambda v: fd_partial(_field, (0.5, 0.25), (v, 1)), 1, 2, ValueError,
        lambda v: f"x-derivative order must be 0..1, got {v}"),
    "fd_partial.D_order": Site(
        lambda v: fd_partial(_field, (0.5, 0.25), (0, v)), 3, 4, ValueError,
        lambda v: f"D-derivative order must be 0..3, got {v}"),
}


def _rejects(site: Site, v) -> None:
    with pytest.raises(site.error) as exc:
        site.call(v)
    assert str(exc.value) == site.message(v)


@pytest.mark.parametrize("kind", ["int", "numpy", "float", "bool", "out_of_range"])
@pytest.mark.parametrize("name", list(SITES))
def test_integer_argument(name, kind):
    site = SITES[name]
    if kind == "int":
        site.call(site.valid)
    elif kind == "numpy":
        # Stored or used as a plain int: the result prints and pickles as the
        # int's does (numpy 2 prints a numpy scalar with its type).
        got, want = site.call(np.int64(site.valid)), site.call(site.valid)
        assert repr(got) == repr(want)
        assert pickle.dumps(got) == pickle.dumps(want)
    elif kind == "float":
        _rejects(site, float(site.valid))
    elif kind == "bool":
        _rejects(site, True)
    else:
        _rejects(site, site.out_of_range)


# (id, call, message): a malformed container raises a ValueError naming it,
# not a bare TypeError or an unpacking error.
CONTAINERS = [
    ("MixingBands.axes-int", lambda: _bands(axes=5),
     "axes must be three indices in 0..2, got 5"),
    ("MixingBands.axes-None", lambda: _bands(axes=None),
     "axes must be three indices in 0..2, got None"),
    ("fd_partial.orders-short", lambda: fd_partial(_field, (0.0, 0.0), (0,)),
     "orders must be a pair, got (0,)"),
    ("fd_partial.orders-int", lambda: fd_partial(_field, (0.0, 0.0), 1),
     "orders must be a pair, got 1"),
    ("fd_partial.point-short", lambda: fd_partial(_field, (0.0,), (0, 1)),
     "point must be a pair, got (0.0,)"),
    ("fd_partial.point-float", lambda: fd_partial(_field, 0.0, (0, 1)),
     "point must be a pair, got 0.0"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in CONTAINERS],
                         ids=[c[0] for c in CONTAINERS])
def test_malformed_container_is_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
