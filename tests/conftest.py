import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from transduce import MixingBands, default_db
from transduce.materials import DispersionModel, Material
from transduce.tensors import PhotoelasticTensor


@pytest.fixture(scope="session")
def db():
    return default_db()


@pytest.fixture(scope="session")
def bto(db):
    return db.get("BaTiO3")


@pytest.fixture
def bto_bands():
    """Both pumps at 2600 nm, 2 GHz phonon, standard axes and strain column."""
    return MixingBands.from_vacuum_wavelengths(2600e-9, 2600e-9, 2e9)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn)`` rebinds the library function ``fn``, in every
    ``transduce`` module namespace that binds it, to a wrapper that records
    each call's arguments, and returns the list it records into.  Library
    functions resolve each other through module globals at call time, so
    calls between them are recorded too.  The bindings are restored after
    the test."""
    def install(fn):
        calls = []

        def counted(*args, **kw):
            calls.append(args)
            return fn(*args, **kw)
        for name, mod in list(sys.modules.items()):
            if name == "transduce" or name.startswith("transduce."):
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        monkeypatch.setattr(mod, attr, counted)
        return calls
    return install


def unreadable_db(tmp_path, kind):
    """A database path that cannot be read as UTF-8 text."""
    if kind == "directory":
        return tmp_path
    path = tmp_path / "db.json"
    path.write_bytes(b"\xff\xfe{}")    # a UTF-16 byte-order mark
    return path


def make_material(name="fix", n_points=((1.0e-6, 2.0), (3.0e-6, 2.0)),
                  valid=(0.5e-6, 3.5e-6), p_entries=None, d_eff=1e-11,
                  eps_r=(5.0, 5.0, 5.0), v_sound=None, damage=5.4e12,
                  qpm_order=1):
    """Synthetic tabulated-dispersion material for fixture sweeps."""
    pts = np.array([[lam, n, n, n] for lam, n in n_points])
    p = np.zeros((6, 6))
    if p_entries is None:
        p[0, 2] = p[1, 2] = 0.2
        p[2, 2] = 0.77
    else:
        for (i, j), val in p_entries.items():
            p[i, j] = val
    return Material(
        name=name,
        dispersion=DispersionModel(kind="tabulated-points",
                                   valid_range_m=valid, points=pts),
        photoelastic=PhotoelasticTensor(p),
        photoelastic_note="synthetic fixture",
        d_eff=d_eff,
        eps_r=tuple(eps_r),
        v_sound=v_sound if v_sound is not None else {"longitudinal": 5000.0},
        damage_threshold=damage,
        qpm_order=qpm_order,
    )


@st.composite
def designs(draw):
    """A tabulated or Sellmeier material and bands inside its window.

    The ranges are those of the benchmark generator: pumps in 1.8-3.0 um, a
    1-10 GHz phonon, Sellmeier poles below and above the 0.6-3.4 um window.
    """
    window = (0.6e-6, 3.4e-6)
    n = st.floats(1.3, 3.0)
    if draw(st.booleans()):
        rows = tuple((lam, draw(n), draw(n), draw(n))
                     for lam in (0.7e-6, 1.5e-6, 2.3e-6, 3.2e-6))
        dispersion = DispersionModel(kind="tabulated-points",
                                     valid_range_m=window, points=rows)
    else:
        terms = tuple(((draw(st.floats(1.5, 3.5)), draw(st.floats(1e-14, 9e-14))),
                       (draw(st.floats(0.2, 1.0)), draw(st.floats(6.4e-11, 1.44e-10))))
                      for _ in range(3))
        dispersion = DispersionModel(kind="sellmeier", valid_range_m=window,
                                     sellmeier=terms)
    m = make_material(p_entries={(v, 2): draw(st.floats(-0.3, 0.8)) for v in range(3)},
                      d_eff=draw(st.floats(5e-12, 50e-12)),
                      v_sound={"longitudinal": draw(st.floats(3000.0, 9000.0))})
    pump = st.floats(1.8e-6, 3.0e-6)
    bands = MixingBands.from_vacuum_wavelengths(
        draw(pump), draw(pump), draw(st.floats(1e9, 1e10)),
        axes=draw(st.tuples(*[st.integers(0, 2)] * 3)))
    return m.replace(dispersion=dispersion), bands
