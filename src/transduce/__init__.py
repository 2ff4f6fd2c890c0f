"""Design toolkit for optomechanical four-wave-mixing transduction.

The package estimates the effective second-order photoelasticity of a
nonlinear optical material from tabulated constants (Miller's rule), converts
pump power into a virtual first-order photoelasticity, designs the
quasi-phase-matching grating for the four-wave process while checking
suppression of the competing three-wave channel, and numerically certifies
the thermodynamic Maxwell relations that tie photoelasticity to
electrostriction order by order.

Names resolve on first use (PEP 562): ``import transduce`` loads no layer
module, and ``transduce.<name>`` imports only the layer that defines it, then
binds the name here, so later reads are plain attribute lookups.  Loading a
database (``load_materials``, ``default_db``) thus loads ``errors``,
``tensors`` and ``materials`` only, and no numpy.
"""

__version__ = "0.1.0"

# Every public name, by the layer module that defines it.
_EXPORTS = {
    "errors": ("DataError", "MaterialFileError", "RangeError", "SingularityError",
               "TransduceError", "UnitError"),
    "estimator": ("CouplingBenchmark", "DesignReport", "MillerChain", "MixingBands",
                  "OPTOMECHANICAL_CRYSTAL_BENCHMARK", "PIEZO_OPTOMECHANICAL_BENCHMARK",
                  "PumpGeometry", "SweepRow", "damage_limited_power", "eta1_rel",
                  "eta2_from_Q", "eta2_from_deff", "interaction_density_3wm",
                  "interaction_density_4wm", "miller_Q", "peak_field_from_power",
                  "peak_intensity", "power_sweep", "q_eff_from_deff",
                  "q_eff_from_eta2", "second_order_photoelasticity",
                  "virtual_photoelasticity"),
    "materials": ("DispersionModel", "Material", "MaterialDb", "default_db",
                  "dumps_materials", "load_materials", "loads_materials",
                  "refractive_index", "save_materials"),
    "phasematch": ("PhaseMatchInput", "PhaseMatchResult", "ThreeWaveResidual",
                   "delta_k", "pm_efficiency", "poling_period", "sweep",
                   "three_wave_residual", "wavevector_acoustic", "wavevector_optical"),
    "tensors": ("PhotoelasticTensor", "voigt_index", "voigt_pair"),
    "thermo": ("FreeEnergyModel", "RelationReport", "VectorFreeEnergyModel",
               "eval_free_energy", "eval_free_energy_vector", "efield_of",
               "efield_of_vector", "extract_eta2", "fd_partial", "stress_of",
               "stress_of_vector", "verify_relations", "verify_relations_pair",
               "verify_relations_vector"),
    "units": ("C_LIGHT", "Dimension", "EPS0", "Quantity"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    """Import the layer behind ``name`` (a public name or a layer module)."""
    from importlib import import_module     # here, so it is no attribute
    layer = _LAYER_OF.get(name)
    if layer is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{layer or name}")
    if layer is None:       # the import bound the layer module here already
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
