"""Design toolkit for optomechanical four-wave-mixing transduction.

The package estimates the effective second-order photoelasticity of a
nonlinear optical material from tabulated constants (Miller's rule), converts
pump power into a virtual first-order photoelasticity, designs the
quasi-phase-matching grating for the four-wave process while checking
suppression of the competing three-wave channel, and numerically certifies
the thermodynamic Maxwell relations that tie photoelasticity to
electrostriction order by order.
"""

__version__ = "0.1.0"

from .errors import (DataError, MaterialFileError, RangeError,
                     SingularityError, TransduceError, UnitError)
from .estimator import (CouplingBenchmark, DesignReport, MillerChain,
                        MixingBands, OPTOMECHANICAL_CRYSTAL_BENCHMARK,
                        PIEZO_OPTOMECHANICAL_BENCHMARK, PumpGeometry,
                        SweepRow, damage_limited_power, eta1_rel,
                        eta2_from_Q, eta2_from_deff, interaction_density_3wm,
                        interaction_density_4wm, miller_Q,
                        peak_field_from_power, peak_intensity, power_sweep,
                        q_eff_from_deff, q_eff_from_eta2,
                        second_order_photoelasticity, virtual_photoelasticity)
from .materials import (DispersionModel, Material, MaterialDb, Violation,
                        default_db, dumps_materials, load_materials,
                        loads_materials, refractive_index, save_materials,
                        validate_material)
from .phasematch import (PhaseMatchInput, PhaseMatchResult, ThreeWaveResidual,
                         delta_k, pm_efficiency, poling_period, sweep,
                         three_wave_residual, wavevector_acoustic,
                         wavevector_optical)
from .tensors import PhotoelasticTensor, voigt_index, voigt_pair
from .thermo import (FreeEnergyModel, RelationReport, VectorFreeEnergyModel,
                     eval_free_energy, eval_free_energy_vector, efield_of,
                     efield_of_vector, extract_eta2, fd_partial, stress_of,
                     stress_of_vector, verify_relations, verify_relations_pair,
                     verify_relations_vector)
from .units import (CONSTANTS, C_LIGHT, Constants, Dimension, EPS0, Quantity)
