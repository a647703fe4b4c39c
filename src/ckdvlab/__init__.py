"""Numerical laboratory for the cylindrical KdV long-wave regime.

Implements the periodic spectral toolbox, a self-contained Airy evaluator,
the closed-form solitary wave with its decay diagnostics, radial
integrators for the cylindrical KdV equation and the transformed Boussinesq
equation, the ansatz-residual scaling experiments, and a CLI that emits
reproducible CSV/SVG artifacts.
"""

__version__ = "0.1.0"

from .airy import AiryValues, SolitonSpec, airy_eval, compatibility_residual
from .boussinesq import (BoussinesqState, approximation_error, boussinesq_evolve,
                         make_ansatz_state, n_forms, resolvent_solve, u_to_v, v_to_u)
from .ckdv import (CkdvRunConfig, CkdvState, ckdv_evolve, ckdv_linear_propagator,
                   make_state)
from .errors import (BranchError, CkdvLabError, ConfigError, DenominatorSignError,
                     MeanValueError, NoConvergence, OverflowGuard, SingularDispersion,
                     StepUnstable)
from .grid import (RealField, SpectralGrid, apply_b2, dispersion_omega_squared,
                   make_grid, spectral_antiderivative, spectral_derivative)
from .residual import EnergyReport, ResidualReport, energy, gronwall_growth_check
from .soliton import (bilinear_residual, physical_wave, soliton_amplitude,
                      window_l2_growth, zero_mean_defect)
