"""kerrcav: dispersive cavity-QED simulator for light-shift engineered
Kerr and cross-Kerr photonic nonlinearities.

The package builds truncated Fock (x) collective-atom spaces, every model in
the derivation chain from the full three-level Hamiltonian down to the pure
Kerr limit, the pulse protocol realizing the photon-conditioned atomic
rotation, regime-validity diagnostics, and reproducible benchmark scenarios
with CSV/JSON emission.
"""
from .errors import (CalibrationError, GuardError, KerrcavError,
                     ValidationError, WorkerError)
from .hilbert import (Space, annihilation, basis_state, build_space,
                      collective, number_op, s3)
from .models import SchemeParams, derive_params, synthesize_raman
from .pulses import PulseCalibration, VProtocol, calibrate_pulse_phase
from .regimes import RegimeReport, check, enhanced_strength, kerr_strength
from .experiments import (run_cross_kerr, run_fig3a, run_fig3b, sweep,
                          write_outputs)

__version__ = "0.1.0"

__all__ = [
    "CalibrationError", "GuardError", "KerrcavError", "ValidationError",
    "WorkerError",
    "Space", "annihilation", "basis_state", "build_space",
    "collective", "number_op", "s3",
    "SchemeParams", "derive_params", "synthesize_raman",
    "PulseCalibration", "VProtocol", "calibrate_pulse_phase",
    "RegimeReport", "check", "enhanced_strength", "kerr_strength",
    "run_cross_kerr", "run_fig3a", "run_fig3b", "sweep", "write_outputs",
    "__version__",
]
