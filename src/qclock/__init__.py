"""qclock: a spin rotator as a quantum clock.

Simulates a spin-1/2 neutral particle crossing a constant-field spin
rotator, builds the distribution of emergent spin orientations from a
postulated arrival-time density (by default the normalized modulus of the
exit-point probability current), and predicts Stern-Gerlach measurement
probabilities along any analyzer direction.
"""

from .current import exit_current_grid
from .distribution import (AngularDistribution, ArrivalScheme,
                           bracketing_hints, mean_phi, peak_phi, pi_of_phi,
                           variance_phi, write_distribution_csv)
from .errors import (AmbiguousPeakError, ConfigParseError, ConvergenceError,
                     DegenerateDistributionError, DomainError, QClockError,
                     UnsupportedSchemeError, ValidationError)
from .measurement import (DeviationRow, MeasurementResult, density_matrix,
                          deviation_report, measure, round_half_away,
                          semiclassical_prediction, write_deviation_csv)
from .quadrature import (QuadratureResult, QuadratureSpec, integrate,
                         integrate_full)
from .wavepacket import (CALIBRATED_MOMENT, HBAR, NEUTRON_MASS,
                         NEUTRON_MOMENT, PacketWidth, PhysicsConfig,
                         moment_for_rotation, width)

__version__ = "0.1.0"

__all__ = [
    "AngularDistribution", "ArrivalScheme", "CALIBRATED_MOMENT",
    "DeviationRow", "HBAR", "MeasurementResult", "NEUTRON_MASS",
    "NEUTRON_MOMENT", "PacketWidth", "PhysicsConfig", "QuadratureResult",
    "QuadratureSpec", "bracketing_hints", "density_matrix",
    "deviation_report", "exit_current_grid", "integrate", "integrate_full",
    "mean_phi", "measure", "moment_for_rotation", "peak_phi", "pi_of_phi",
    "round_half_away", "semiclassical_prediction", "variance_phi", "width",
    "write_distribution_csv", "write_deviation_csv",
    "QClockError", "ValidationError", "DomainError",
    "ConvergenceError", "DegenerateDistributionError",
    "UnsupportedSchemeError", "AmbiguousPeakError", "ConfigParseError",
    "__version__",
]
