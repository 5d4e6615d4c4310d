import numpy as np
import pytest

import qclock

# Adding or removing an export is an API change: update this set with it.
EXPECTED_ALL = {
    "AngularDistribution", "ArrivalScheme", "CALIBRATED_MOMENT",
    "DeviationRow", "HBAR", "MeasurementResult", "NEUTRON_MASS",
    "NEUTRON_MOMENT", "PacketWidth", "PhysicsConfig", "QuadratureResult",
    "QuadratureSpec", "bracketing_hints", "density_matrix",
    "deviation_report", "exit_current_grid", "integrate", "integrate_full",
    "mean_phi", "measure", "moment_for_rotation", "peak_phi", "pi_of_phi",
    "round_half_away", "semiclassical_prediction", "variance_phi", "width",
    "write_distribution_csv", "write_deviation_csv",
    "QClockError", "ValidationError", "DomainError", "ConvergenceError",
    "DegenerateDistributionError", "UnsupportedSchemeError",
    "AmbiguousPeakError", "ConfigParseError", "__version__",
}


def test_public_api_is_pinned():
    assert len(qclock.__all__) == len(set(qclock.__all__))
    assert set(qclock.__all__) == EXPECTED_ALL
    for name in qclock.__all__:
        getattr(qclock, name)


SCHEME = qclock.ArrivalScheme.MODULUS_TOTAL_CURRENT


@pytest.mark.parametrize("call, name, kind", [
    (lambda: qclock.pi_of_phi({"d": 1.0}, SCHEME), "cfg", "PhysicsConfig"),
    (lambda: qclock.pi_of_phi(qclock.PhysicsConfig(), SCHEME,
                              quad={"rel_tol": 1e-8}),
     "quad", "QuadratureSpec"),
    (lambda: qclock.AngularDistribution.from_density(
        np.ones_like, quad={"rel_tol": 1e-8}), "quad", "QuadratureSpec"),
    (lambda: qclock.integrate(np.ones_like, 0.0, 1.0, {"rel_tol": 1e-8}),
     "spec", "QuadratureSpec"),
    (lambda: qclock.semiclassical_prediction({"d": 1}, 0.5),
     "cfg", "PhysicsConfig"),
    (lambda: qclock.measure("x", 0.5), "dist", "AngularDistribution"),
], ids=["pi_of_phi-cfg", "pi_of_phi-quad", "from_density-quad",
        "integrate-spec", "semiclassical-cfg", "measure-dist"])
def test_arguments_of_the_wrong_type_raise_validation_error(call, name,
                                                            kind):
    with pytest.raises(qclock.ValidationError,
                       match=f"^{name} must be of type {kind}, not "):
        call()
