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
