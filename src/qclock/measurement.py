"""Stern-Gerlach observables over an ensemble of rotated spins.

For an analyzer direction at azimuth theta in the xy-plane, a spin at
azimuth phi lands in the + channel with probability cos^2((theta-phi)/2).
Since cos^2(x/2) = (1 + cos x)/2, the ensemble probabilities follow from
the density's first trigonometric moment m1 = C + iS = <exp(i*phi)>:

    P+-(theta) = (1 +- (C cos(theta) + S sin(theta))) / 2.

C and S are also the ensemble density matrix's off-diagonals.  The direct
cos^2/sin^2 convolution is kept in the tests as an independent oracle.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .distribution import (TWO_PI, AngularDistribution, ArrivalScheme,
                           _first_moment, first_moment, pi_of_phi,
                           write_text_atomic)
from .errors import DomainError, as_number, check_type
from .quadrature import QuadratureSpec
from .wavepacket import PhysicsConfig


@dataclass(frozen=True, init=False)
class MeasurementResult:
    """Analyzer angle plus the two channel probabilities."""

    theta: float
    p_plus: float
    p_minus: float

    def __init__(self, theta, p_plus, p_minus):
        # one dict update, not the frozen default's setattr per field
        self.__dict__.update(theta=theta, p_plus=p_plus, p_minus=p_minus)


def _check_theta(theta: float) -> float:
    """``theta`` as a Python float: ``ValidationError`` for a ``bool`` or
    anything that is not a real number, ``DomainError`` outside
    [0, 2*pi)."""
    theta = as_number("theta", theta)
    if not 0.0 <= theta < TWO_PI:
        raise DomainError("theta must lie in [0, 2*pi)")
    return theta


def measure(dist: AngularDistribution, theta: float) -> MeasurementResult:
    """Both channel probabilities at analyzer azimuth theta, from one m1;
    theta must be a real number in [0, 2*pi), and is stored as a Python
    float.  A ``dist`` that is not an ``AngularDistribution`` raises
    ``ValidationError``."""
    check_type("dist", dist, AngularDistribution)
    theta = _check_theta(theta)
    m1 = _first_moment(dist)
    proj = m1.real * math.cos(theta) + m1.imag * math.sin(theta)
    return MeasurementResult(theta=theta, p_plus=0.5 * (1.0 + proj),
                             p_minus=0.5 * (1.0 - proj))


def semiclassical_prediction(cfg: PhysicsConfig, theta: float) -> MeasurementResult:
    """Reference prediction with every spin rotated by the packet peak's angle.

    All spins rotate by phi_peak = 2*omega*d/u, so the channel probabilities
    are the pure-state cos^2/sin^2 half-angle laws.  theta must be a real
    number in [0, 2*pi), as for ``measure``, and ``cfg`` a
    ``PhysicsConfig``.
    """
    check_type("cfg", cfg, PhysicsConfig)
    theta = _check_theta(theta)
    half = 0.5 * (theta - cfg.phi_peak)
    return MeasurementResult(theta=theta,
                             p_plus=math.cos(half) ** 2,
                             p_minus=math.sin(half) ** 2)


def density_matrix(dist: AngularDistribution) -> np.ndarray:
    """Ensemble density matrix in the z basis, a 2x2 complex128 array: the
    angular average of |chi(phi)><chi(phi)| with
    chi(phi) = (|up> + exp(i*phi)|down>)/sqrt(2).

    The density is normalized, so both diagonals are 1/2; the off-diagonals
    are m1/2 and its conjugate.  A ``dist`` that is not an
    ``AngularDistribution`` raises ``ValidationError`` (from
    ``first_moment``).
    """
    m1 = first_moment(dist)
    return np.array([[0.5, 0.5 * m1.conjugate()],
                     [0.5 * m1, 0.5]], dtype=np.complex128)


@dataclass(frozen=True)
class DeviationRow:
    """One analyzer angle: quantum-scheme vs semiclassical probabilities."""

    theta: float
    p_plus: float
    p_minus: float
    p_plus_semiclassical: float
    delta: float  # p_plus - p_plus_semiclassical


def deviation_report(cfg: PhysicsConfig, scheme: ArrivalScheme,
                     thetas: Sequence[float],
                     quad: QuadratureSpec | None = None) -> list[DeviationRow]:
    """Tabulate quantum vs semiclassical probabilities per analyzer angle;
    ``ValidationError`` for ``thetas`` that are not iterable."""
    thetas = check_type("thetas", thetas, Iterable)
    return _deviation_rows(pi_of_phi(cfg, scheme, quad), cfg, thetas)


def _deviation_rows(dist: AngularDistribution, cfg: PhysicsConfig,
                    thetas: Sequence[float]) -> list[DeviationRow]:
    """``deviation_report``'s rows for the distribution ``dist`` of
    ``cfg``."""
    rows = []
    for theta in thetas:
        result = measure(dist, theta)
        reference = semiclassical_prediction(cfg, theta)
        rows.append(DeviationRow(
            theta=theta, p_plus=result.p_plus, p_minus=result.p_minus,
            p_plus_semiclassical=reference.p_plus,
            delta=result.p_plus - reference.p_plus))
    return rows


def write_deviation_csv(rows: Iterable[DeviationRow], path) -> None:
    """CSV with columns (theta_deg, p_plus, p_minus, p_plus_sc, delta)."""
    lines = ["theta_deg,p_plus,p_minus,p_plus_sc,delta"]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in (
            math.degrees(row.theta), row.p_plus, row.p_minus,
            row.p_plus_semiclassical, row.delta)))
    write_text_atomic(path, "\n".join(lines) + "\n")


def round_half_away(x: float, decimals: int = 5) -> float:
    """Round with halves going away from zero (table formatting convention)."""
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))
