"""Polarization post-selection and the resulting amplification of the advance.

The analyzer passes the state |theta> = cos(theta)|H> + sin(theta)|V>.  With
the interaction acting on H only, the amplification factor of the H-pulse
arrival shift carried into the post-selected envelope is the (real) weak
value

    A_w(theta) = cos(theta) / (sin(theta) + cos(theta)),

which diverges as theta -> -45 deg where the analyzer is orthogonal to the
balanced input.  A_w > 1 for theta in (-45 deg, 0), A_w < 0 for
theta < -45 deg (the shift flips sign), and A_w(theta) + A_w(90 deg - theta)
= 1.

Projection is unnormalized: the post-selected envelope is
cos(theta) h(t) + sin(theta) v(t) and the throughput is its energy over the
pulse's stored reference energy.  For the unequal-weight input state with
line-centre transmission T~ and an H pulse attenuated by the line, that
throughput is  2 T~ sin^2(theta + pi/4) / (1 + T~)  in the narrowband limit.

Angles are radians in (-pi/2, pi/2]; degree helpers live in the CLI layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_number, check_transmission
from .pulse_engine import Envelope, PolarizedPulse, _check_no_wraparound

# |sin + cos| below this is treated as the dark port: the weak value and the
# first-order response both diverge there.
_SINGULAR_TOLERANCE = 1e-12


def _check_angle(theta: float) -> None:
    check_number("theta", theta)
    if not -np.pi / 2 < theta <= np.pi / 2:  # false for nan and both infinities
        raise ParameterError(f"theta: must lie in (-pi/2, pi/2] radians; got {theta}")


def weak_value(theta: float) -> float:
    """A_w(theta) = cos(theta) / (sin(theta) + cos(theta)).

    Raises ParameterError within 1e-12 of the dark port (theta = -pi/4) and
    outside (-pi/2, pi/2].
    """
    _check_angle(theta)
    s, c = np.sin(theta), np.cos(theta)
    if abs(s + c) <= _SINGULAR_TOLERANCE:
        raise ParameterError(
            "theta is the dark port (analyzer orthogonal to the balanced "
            "input); the weak value diverges there"
        )
    return float(c / (s + c))


@dataclass(frozen=True, eq=False)
class PostSelectedPulse:
    """Envelope after the analyzer plus the measured energy throughput."""

    envelope: Envelope
    throughput: float


def post_select(pulse: PolarizedPulse, theta: float) -> PostSelectedPulse:
    """Project onto cos(theta)|H> + sin(theta)|V> without renormalizing.

    Throughput is the projected energy over the pulse's reference energy
    (clamped to 1.0 against rounding).  theta = 0.0 passes H through exactly.
    Near the dark port the peaks of the two arms cancel while their edge
    tails need not, so raises NumericalError if what passes reaches the grid
    edge.
    """
    _check_angle(theta)
    if theta == 0.0:
        envelope = pulse.h
    else:
        samples = np.cos(theta) * pulse.h.samples
        samples += np.sin(theta) * pulse.v.samples
        envelope = Envelope(pulse.h.grid, samples)
    _check_no_wraparound(envelope.samples, "post_select")
    throughput = min(envelope.energy() / pulse.reference_energy, 1.0)
    return PostSelectedPulse(envelope=envelope, throughput=throughput)


def total_transmission(t_tilde: float, theta: float) -> float:
    """Narrowband end-to-end energy throughput  2 T~ sin^2(theta+pi/4)/(1+T~)."""
    check_transmission("t_tilde", t_tilde)
    _check_angle(theta)
    s2 = np.sin(theta + np.pi / 4) ** 2
    return float(2 * t_tilde * s2 / (1 + t_tilde))

