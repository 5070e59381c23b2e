"""The exact susceptibility of the driven line, for tests of its Lorentzian limit.

``fastlight.atomic_response`` works in the far-detuned limit only; these
forms keep the full three-level denominator, so the tests can show how the
limit is approached.
"""

import numpy as np

from fastlight import MediumSpec, NumericalError


def chi_full(delta, spec: MediumSpec):
    """Exact steady-state susceptibility at two-photon detuning ``delta``.

    Accepts a scalar or array detuning (rad/s).  Raises NumericalError if
    the denominator falls below 1e-30 of the numerator anywhere on the input.
    """
    delta = np.asarray(delta, dtype=float)
    num = spec.beta * (delta - 1j * spec.gamma)
    den = (delta - 1j * spec.gamma) * (spec.Delta - 1j * spec.Gamma / 2) - spec.omega_c_rabi**2 / 4
    bad = np.abs(den) < 1e-30 * np.abs(num)
    if np.any(bad):
        raise NumericalError(
            "susceptibility denominator vanished (|den| < 1e-30 |num|) at "
            f"{int(np.count_nonzero(bad))} detuning(s)"
        )
    out = num / den
    return out if out.ndim else complex(out)


def background_susceptibility(spec: MediumSpec) -> complex:
    """Smooth one-photon wing beta / (Delta - i Gamma/2) underlying the line.

    The exact susceptibility splits identically into this constant plus a
    resonant pole:

        chi_full(delta) = beta/D + (beta Omega_c^2 / (4 D^2))
                          / (delta - i gamma - Omega_c^2/(4 D)),
        D = Delta - i Gamma/2.

    The background is a flat index offset and residual one-photon absorption;
    it carries no structure in delta, so it contributes nothing to the group
    response of the line.
    """
    return complex(spec.beta / (spec.Delta - 1j * spec.Gamma / 2))


def chi_resonant(delta, spec: MediumSpec):
    """Two-photon (Raman) feature: chi_full minus the smooth background.

    This is the part the Lorentzian limit approximates:
    chi_resonant(delta0 + delta') -> chi_lorentzian(delta') as Delta/Gamma
    grows.  The background itself is comparable to -- at the example scales,
    far larger than -- the feature, so comparisons against the Lorentzian
    form must use this function, not chi_full.
    """
    return chi_full(delta, spec) - background_susceptibility(spec)
