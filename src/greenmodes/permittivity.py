"""Permittivity models.

A model maps frequency to a homogeneous complex scalar relative
permittivity; no Green backend or mode builder handles anisotropic
media, so there is no tensor model.  All models are passive:
construction rejects parameters that would describe gain at positive
frequency.  Evaluation at negative real frequency returns the Schwarz
reflection eps(-omega) = conj(eps(omega)), which analytic response
functions satisfy identically and which the constant (single-frequency
idealization) model enforces by hand.
"""

import numpy as np


class PermittivityModel:
    """Base class.  Subclasses implement _eval_pos(omega >= 0 branch)."""

    def eval(self, omega):
        """Permittivity at frequency omega, vectorized, causal reflection
        applied for Re(omega) < 0."""
        omega = np.asarray(omega)
        scalar_in = omega.ndim == 0
        omega = np.atleast_1d(omega)
        out = np.asarray(self._eval_pos(np.abs(omega.real) + 1j * omega.imag), dtype=complex)
        neg = omega.real < 0
        if np.any(neg):
            out = out.copy()
            out[neg] = np.conj(out[neg])
        return out[0] if scalar_in else out

    def _eval_pos(self, omega):
        raise NotImplementedError


class ConstantScalar(PermittivityModel):
    """Frequency-independent complex scalar.

    A constant complex value only makes sense as a single-frequency
    idealization; the causal reflection for negative omega is imposed in
    eval() so spectral integrands stay consistent.
    """

    def __init__(self, value):
        value = complex(value)
        if value.imag < 0.0:
            raise ValueError("gain medium (Im eps < 0) not supported")
        if value.real == 0.0 and value.imag == 0.0:
            raise ValueError("eps = 0 is singular")
        self.value = value

    def _eval_pos(self, omega):
        return np.full(np.shape(omega), self.value, dtype=complex)

    def __repr__(self):
        return "ConstantScalar(%r)" % (self.value,)


class DrudeLorentz(PermittivityModel):
    """eps(omega) = eps_inf + sum_j wp_j^2 / (w0_j^2 - omega^2 - i g_j omega).

    poles is a sequence of (wp, w0, gamma) triples.  gamma >= 0 keeps the
    model passive; w0 = 0 gives the Drude limit.
    """

    def __init__(self, eps_inf=1.0, poles=()):
        self.eps_inf = float(eps_inf)
        self.poles = tuple((float(wp), float(w0), float(g)) for wp, w0, g in poles)
        if self.eps_inf <= 0.0:
            raise ValueError("eps_inf must be positive")
        for wp, w0, g in self.poles:
            if g < 0.0:
                raise ValueError("pole damping gamma must be >= 0")

    def _eval_pos(self, omega):
        omega = np.asarray(omega, dtype=complex)
        if any(w0 == 0.0 for _, w0, _ in self.poles) and np.any(omega == 0.0):
            raise ValueError("Drude pole (w0 = 0) is singular at omega = 0")
        out = np.full(omega.shape, self.eps_inf, dtype=complex)
        for wp, w0, g in self.poles:
            out += wp**2 / (w0**2 - omega**2 - 1j * g * omega)
        return out

    def __repr__(self):
        return "DrudeLorentz(eps_inf=%r, poles=%r)" % (self.eps_inf, self.poles)
