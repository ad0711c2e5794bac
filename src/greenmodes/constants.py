"""Physical constants and thermal factors.

Everything downstream takes an explicit :class:`Constants` instance instead
of importing global unit conventions.  Two presets are provided: natural
units (hbar = c = eps0 = kB = 1), which keep cavity numbers O(1), and SI.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constants:
    hbar: float = 1.0
    c: float = 1.0
    eps0: float = 1.0
    kB: float = 1.0

    @classmethod
    def natural(cls) -> "Constants":
        return cls()

    @classmethod
    def si(cls) -> "Constants":
        return cls(
            hbar=1.054571817e-34,
            c=2.99792458e8,
            eps0=8.8541878128e-12,
            kB=1.380649e-23,
        )


def thermal_occupation(omega, temperature, const=None):
    """Bose-Einstein occupation n(omega, T).

    Vectorized over omega.  T = 0 returns exact zeros, no 1/0 warnings.
    Negative omega is not meaningful here and raises.
    """
    const = const or Constants.natural()
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0.0):
        raise ValueError("thermal_occupation needs omega > 0")
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return np.zeros_like(omega) if omega.ndim else 0.0
    x = const.hbar * omega / (const.kB * temperature)
    out = 1.0 / np.expm1(x)
    return out if omega.ndim else float(out)


@dataclass(frozen=True)
class ThermalState:
    """Bath temperature bundled with the unit system it is expressed in."""

    temperature: float
    const: Constants

    def occupation(self, omega):
        return thermal_occupation(omega, self.temperature, self.const)
