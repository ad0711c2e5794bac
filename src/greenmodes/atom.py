"""Two-level emitter description shared by the decay and driven solvers."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensors import r3


@dataclass(frozen=True)
class Drive:
    """Classical drive: laser frequency and on-resonance Rabi rate."""

    omega_L: float
    rabi: float

    def __post_init__(self):
        if self.omega_L <= 0.0:
            raise ValueError("drive frequency must be positive")


@dataclass(frozen=True)
class TwoLevelAtom:
    """Point dipole with transition frequency omega0 at a fixed position.

    The dipole moment is real (linear polarization); magnitude carries the
    coupling strength.  drive is None for a free atom.
    """

    position: np.ndarray
    dipole: np.ndarray
    omega0: float
    drive: Optional[Drive] = None

    def __post_init__(self):
        object.__setattr__(self, "position", r3(self.position))
        object.__setattr__(self, "dipole", r3(self.dipole))
        if self.omega0 <= 0.0:
            raise ValueError("transition frequency must be positive")
        if np.linalg.norm(self.dipole) == 0.0:
            raise ValueError("dipole moment must be nonzero")

