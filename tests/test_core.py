"""Thermal occupation, tensor helpers, permittivity models, atom container."""

import numpy as np
import pytest

from greenmodes import (
    ConstantScalar,
    DrudeLorentz,
    Drive,
    TwoLevelAtom,
    thermal_occupation,
)
from greenmodes.tensors import dagger, is_psd, r3


def test_dagger_involution_exact(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(dagger(dagger(m)), m)


def test_is_psd_rejects_negative_direction():
    m = np.diag([1.0, 1.0, -0.1]).astype(complex)
    assert not is_psd(m, tol=1e-12)
    assert is_psd(np.eye(3, dtype=complex), tol=1e-12)


def test_r3_shape_check():
    with pytest.raises(ValueError):
        r3([1.0, 2.0])


# -- permittivity ----------------------------------------------------------

ALL_MODELS = [
    ConstantScalar(2.25 + 0.3j),
    DrudeLorentz(eps_inf=1.5, poles=[(0.8, 1.2, 0.05), (0.4, 2.0, 0.1)]),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_causality_reflection_every_model(model, rng):
    # eps(-omega) must equal conj(eps(omega)) at 100 random samples
    omegas = rng.uniform(0.05, 8.0, size=100)
    pos = model.eval(omegas)
    neg = model.eval(-omegas)
    assert np.max(np.abs(neg - np.conj(pos))) <= 1e-12


def test_drude_lorentz_literal_value():
    model = DrudeLorentz(eps_inf=2.0, poles=[(1.3, 0.9, 0.2)])
    w = 1.7
    expect = 2.0 + 1.3**2 / (0.9**2 - w**2 - 1j * 0.2 * w)
    assert abs(model.eval(w) - expect) < 1e-15


def test_drude_limit_requires_nonzero_frequency():
    model = DrudeLorentz(eps_inf=1.0, poles=[(1.0, 0.0, 0.1)])
    with pytest.raises(ValueError):
        model.eval(0.0)


def test_gain_rejected():
    with pytest.raises(ValueError):
        ConstantScalar(1.0 - 0.2j)
    with pytest.raises(ValueError):
        DrudeLorentz(poles=[(1.0, 1.0, -0.1)])


# -- thermal occupation --------------------------------------------------------


def test_thermal_occupation_planck_formula():
    w, t = 1.3, 0.7
    expect = 1.0 / (np.exp(w / t) - 1.0)
    assert abs(thermal_occupation(w, t) - expect) < 1e-14


def test_thermal_occupation_zero_temperature_is_exact_zero():
    assert thermal_occupation(2.0, 0.0) == 0.0


def test_thermal_occupation_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        thermal_occupation(0.0, 1.0)


# -- atom ------------------------------------------------------------------


def test_atom_validation():
    with pytest.raises(ValueError):
        TwoLevelAtom(position=[0, 0, 0], dipole=[0, 0, 0.1], omega0=-1.0)
    with pytest.raises(ValueError):
        TwoLevelAtom(position=[0, 0, 0], dipole=[0, 0, 0], omega0=1.0)
    with pytest.raises((TypeError, ValueError)):
        TwoLevelAtom(position=[0, 0, 0], dipole=[0, 0, 0.1 + 0.2j], omega0=1.0)


def test_drive_defaults_and_detuning():
    atom = TwoLevelAtom(position=[0, 0, 0], dipole=[0, 0, 0.1], omega0=1.0,
                        drive=Drive(omega_L=0.9, rabi=0.02))
    assert atom.drive.omega_L == 0.9
    undriven = TwoLevelAtom(position=[0, 0, 0], dipole=[0, 0, 0.1], omega0=1.0)
    assert undriven.drive is None
