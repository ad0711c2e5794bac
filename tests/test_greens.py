"""Green tensor backends: frozen oracle values, reciprocity, Schwarz
reflection, backend cross-validation, coincidence behavior.

The frozen tensors below come from an independent finite-difference oracle:
G = [I + grad grad / k^2] e^{ik rho}/(4 pi rho) with Richardson-extrapolated
central second differences (h = 2e-4), accurate to ~1e-9 relative.
"""

import numpy as np
import pytest
from scipy import special

from greenmodes import (
    BulkClosedForm,
    BulkSommerfeld,
    CavityModeSum,
    ConstantScalar,
    DrudeLorentz,
    QuadratureSpec,
    bulk_green,
    bulk_green_sommerfeld,
    cavity_green,
    im_green_coincidence,
    wavenumber,
)
from greenmodes.greens import _bessel_dyad

SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=4000)

# frozen: eps = 2 + 0.5j, omega = 1.3, r = (0.9, 0.4, -0.5), r0 = (0.1, -0.2, 0.3)
G_LOSSY = np.array([
    [-1.848265157650e-02 + 2.293756661596e-02j,
     1.925266946646e-02 + 7.314519217924e-03j,
     -2.567022597189e-02 - 9.752692332747e-03j],
    [1.925266946646e-02 + 7.314519217924e-03j,
     -2.971337543225e-02 + 1.867076379282e-02j,
     -1.925266946646e-02 - 7.314519217924e-03j],
    [-2.567022597189e-02 - 9.752692332747e-03j,
     -1.925266946646e-02 - 7.314519217924e-03j,
     -1.848265157650e-02 + 2.293756661596e-02j]])

# frozen: eps = 1, omega = 2.0, r = (0.7, -0.3, 0.2), r0 = (0.0, 0.1, -0.4)
G_VACUUM = np.array([
    [-4.890141721444e-03 + 5.260688119328e-02j,
     -3.205746200723e-02 - 8.816483679548e-03j,
     4.808619303072e-02 + 1.322472557353e-02j],
    [-3.205746200723e-02 - 8.816483679548e-03j,
     -4.267215037015e-02 + 4.221602532368e-02j,
     -2.747782455039e-02 - 7.556985995811e-03j],
    [4.808619303072e-02 + 1.322472557353e-02j,
     -2.747782455039e-02 - 7.556985995811e-03j,
     -1.977396328382e-02 + 4.851351371526e-02j]])


def test_bulk_green_frozen_lossy():
    g = bulk_green(np.array([0.9, 0.4, -0.5]), np.array([0.1, -0.2, 0.3]),
                   1.3, 2.0 + 0.5j)
    assert np.max(np.abs(g - G_LOSSY)) < 1e-6 * np.max(np.abs(G_LOSSY))


def test_bulk_green_frozen_vacuum():
    g = bulk_green(np.array([0.7, -0.3, 0.2]), np.array([0.0, 0.1, -0.4]),
                   2.0, 1.0)
    assert np.max(np.abs(g - G_VACUUM)) < 1e-6 * np.max(np.abs(G_VACUUM))


def test_wavenumber_branch():
    k = wavenumber(1.0, 2.0 + 0.5j)
    assert k.imag > 0.0
    # lossless: real positive root
    k0 = wavenumber(3.0, 4.0)
    assert abs(k0 - 6.0) < 1e-14


def test_coincidence_raises_and_formula():
    with pytest.raises(ValueError):
        bulk_green(np.zeros(3), np.zeros(3), 1.0, 1.0)
    with pytest.raises(ValueError):
        im_green_coincidence(1.0, 1.0 + 0.2j)
    v = im_green_coincidence(1.7, 2.25)
    expect = 1.5 * 1.7 / (6.0 * np.pi) * np.eye(3)
    assert np.max(np.abs(v - expect)) < 1e-15


def test_im_green_smooth_at_small_separation():
    # lossless Im G tends to the coincidence value as rho -> 0
    w, eps = 1.0, 1.0
    target = im_green_coincidence(w, eps)[1, 1]
    r0 = np.zeros(3)
    vals = []
    for rho in (1e-2, 1e-3):
        g = bulk_green(np.array([rho, 0, 0]), r0, w, eps)
        vals.append(g.imag[1, 1])
    # quadratic approach: the smaller separation must sit ~100x closer
    assert abs(vals[1] - target) < 1e-6 * target
    assert abs(vals[0] - target) < 1e-4


def make_backends():
    eps = ConstantScalar(2.0 + 0.4j)
    return [
        BulkClosedForm(eps),
        BulkSommerfeld(eps, spec=SPEC),
    ]


def random_pair(rng):
    r = rng.uniform(-0.8, 0.8, size=3)
    r0 = rng.uniform(-0.8, 0.8, size=3)
    # keep a finite axial gap: the planar decomposition is conditionally
    # convergent at dz = 0
    if abs(r[2] - r0[2]) < 0.15:
        r[2] = r0[2] + np.sign(r[2] - r0[2] or 1.0) * 0.25
    return r, r0


def test_reciprocity_bulk_backends(rng):
    for backend in make_backends():
        for _ in range(4):
            r, r0 = random_pair(rng)
            a = backend.evaluate(r, r0, 1.1)
            b = backend.evaluate(r0, r, 1.1)
            assert np.max(np.abs(a - b.T)) < 1e-8 * np.max(np.abs(a))


def test_reciprocity_mode_sum(cube_modeset, rng):
    backend = CavityModeSum(cube_modeset, eta=1e-3)
    for _ in range(4):
        r = rng.uniform(0.1, 0.9, size=3)
        r0 = rng.uniform(0.1, 0.9, size=3)
        a = backend.evaluate(r, r0, 5.0)
        b = backend.evaluate(r0, r, 5.0)
        assert np.max(np.abs(a - b.T)) < 1e-12 * np.max(np.abs(a))


def test_schwarz_reflection_all_backends(cube_modeset, rng):
    # G(-omega) = conj(G(omega)) at real frequency
    bulks = make_backends()
    r, r0 = random_pair(rng)
    for backend in bulks:
        a = backend.evaluate(r, r0, 1.3)
        b = backend.evaluate(r, r0, -1.3)
        assert np.max(np.abs(b - np.conj(a))) < 1e-8 * np.max(np.abs(a))
    ms = CavityModeSum(cube_modeset, eta=1e-3)
    rc = rng.uniform(0.2, 0.8, size=3)
    r0c = rng.uniform(0.2, 0.8, size=3)
    a = ms.evaluate(rc, r0c, 6.0)
    b = ms.evaluate(rc, r0c, -6.0)
    assert np.max(np.abs(b - np.conj(a))) < 1e-12 * np.max(np.abs(a))


def test_sommerfeld_matches_closed_form(rng):
    # entrywise relative agreement on random lossy pairs
    eps = ConstantScalar(1.8 + 0.6j)
    closed = BulkClosedForm(eps)
    somm = BulkSommerfeld(eps, spec=SPEC)
    worst = 0.0
    for _ in range(5):
        r, r0 = random_pair(rng)
        a = closed.evaluate(r, r0, 1.4)
        b = somm.evaluate(r, r0, 1.4)
        worst = max(worst, np.max(np.abs(a - b)) / np.max(np.abs(a)))
    assert worst < 1e-6, worst


def test_sommerfeld_function_wrapper():
    g = bulk_green_sommerfeld(np.array([0.3, -0.2, 0.6]),
                              np.array([-0.1, 0.1, 0.1]),
                              1.2, 2.0 + 0.3j, spec=SPEC)
    ref = bulk_green(np.array([0.3, -0.2, 0.6]), np.array([-0.1, 0.1, 0.1]),
                     1.2, 2.0 + 0.3j)
    assert np.max(np.abs(g - ref)) < 1e-6 * np.max(np.abs(ref))


def test_mode_sum_requires_eta_for_imaginary_part(cube_modeset):
    sharp = CavityModeSum(cube_modeset, eta=0.0)
    with pytest.raises(ValueError):
        sharp.im_coincidence(np.array([0.4, 0.5, 0.6]))


def test_mode_sum_coincidence_overflowing_eta_raises(cube_modeset):
    # (eta omega)^2 overflows a double: an error naming eta, not a
    # Lorentzian silently rounded to zero
    huge = CavityModeSum(cube_modeset, eta=1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="eta"):
        huge.im_coincidence(np.array([0.4, 0.5, 0.6]))(np.array([2.0, 5.0]))


def test_mode_sum_coincidence_passivity(cube_modeset):
    # softened mode sum: Im G(r, r, w) is PSD for every sampled frequency
    backend = CavityModeSum(cube_modeset, eta=1e-2)
    im_g = backend.im_coincidence(np.array([0.43, 0.51, 0.47]))
    for w in np.linspace(2.0, 0.95 * cube_modeset.omega_top, 7):
        m = im_g(w)
        eig = np.linalg.eigvalsh(0.5 * (m + m.T.conj()))
        assert eig.min() >= -1e-12 * max(abs(eig).max(), 1e-30)


@pytest.mark.parametrize("backend_name", ["bulk", "mode_sum"])
def test_im_coincidence_batched_equals_scalar_calls(backend_name,
                                                    cube_modeset):
    if backend_name == "bulk":
        backend = BulkClosedForm(DrudeLorentz(2.25, [(0.8, 3.0, 0.0)]))
        omegas = np.linspace(0.1, 2.5, 9)
    else:
        backend = CavityModeSum(cube_modeset, eta=1e-2)
        omegas = np.linspace(2.0, 0.95 * cube_modeset.omega_top, 9)
    im_g = backend.im_coincidence(np.array([0.43, 0.51, 0.47]))
    batched = im_g(omegas)
    assert batched.shape == (9, 3, 3)
    stacked = np.stack([im_g(w) for w in omegas])
    assert im_g(omegas[3]).shape == (3, 3)
    scale = np.max(np.abs(stacked), axis=(1, 2))
    assert np.all(np.max(np.abs(batched - stacked), axis=(1, 2))
                  <= 1e-13 * scale)


@pytest.mark.parametrize("backend_name", ["closed_form", "sommerfeld",
                                          "mode_sum"])
def test_evaluate_batched_equals_scalar_calls(backend_name, cube_modeset):
    # an array of frequencies is one call; the bulk backends loop over it,
    # the mode sum builds its line sums once (a GEMM for the GEMV rows)
    r, r0 = np.array([0.3, 0.6, 0.5]), np.array([0.5, 0.4, 0.15])
    omegas = np.array([0.7, 1.3, 2.1])
    if backend_name == "mode_sum":
        backend, tol = CavityModeSum(cube_modeset, eta=1e-2), 1e-13
        omegas = omegas * 3.0
    else:
        eps = DrudeLorentz(2.25, [(0.8, 3.0, 0.1)])
        backend, tol = (BulkClosedForm(eps) if backend_name == "closed_form"
                        else BulkSommerfeld(eps, spec=SPEC)), 0.0
    batched = backend.evaluate(r, r0, omegas)
    assert batched.shape == (3, 3, 3)
    stacked = np.stack([backend.evaluate(r, r0, w) for w in omegas])
    assert backend.evaluate(r, r0, omegas[1]).shape == (3, 3)
    scale = np.max(np.abs(stacked), axis=(1, 2))
    assert np.all(np.max(np.abs(batched - stacked), axis=(1, 2))
                  <= tol * scale)


def test_im_coincidence_batched_rejects_bad_input(cube_modeset):
    r = np.array([0.43, 0.51, 0.47])
    omegas = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        CavityModeSum(cube_modeset, eta=0.0).im_coincidence(r)(omegas)
    vacuum = BulkClosedForm(ConstantScalar(1.0)).im_coincidence(r)
    with pytest.raises(ValueError):
        vacuum(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        vacuum(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        BulkClosedForm(ConstantScalar(2.0 + 0.1j)).im_coincidence(r)(omegas)


def test_cavity_green_function_wrapper(cube_modeset):
    r = np.array([0.3, 0.6, 0.5])
    r0 = np.array([0.5, 0.4, 0.55])
    g1 = cavity_green(r, r0, 5.0, cube_modeset, eta=1e-3)
    g2 = CavityModeSum(cube_modeset, eta=1e-3).evaluate(r, r0, 5.0)
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("fixture", ["cube_modeset", "box_modeset"])
def test_mode_sum_matches_per_mode_reference(fixture, request):
    # degenerate modes share one denominator: the merged lines must give
    # the plain per-mode sum (1 / denom_k) @ (E_k E_k^T) to rounding;
    # both sides round sums of up to 540 terms, about sqrt(540) eps of
    # the absolute sum, so the bound is 32 eps of it
    modeset = request.getfixturevalue(fixture)
    assert np.unique(modeset.omegas).size < len(modeset)
    r = np.array([0.31, 0.62, 0.44])
    r0 = np.array([0.52, 0.38, 0.57])
    omegas = np.linspace(2.1, 0.9 * modeset.omega_top, 23)

    def per_mode(a, b, lines):
        pairs = (modeset.eval_all(a)[:, :, None]
                 * modeset.eval_all(b)[:, None, :]).reshape(-1, 9)
        terms = lines @ pairs
        scale = np.abs(lines) @ np.abs(pairs)
        return terms.reshape(-1, 3, 3), scale.reshape(-1, 3, 3)

    eps = np.finfo(float).eps
    w = omegas[:, None]
    for eta in (0.0, 1e-3):
        want, scale = per_mode(
            r, r0, 1.0 / (modeset.omegas**2 - w**2 - 1j * eta * w))
        got = cavity_green(r, r0, omegas, modeset, eta=eta)
        assert np.all(np.abs(got - want) <= 32.0 * eps * scale)
    eta = 1e-2
    x = eta * w
    want, scale = per_mode(r, r, x / ((modeset.omegas**2 - w**2) ** 2 + x * x))
    got = CavityModeSum(modeset, eta=eta).im_coincidence(r)(omegas)
    assert np.all(np.abs(got - want) <= 32.0 * eps * scale)


def test_mode_sum_outside_box_raises(cube_modeset):
    backend = CavityModeSum(cube_modeset, eta=1e-3)
    with pytest.raises(ValueError):
        backend.evaluate(np.array([1.2, 0.5, 0.5]), np.array([0.5, 0.5, 0.5]), 5.0)


def test_bessel_dyad_j2_matches_jv():
    # with k_perp = 0 the xx and yy entries are pi (J0 + J2) and
    # pi (J0 - J2), so J2 is their half difference over pi; alpha = 0 is
    # zero lateral separation, where J2 must be exactly 0
    rng = np.random.default_rng(2)
    alpha = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 500.0, 5001),
                            rng.uniform(0.0, 500.0, 20000)])
    dyad = _bessel_dyad(alpha, np.zeros_like(alpha), 1.0, 1.0, 1.0)
    j2 = (dyad[:, 0, 0] - dyad[:, 1, 1]).real / (2.0 * np.pi)
    assert j2[0] == 0.0
    assert np.max(np.abs(j2 - special.jv(2, alpha))) <= 2e-15
