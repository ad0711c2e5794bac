"""Quadrature engines and the Volterra substrate.

Reference values marked "frozen" were produced by an independent
scipy-based oracle (quad / quad weight='cauchy') and pasted here as
literals; the suite must not regenerate them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from greenmodes import (
    ConvergenceError,
    QuadratureSpec,
    SpectralDensity,
    TailTruncationWarning,
    bath_correlations,
    integrate_adaptive,
    integrate_pv,
    solve_volterra,
    sommerfeld_radial,
    volterra_march,
)
from greenmodes import numerics
from greenmodes.numerics import (
    fourier_table,
    gauss_legendre,
    phase_sum,
)

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)

# frozen: int_0^5 x^2 exp(-x) sin(3x) dx
I1_REF = -1.943390739218870e-03
# frozen: PV int_0^4 exp(x/3)/(x - 1.37) dx
I2_REF = 3.433800163009548e+00
# frozen: int_0^inf exp(-x/20) J0(2x) x/(x^2+4) dx
I4_REF = 1.294393195284186e-02
# frozen: int_0^6 x^2 exp(-x) exp(-7.3 i x) dx
I5_REF = -5.278234479565019e-03 + 1.632083986227809e-02j


def test_adaptive_matches_frozen_reference():
    val, err = integrate_adaptive(
        lambda x: x**2 * np.exp(-x) * np.sin(3.0 * x), 0.0, 5.0, TIGHT)
    assert abs(val - I1_REF) < 5e-13
    assert abs(val - I1_REF) <= err + 1e-13


def test_adaptive_vector_integrand():
    # rows integrate independently in one pass
    f = lambda x: np.stack([np.sin(x), np.cos(x)], axis=-1)
    val, _ = integrate_adaptive(f, 0.0, np.pi / 2, TIGHT)
    assert np.allclose(val, [1.0, 1.0], atol=1e-12)


def test_adaptive_linearity(rng):
    # integrate(a f + b g) == a integrate(f) + b integrate(g)
    for _ in range(5):
        pf = rng.normal(size=4)
        pg = rng.normal(size=4)
        alpha, beta = rng.normal(size=2)
        f = lambda x: np.polyval(pf, x)
        g = lambda x: np.polyval(pg, x)
        both = lambda x: alpha * f(x) + beta * g(x)
        vf, _ = integrate_adaptive(f, -1.0, 2.0, TIGHT)
        vg, _ = integrate_adaptive(g, -1.0, 2.0, TIGHT)
        vb, _ = integrate_adaptive(both, -1.0, 2.0, TIGHT)
        assert abs(vb - (alpha * vf + beta * vg)) < 1e-11 * max(1.0, abs(vb))


def test_adaptive_deterministic_bitwise():
    f = lambda x: np.exp(-x) / (1.0 + 25.0 * x**2)
    v1, e1 = integrate_adaptive(f, 0.0, 10.0, TIGHT)
    v2, e2 = integrate_adaptive(f, 0.0, 10.0, TIGHT)
    assert v1 == v2 and e1 == e2


def test_adaptive_budget_exhaustion_raises_with_estimate():
    spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=8)
    f = lambda x: np.abs(x - np.sqrt(2.0) / 2.0) ** 0.3
    with pytest.raises(ConvergenceError) as exc:
        integrate_adaptive(f, 0.0, 1.0, spec)
    assert exc.value.estimate is not None
    assert exc.value.error_bound > 0.0


def test_adaptive_non_finite_integrand_raises_in_its_round():
    # a NaN beyond x = 0.5 is reported at its node after the first call,
    # not bisected up to the panel limit
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x > 0.5, np.nan, x)

    with pytest.raises(ConvergenceError) as exc:
        integrate_adaptive(f, 0.0, 1.0, QuadratureSpec())
    assert calls == [15]
    first = 0.5 * (1.0 + numerics._NODES[numerics._NODES > 0.0][0])
    assert str(exc.value).endswith("not finite at x = %.17g" % first)


def test_adaptive_makes_one_integrand_call_per_round():
    eta = 1e-3
    calls = []

    def f(x):
        calls.append(x.size)
        return eta / ((x - 1.0) ** 2 + eta**2)

    val, _ = integrate_adaptive(f, 0.0, 2.0, QuadratureSpec())
    assert abs(val - 2.0 * np.arctan(1.0 / eta)) <= 1e-12
    assert len(calls) <= 15


def test_adaptive_wide_round_is_evaluated_in_slices():
    # cos(20 x) on [0, 10] bisects every panel for several rounds, so
    # one round holds more panels than a single integrand call takes
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.cos(20.0 * x)

    val, _ = integrate_adaptive(f, 0.0, 10.0, TIGHT)
    assert abs(val - np.sin(200.0) / 20.0) < 1e-12
    assert max(sizes) == 15 * numerics._ROUND_PANELS
    assert len(sizes) > len(set(sizes))


def test_pv_matches_frozen_reference():
    val, err = integrate_pv(lambda x: np.exp(x / 3.0), 1.37, 0.0, 4.0, TIGHT)
    assert abs(val - I2_REF) < 1e-12
    assert abs(val - I2_REF) <= err + 1e-13


def test_pv_matches_cauchy_weight_quadrature_on_a_narrow_lorentzian():
    # independent reference: QUADPACK's QAWC (quad with weight='cauchy');
    # the numerator peaks 0.44 above the pole with half width 1e-2, the
    # shape of a softened cavity line near a transition frequency
    from scipy import integrate

    c, a, b, peak, width = 4.0, 0.0, 8.0, 4.44, 1e-2

    def g(x):
        return width / ((x - peak) ** 2 + width**2)

    ref = integrate.quad(g, a, b, weight="cauchy", wvar=c, epsabs=0.0,
                         epsrel=1e-13, limit=2000)[0]
    val, err = integrate_pv(g, c, a, b)
    assert abs(val - ref) <= 1e-12 * abs(ref)
    assert err < 1e-9


def test_pv_reduces_to_adaptive_for_removable_pole():
    # numerator vanishing at the pole: PV == plain adaptive integral
    pv, _ = integrate_pv(lambda x: np.sin(x - 2.0), 2.0, 0.5, 4.0, TIGHT)
    plain, _ = integrate_adaptive(lambda x: np.sin(x - 2.0) / (x - 2.0),
                                  0.5, 4.0, TIGHT)
    assert abs(pv - plain) < 1e-12


def test_pv_odd_integrand_is_zero():
    val, _ = integrate_pv(np.ones_like, 1.0, 0.0, 2.0, TIGHT)
    assert abs(val) < 1e-14


def test_pv_node_on_the_pole_counts_zero():
    # an interval at the width floor: Kronrod nodes round onto the pole,
    # where the subtracted integrand is 0/0; they must count 0
    c = 1.0
    a, b = c - 1e-15, c + 1e-15
    on_pole = []

    def g(x):
        on_pole.append(int(np.sum(x == c)))
        return np.exp(x)

    val, _ = integrate_pv(g, c, a, b, TIGHT)
    assert sum(on_pole[1:]) > 0
    assert abs(val - np.e * np.log((b - c) / (c - a))) < 1e-13


def _polynomial_pv(coef, c, a, b):
    """PV int_a^b p(x)/(x - c) dx in closed form, p = sum coef[k] x^k:
    with p(x) = sum d_k (x - c)^k, the regular part integrates term by
    term and the pole contributes p(c) ln((b - c)/(c - a))."""
    d = np.polynomial.Polynomial(coef)(np.polynomial.Polynomial([c, 1.0])).coef
    k = np.arange(1, d.size)
    regular = np.sum(d[1:] * ((b - c) ** k - (a - c) ** k) / k)
    return regular + d[0] * np.log((b - c) / (c - a))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    coef=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7),
    a=st.floats(-3.0, 2.0),
    width=st.floats(0.5, 5.0),
    frac=st.floats(0.05, 0.95),
)
def test_pv_matches_closed_form_for_random_polynomials(coef, a, width, frac):
    # the subtracted integrand of a degree <= 6 numerator is a polynomial
    # of degree <= 5, which one Kronrod panel integrates exactly
    b = a + width
    c = a + frac * width
    p = np.polynomial.Polynomial(coef)
    val, err = integrate_pv(p, c, a, b, TIGHT)
    exact = _polynomial_pv(coef, c, a, b)
    scale = np.max(np.abs(coef)) * max(1.0, abs(a), abs(b)) ** 6
    assert abs(val - exact) <= 1e-12 * max(scale, abs(exact)) + 1e-12
    assert err >= 0.0


def test_pv_two_component_integrand_matches_closed_form():
    c, a, b = 1.3, -0.7, 2.9
    coefs = ([0.4, -1.1, 0.3, 2.0], [1.5, 0.0, -0.8, 0.1, 0.6, -0.2, 0.05])
    polys = [np.polynomial.Polynomial(q) for q in coefs]
    val, _ = integrate_pv(
        lambda x: np.stack([p(x) for p in polys], axis=1), c, a, b, TIGHT)
    assert val.shape == (2,)
    for v, q in zip(val, coefs):
        exact = _polynomial_pv(q, c, a, b)
        assert abs(v - exact) <= 1e-12 * max(1.0, abs(exact))


def test_pv_pole_outside_interval_raises():
    with pytest.raises(ValueError):
        integrate_pv(np.ones_like, 5.0, 0.0, 2.0, TIGHT)


def test_sommerfeld_radial_frozen_reference():
    f = lambda x: np.exp(-x / 20.0) * special.j0(2.0 * x) * x / (x**2 + 4.0)
    # branch point at k=1 is inside; integrand decays on its own
    val, err = sommerfeld_radial(f, 1.0 + 0.0j, 800.0, TIGHT)
    assert abs(val - I4_REF) < 5e-8


def test_sommerfeld_radial_tail_warning():
    f = lambda x: 1.0 / (1.0 + x)
    with pytest.warns(TailTruncationWarning):
        sommerfeld_radial(f, 1.0 + 0.0j, 50.0, QuadratureSpec())


def test_sommerfeld_radial_rejects_bad_args():
    f = lambda x: np.exp(-x)
    with pytest.raises(ValueError):
        sommerfeld_radial(f, 2.0 - 0.1j, 50.0)
    with pytest.raises(ValueError):
        sommerfeld_radial(f, 2.0, 1.0)


def test_gauss_legendre_rules_are_cached_and_read_only():
    x, w = gauss_legendre(24)
    ref_x, ref_w = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert gauss_legendre(24)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_fourier_table_frozen_reference():
    taus = np.array([0.0, 7.3])
    got = fourier_table(lambda x: x**2 * np.exp(-x), 0.0, 6.0, taus)
    assert abs(got[1] - I5_REF) < 1e-10
    # tau = 0 row is the plain integral of the weight
    plain, _ = integrate_adaptive(lambda x: x**2 * np.exp(-x), 0.0, 6.0, TIGHT)
    assert abs(got[0] - plain) < 1e-10


def test_fourier_table_rotation_is_phase_shift():
    taus = np.linspace(0.0, 9.0, 7)
    w = lambda x: np.exp(-((x - 2.0) ** 2))
    plain = fourier_table(w, 0.0, 5.0, taus)
    rot = fourier_table(w, 0.0, 5.0, taus, rotation=1.4)
    assert np.max(np.abs(rot - plain * np.exp(1j * 1.4 * taus))) < 1e-10


def test_fourier_table_edge_hints_resolve_narrow_line():
    # Lorentzian of width eta: uniform phase-bounded panels miss it, panel
    # edges clustered at the line restore the quadrature
    eta = 1e-4
    w0 = 3.0
    w = lambda x: (eta / np.pi) / ((x - w0) ** 2 + eta**2)
    taus = np.array([2.5])
    hints = w0 + eta * np.array([-1e3, -200.0, -50.0, -10.0, -3.0, 0.0,
                                 3.0, 10.0, 50.0, 200.0, 1e3])
    got = fourier_table(w, 0.0, 6.0, taus, edge_hints=hints)[0]
    # narrow-line limit: exp(-i w0 tau) with envelope exp(-eta tau)
    expect = np.exp(-1j * w0 * 2.5) * np.exp(-eta * 2.5)
    assert abs(got - expect) < 2e-3
    # hints outside (a, b) must be ignored, not crash
    out = fourier_table(w, 0.0, 6.0, taus,
                        edge_hints=np.array([-5.0, 100.0, 3.0]))
    assert np.isfinite(out).all()


def test_phase_sum_blocks_match_dense_product(rng):
    # 4096-row blocks: rows either side of the first boundary must equal
    # the unblocked product, and two weight columns equal two single calls
    taus = np.linspace(0.0, 30.0, 4100)
    nu = rng.uniform(-2.0, 2.0, size=37)
    w = rng.normal(size=(37, 2)) + 1j * rng.normal(size=(37, 2))
    got = phase_sum(taus, nu, w[:, 0])
    dense = np.exp(-1j * np.outer(taus, nu)) @ w[:, 0]
    rows = slice(4090, 4100)
    scale = np.max(np.abs(dense[rows]))
    assert np.max(np.abs(got[rows] - dense[rows])) <= 1e-14 * scale
    both = phase_sum(taus, nu, w)
    assert both.shape == (4100, 2)
    for col in range(2):
        single = phase_sum(taus, nu, w[:, col])
        scale = np.max(np.abs(single))
        assert np.max(np.abs(both[:, col] - single)) <= 1e-14 * scale


def _phase_sum_long_double(taus, nu, weights):
    """exp(-i outer(taus, nu)) @ weights in np.longdouble arithmetic."""
    ph = np.multiply.outer(taus.astype(np.longdouble), nu.astype(np.longdouble))
    c, s = np.cos(ph), np.sin(ph)
    wr = weights.real.astype(np.longdouble)
    wi = weights.imag.astype(np.longdouble)
    return c @ wr + s @ wi, c @ wi - s @ wr


# phase_sum and the dense product must both stay within
# PHASE_SUM_C * eps * max(1, max|tau nu|) * sum|w| of the long-double
# value: each phase is rounded at ~eps |tau nu|, each sum at ~eps sum|w|
PHASE_SUM_C = 4.0


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    n=st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 300)),
    t0=st.sampled_from([-37.5, 0.0, 12.25]),
    h=st.floats(1e-3, 0.5),
    n_nu=st.integers(1, 30),
    repeats=st.booleans(),
    n_cols=st.sampled_from([0, 1, 2]),
    jitter=st.sampled_from([0.0, 1e-11, 0.3]),
    block=st.sampled_from([4, 4096]),
    seed=st.integers(0, 2**32 - 1),
)
def test_phase_sum_matches_long_double_reference(n, t0, h, n_nu, repeats,
                                                 n_cols, jitter, block, seed):
    # uniform grids either side of zero, sizes 1-3 and non-square n, base
    # rows above block, one or two weight columns; a 1e-11 jitter keeps
    # the factored path with its first-order delay term, a 0.3 h jitter
    # makes the grid non-uniform; with repeats the lines are drawn from
    # a pool of ceil(n_nu / 2) frequencies, as in a degenerate spectrum
    rng = np.random.default_rng(seed)
    taus = t0 + h * np.arange(n) + jitter * h * rng.uniform(-1.0, 1.0, n)
    nu = rng.uniform(-20.0, 20.0, (n_nu + 1) // 2 if repeats else n_nu)
    if repeats:
        nu = rng.choice(nu, n_nu)
    shape = (n_nu,) + ((n_cols,) if n_cols else ())
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = phase_sum(taus, nu, w, block=block)
    assert got.shape == (n,) + shape[1:]
    dense = np.exp(-1j * np.outer(taus, nu)) @ w
    re, im = _phase_sum_long_double(taus, nu, w)
    eps = np.finfo(float).eps
    bound = PHASE_SUM_C * eps * max(1.0, float(np.max(np.abs(
        np.outer(taus, nu))))) * np.sum(np.abs(w), axis=0)
    for approx in (got, dense):
        err = np.hypot((approx.real - re).astype(float),
                       (approx.imag - im).astype(float))
        assert np.all(err <= bound)


@pytest.mark.parametrize("n_cols", [0, 2])
def test_phase_sum_transforms_every_node_given(rng, n_cols):
    # phase_sum transforms the nodes it is given: repeated frequencies
    # in shuffled order are not merged, and the result equals the
    # transform of the distinct lines with their weights summed, and the
    # dense product, to rounding
    lines = np.sort(rng.uniform(-5.0, 5.0, 9))
    group = rng.permutation(np.repeat(np.arange(9), rng.integers(1, 5, 9)))
    shape = (group.size,) + ((n_cols,) if n_cols else ())
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    summed = np.zeros((9,) + shape[1:], dtype=complex)
    for g, row in zip(group, w):
        summed[g] += row
    taus = np.linspace(0.0, 40.0, 1001)
    got = phase_sum(taus, lines[group], w)
    assert got.shape == taus.shape + shape[1:]
    eps = np.finfo(float).eps
    bound = PHASE_SUM_C * eps * np.sum(np.abs(w), axis=0)
    assert np.all(np.abs(got - phase_sum(taus, lines, summed)) <= bound)
    dense = np.exp(-1j * np.outer(taus, lines[group])) @ w
    # the dense product rounds each phase, |tau nu| <= 200
    assert np.all(np.abs(got - dense) <= 200.0 * bound)


def test_phase_sum_phases_are_exact_on_a_uniform_grid(rng):
    # |tau nu| reaches 6000: rounding each phase, as the dense product
    # does, costs ~300 eps sum|w| here; the error-free phase products
    # keep phase_sum at rounding of the sum alone
    taus = np.linspace(0.0, 300.0, 4001)
    nu = rng.uniform(-20.0, 20.0, 40)
    w = rng.normal(size=40) + 1j * rng.normal(size=40)
    re, im = _phase_sum_long_double(taus, nu, w)
    got = phase_sum(taus, nu, w)
    err = np.hypot((got.real - re).astype(float), (got.imag - im).astype(float))
    assert np.max(err) <= 8.0 * np.finfo(float).eps * np.sum(np.abs(w))


# -- grid and volterra -----------------------------------------------------


def flat_kernel_solution(g, ts):
    # y' = int K y with K = -g^2 (constant): y = cos(g t)
    return np.cos(g * ts)


def test_volterra_flat_kernel_cosine():
    g = 1.0
    ts = np.linspace(0.0, 10.0, 4001)
    kern = np.full(ts.size, -(g**2), dtype=complex)
    y = volterra_march(kern, 10.0 / 4000)
    err = np.max(np.abs(y - flat_kernel_solution(g, ts)))
    assert err < 1e-4


def test_volterra_oscillating_kernel_closed_form():
    # K(t) = -g^2 cos(nu t)  ->  y = (nu^2 + g^2 cos(W t)) / W^2, W^2 = nu^2 + g^2
    g, nu = 1.3, 0.7
    ts = np.linspace(0.0, 12.0, 6001)
    kern = -(g**2) * np.cos(nu * ts).astype(complex)
    y = volterra_march(kern, 12.0 / 6000)
    w2 = nu**2 + g**2
    exact = (nu**2 + g**2 * np.cos(np.sqrt(w2) * ts)) / w2
    assert np.max(np.abs(y - exact)) < 1e-4


def test_volterra_second_order_convergence():
    g = 1.0
    errs = []
    for n in (1000, 2000):
        ts = np.linspace(0.0, 10.0, n + 1)
        kern = np.full(ts.size, -(g**2), dtype=complex)
        y = volterra_march(kern, 10.0 / n)
        errs.append(np.max(np.abs(y - flat_kernel_solution(g, ts))))
    assert errs[0] / errs[1] >= 3.5


def test_volterra_blowup_guard():
    kern = np.full(801, +4.0, dtype=complex)  # growing solution
    with pytest.raises(RuntimeError):
        volterra_march(kern, 40.0 / 800)


def test_volterra_input_validation():
    with pytest.raises(ValueError):
        volterra_march(np.zeros((3, 3), dtype=complex), 0.1)
    with pytest.raises(ValueError):
        volterra_march(np.zeros(1, dtype=complex), 0.1)


def _recurrence_long_double(kernel, h, y0=1.0):
    """Forward substitution of the march's Toeplitz recurrence in long
    double: y_1 from the explicit step, then for m >= 2
    y_m = sum_{j=1}^{m-1} a_{m-j} y_j + (y0/2)(beta h K_{m-1} + gamma K_m)
    with alpha = 1 + h^2 K_0/4, beta = h/2 + h^3 K_0/4, gamma = h^2/2,
    a_1 = alpha + beta h K_0/2 + gamma K_1, a_p = beta h K_{p-1} + gamma K_p."""
    k = np.asarray(kernel).astype(np.clongdouble)
    h = np.longdouble(h)
    n = k.size - 1
    alpha = 1 + h * h * k[0] / 4
    beta = h / 2 + h**3 * k[0] / 4
    gamma = h * h / 2
    a = beta * h * k[:-1] + gamma * k[1:]  # a[p - 1] = a_p
    a[0] = alpha + beta * h * k[0] / 2 + gamma * k[1]
    y = np.zeros(n + 1, dtype=np.clongdouble)
    y[0] = y0
    y[1] = y0 * (1 + h * h * (k[0] + k[1]) / 4)
    for m in range(2, n + 1):
        y[m] = (np.dot(a[m - 2::-1], y[1:m])
                + y0 / 2 * (beta * h * k[m - 1] + gamma * k[m]))
    return y


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.sampled_from([2, 3, 127, 128, 129, 257, 1000]),
    kind=st.sampled_from(["decaying", "oscillating", "flat"]),
    g=st.floats(0.1, 2.0),
    rate=st.floats(0.0, 3.0),
    h=st.floats(1e-3, 0.05),
)
def test_volterra_toeplitz_solve_matches_long_double_recurrence(n, kind, g,
                                                                rate, h):
    # grids of 2, 3 and 1000 nodes cross the 128-row leaves and the
    # divide-and-conquer splits on either side
    t = h * np.arange(n + 1)
    shape = {"decaying": np.exp(-rate * t),
             "oscillating": np.exp(-1j * rate * t),
             "flat": np.ones_like(t)}[kind]
    kern = -(g**2) * shape.astype(complex)
    y = volterra_march(kern, h)
    ref = _recurrence_long_double(kern, h)
    err = np.abs((y - ref).astype(np.clongdouble)).astype(float)
    assert np.max(err) <= 1e-13 * float(np.max(np.abs(ref)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_volterra_non_finite_kernel_names_its_step(bad):
    kern = np.full(1001, -1.0, dtype=complex)
    kern[300] = bad
    with pytest.raises(RuntimeError, match="step 300"):
        volterra_march(kern, 0.01)


def test_volterra_blowup_names_first_divergent_step():
    # cosh(0.2 t) passes 10 near step 300, past the first leaves
    kern = np.full(801, +0.04, dtype=complex)
    ref = np.abs(_recurrence_long_double(kern, 0.05)).astype(float)
    first = int(np.argmax(ref > 10.0))
    with pytest.raises(RuntimeError, match="step %d " % first):
        volterra_march(kern, 0.05)


def test_march_error_tracks_true_error_on_flat_kernel():
    # one line of weight g^2 at omega0 is the flat kernel K = -g^2
    g = 1.0
    dens = SpectralDensity(omegas=np.array([1.0]), values=np.array([g**2]))
    kern = -bath_correlations(dens, 1.0, np.linspace(0.0, 10.0, 7)).c_up
    assert np.all(kern == -(g**2))
    res = solve_volterra(dens, 1.0, 10.0, 4000)
    true = np.max(np.abs(res.c_es - flat_kernel_solution(g, res.times)))
    assert 0.5 * true <= res.march_error <= 2.0 * true


def _predictor_corrector_loop(kernel, h, y0=1.0 + 0.0j):
    """The product-trapezoid predictor-corrector stepped one node at a
    time, with the memory integral kept incrementally."""
    k = np.asarray(kernel, dtype=complex)
    n = k.size - 1
    y = np.empty(n + 1, dtype=complex)
    y[0] = y0
    hist = 0.0 + 0.0j
    for i in range(n):
        ypred = y[i] + h * hist
        s = 0.5 * k[i + 1] * y[0] + np.dot(k[i:0:-1], y[1:i + 1])
        hstar = h * (s + 0.5 * k[0] * ypred)
        y[i + 1] = y[i] + 0.5 * h * (hist + hstar)
        hist = hstar + 0.5 * h * k[0] * (y[i + 1] - ypred)
    return y


@pytest.mark.parametrize("n", [2, 129, 700])
def test_volterra_toeplitz_solve_is_the_predictor_corrector(n):
    # the Toeplitz recurrence is the stepped scheme with the memory
    # integral eliminated; both round differently, by ~1e-15 of max|y|
    h = 0.02
    t = h * np.arange(n + 1)
    kern = -1.7 * np.exp(-(0.4 + 2.3j) * t)
    y = volterra_march(kern, h)
    loop = _predictor_corrector_loop(kern, h)
    assert np.max(np.abs(y - loop)) <= 1e-13 * np.max(np.abs(loop))
