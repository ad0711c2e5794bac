"""PEC box modes: counting, scaling, orthonormality, couplings."""

import numpy as np
import pytest

from greenmodes import (
    CavityGeometry,
    CavityModeSum,
    ConstantScalar,
    build_pec_box_modes,
    coupling_strengths,
    spectral_density_lna,
    spectral_density_nmqed,
)
from greenmodes import greens, identities
from greenmodes.master import resonance_edge_hints
from conftest import make_atom


def mode_fields(kvecs, amplitudes, pts):
    """Mode functions of every row at every point, shape (n_modes, n_pts,
    3): the trigonometric patterns written out here, apart from
    ModeSet.eval_all, which takes one point at a time."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    kx, ky, kz = kvecs.T[:, :, None]
    ax, ay, az = amplitudes.T[:, :, None]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    ex = ax * np.cos(kx * x) * np.sin(ky * y) * np.sin(kz * z)
    ey = ay * np.sin(kx * x) * np.cos(ky * y) * np.sin(kz * z)
    ez = az * np.sin(kx * x) * np.sin(ky * y) * np.cos(kz * z)
    return np.stack([ex, ey, ez], axis=-1)


def expected_count(n):
    # one-zero triples: 3 n^2 with a single branch; all-positive: n^3, two
    # branches each
    return 2 * n**3 + 3 * n**2


@pytest.mark.parametrize("n_max", [1, 2, 3, 6])
def test_mode_count_formula(n_max):
    geom = CavityGeometry(1.0, 1.0, 1.0)
    ms = build_pec_box_modes(geom, n_max)
    assert len(ms) == expected_count(n_max)


def test_mode_index_validation(box_modeset, cube_modeset):
    # every built row is a valid mode: no two zero indices, branch 1 or 2,
    # no row twice, and a triple with one zero index has branch 1 only,
    # polarized along the zero axis
    for ms in (box_modeset, cube_modeset):
        mnp, branch = ms.idx[:, :3], ms.idx[:, 3]
        n_zero = np.count_nonzero(mnp == 0, axis=1)
        assert np.all(mnp >= 0) and np.all(n_zero <= 1)
        assert set(branch.tolist()) == {1, 2}
        assert len(np.unique(ms.idx, axis=0)) == len(ms)
        one = n_zero == 1
        assert np.all(branch[one] == 1)
        assert len(np.unique(mnp[one], axis=0)) == np.count_nonzero(one)
        amp, zero_axis = ms.amplitudes[one], mnp[one] == 0
        assert np.all(amp[~zero_axis] == 0.0) and np.all(amp[zero_axis] != 0.0)


def test_frequencies_match_dispersion(box_modeset):
    geom = box_modeset.geometry
    for i in range(0, len(box_modeset), 17):
        m, n, p, _ = box_modeset.idx[i]
        k = np.pi * np.array([m / geom.Lx, n / geom.Ly, p / geom.Lz])
        omega = box_modeset.omegas[i]
        assert abs(omega - np.linalg.norm(k)) < 1e-12 * omega
        assert np.allclose(box_modeset.kvecs[i], k)


def test_length_scaling_inverse(box_modeset):
    lam = 1.7
    geom = box_modeset.geometry
    scaled = build_pec_box_modes(
        CavityGeometry(lam * geom.Lx, lam * geom.Ly, lam * geom.Lz), 4)
    assert np.max(np.abs(scaled.omegas * lam - box_modeset.omegas)) \
        <= 1e-12 * box_modeset.omegas[-1]


def test_background_filling_scales_frequencies():
    geom = CavityGeometry(1.0, 1.0, 1.0)
    empty = build_pec_box_modes(geom, 2)
    eps_b = 2.56
    filled = build_pec_box_modes(
        CavityGeometry(1.0, 1.0, 1.0, background=ConstantScalar(eps_b)), 2)
    assert np.max(np.abs(filled.omegas * np.sqrt(eps_b) - empty.omegas)) < 1e-12 * empty.omegas[-1]


def test_lossy_background_rejected():
    with pytest.raises(ValueError):
        build_pec_box_modes(
            CavityGeometry(1.0, 1.0, 1.0, background=ConstantScalar(2.0 + 0.1j)), 2)


def test_transversality_and_boundary(cube_modeset, rng):
    # div E = 0 pointwise (k . amplitude = 0) and tangential E = 0 on walls
    k, amp = cube_modeset.kvecs[::41], cube_modeset.amplitudes[::41]
    assert np.all(np.abs(np.sum(k * amp, axis=1))
                  < 1e-12 * np.linalg.norm(amp, axis=1))
    r_wall = np.array([0.0, 0.37, 0.62])  # x = 0 face: Ey = Ez = 0 there
    f = cube_modeset.eval_all(r_wall)[::53]
    assert np.all(np.abs(f[:, 1:]) < 1e-13)


def test_orthonormality_closed_form(cube_modeset):
    # the closed-form overlap of the lowest degenerate shell must be the
    # identity to 1e-10
    shell = [i for i, w in enumerate(cube_modeset.omegas)
             if abs(w - cube_modeset.omegas[0]) < 1e-9 * cube_modeset.omegas[0]]
    sub = cube_modeset.subset(shell)
    m = len(shell)
    gram = np.array([[sub.overlap(i, j) for j in range(m)] for i in range(m)])
    assert np.max(np.abs(gram - np.eye(m))) < 1e-10


def test_orthonormality_numerical_cubature(cube_modeset):
    """Midpoint cubature of int E_a . E_b dV on a 64^3 grid, spot pairs."""
    n = 64
    x = (np.arange(n) + 0.5) / n
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    pts = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
    dv = 1.0 / n**3
    picks = [0, 1, 7, 100, 539]
    kvecs = cube_modeset.kvecs[picks]
    amps = cube_modeset.amplitudes[picks]
    # the reference formula is the one eval_all evaluates
    for r in pts[::9973]:
        assert np.allclose(mode_fields(kvecs, amps, r)[:, 0],
                           cube_modeset.eval_all(r)[picks],
                           rtol=0.0, atol=1e-14)
    fields = mode_fields(kvecs, amps, pts)
    gram = np.einsum("ipc,jpc->ij", fields, fields) * dv
    for a, i in enumerate(picks):
        for b, j in enumerate(picks):
            want = 1.0 if i == j else 0.0
            assert abs(gram[a, b] - want) < 2e-3, (i, j, gram[a, b])


def test_degenerate_shell_order_independence(cube_modeset):
    # feeding every row back in permuted must give the same ordering
    perm = list(range(len(cube_modeset)))
    rng = np.random.default_rng(7)
    rng.shuffle(perm)
    reordered = cube_modeset.subset(perm)
    assert np.array_equal(reordered.omegas, cube_modeset.omegas)
    assert np.array_equal(reordered.idx, cube_modeset.idx)
    assert np.array_equal(reordered.kvecs, cube_modeset.kvecs)
    assert np.array_equal(reordered.amplitudes, cube_modeset.amplitudes)


def reference_modes(geometry, n_max, c=1.0):
    """Per-triple loop with the scalar arithmetic of the original build
    and the line rule applied one mode at a time: rows (m, n, p, branch),
    omegas, k and amplitudes, sorted by (line omega, m, n, p, branch)."""
    eps_b = geometry.eps_b
    lengths = geometry.lengths
    vol = geometry.volume
    rows = []
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            for p in range(n_max + 1):
                n_zero = (m == 0) + (n == 0) + (p == 0)
                if n_zero >= 2:
                    continue
                kvec = np.pi * np.array([m, n, p]) / lengths
                knorm = float(np.linalg.norm(kvec))
                omega = c * knorm / np.sqrt(eps_b)
                if n_zero == 1:
                    amp = np.zeros(3)
                    amp[(m, n, p).index(0)] = 2.0 / np.sqrt(eps_b * vol)
                    rows.append((omega, m, n, p, 1, kvec, amp))
                    continue
                kpar = float(np.hypot(kvec[0], kvec[1]))
                a1 = np.array([kvec[1], -kvec[0], 0.0]) / kpar
                a2 = np.array([kvec[2] * kvec[0], kvec[2] * kvec[1],
                               -kpar**2]) / (knorm * kpar)
                scale = np.sqrt(8.0 / (eps_b * vol))
                rows.append((omega, m, n, p, 1, kvec, a1 * scale))
                rows.append((omega, m, n, p, 2, kvec, a2 * scale))
    # sorted frequencies start a new line where the gap to the previous
    # one exceeds 1e-12 of it; each mode takes its line's lowest omega
    rows.sort(key=lambda row: row[0])
    lined = []
    for i, row in enumerate(rows):
        if i == 0 or row[0] - rows[i - 1][0] > 1e-12 * row[0]:
            line = row[0]
        lined.append((line,) + row[1:])
    rows = sorted(lined, key=lambda row: row[:5])
    return (np.array([row[1:5] for row in rows]),
            np.array([row[0] for row in rows]),
            np.array([row[5] for row in rows]),
            np.array([row[6] for row in rows]))


@pytest.mark.parametrize("lengths, eps_b, n_max", [
    ((1.0, 1.0, 1.0), 1.0, 10),
    ((1.3, 0.7, 2.1), 2.25, 9),
])
def test_vectorized_build_matches_reference_loop(lengths, eps_b, n_max):
    geom = CavityGeometry(*lengths, background=ConstantScalar(eps_b))
    ms = build_pec_box_modes(geom, n_max)
    idx, omegas, kvecs, amps = reference_modes(geom, n_max)
    # bitwise: every omega is its line's, and the rows of a line follow
    # (m, n, p, branch)
    assert np.array_equal(ms.idx, idx)
    assert np.array_equal(ms.omegas, omegas)
    assert np.array_equal(ms.lines, np.unique(omegas))
    assert np.array_equal(ms.lines[ms.line_of], omegas)
    assert np.array_equal(ms.kvecs, kvecs)
    assert np.all(np.abs(ms.amplitudes - amps) <= np.spacing(np.abs(amps)))
    assert ms.geometry is geom
    for a in (ms.idx, ms.omegas, ms.kvecs, ms.amplitudes, ms.lines,
              ms.line_of):
        assert not a.flags.writeable

    # a degenerate shell handed to subset in reverse comes back sorted,
    # and its closed-form overlap is still the identity
    shell = np.flatnonzero(ms.omegas == ms.omegas[40])
    assert len(shell) > 1
    sub = ms.subset(shell[::-1])
    assert np.array_equal(sub.idx, ms.idx[shell])
    gram = np.array([[sub.overlap(i, j) for j in range(len(sub))]
                     for i in range(len(sub))])
    assert np.max(np.abs(gram - np.eye(len(sub)))) < 1e-12


@pytest.mark.parametrize("lengths, n_lines", [((1.0, 1.0, 1.0), 63),
                                              ((1.0, 2.0, 3.0), 216)])
def test_one_line_spectrum_for_every_consumer(lengths, n_lines,
                                              monkeypatch):
    ms = build_pec_box_modes(CavityGeometry(*lengths), 6)
    # modes degenerate in exact arithmetic are those with one integer
    # 36 sum (m_i / L_i)^2 (L_i in {1, 2, 3}); they, and only they,
    # share a line
    key = ms.idx[:, :3] ** 2 @ (36.0 / np.array(lengths) ** 2)
    _, exact_line = np.unique(key, return_inverse=True)
    assert ms.lines.size == n_lines
    assert np.array_equal(ms.line_of, exact_line)
    assert np.all(np.diff(ms.lines) > 0.0)
    assert np.array_equal(ms.lines[ms.line_of], ms.omegas)

    atom = make_atom()
    eta = 1e-3
    mode_sum = CavityModeSum(ms, eta=eta)
    nmqed = spectral_density_nmqed(ms, atom)
    limit = spectral_density_lna(mode_sum, atom, analytic_limit=True)
    softened = spectral_density_lna(mode_sum, atom,
                                    omega_max=2.0 * ms.omega_top)
    hints = resonance_edge_hints(ms.lines, eta, 2.0 * ms.omega_top)
    assert np.array_equal(softened.edge_hints, hints)
    seen = []

    def lorentzian_weights(omegas, eta, omega_max, spec):
        seen.append(np.array(omegas))
        return np.asarray(omegas) / 2.0, 0.0

    monkeypatch.setattr(identities, "_lorentzian_weights",
                        lorentzian_weights)
    identities.check_conversion_p1(ms, atom.position, atom.position, eta=eta)
    for lines in (nmqed.omegas, limit.omegas, hints.reshape(-1, 11)[:, 5],
                  seen[0], greens._mode_pairs(ms, atom.position,
                                              atom.position)[0]):
        assert np.array_equal(lines, ms.lines)

    # a line handed to subset is kept whole, and subset is idempotent
    k = ms.line_of[len(ms) // 2]
    shell = ms.subset(np.flatnonzero(ms.line_of == k))
    again = shell.subset(np.arange(len(shell))[::-1])
    assert np.array_equal(shell.lines, ms.lines[k:k + 1])
    for a, b in ((again.lines, shell.lines), (again.omegas, shell.omegas),
                 (again.idx, shell.idx), (again.line_of, shell.line_of)):
        assert np.array_equal(a, b)


def test_line_sums_add_rows_per_line_in_mode_order(cube_modeset, rng):
    rows = rng.normal(size=(len(cube_modeset), 2, 3))
    got = cube_modeset.line_sums(rows)
    assert got.shape == (cube_modeset.lines.size, 2, 3)
    for k in (0, 7, cube_modeset.lines.size - 1):
        want = np.zeros((2, 3))
        for row in rows[cube_modeset.line_of == k]:
            want += row
        assert np.array_equal(got[k], want)


def test_coupling_strengths_vectorized(cube_modeset):
    atom = make_atom()
    w = coupling_strengths(cube_modeset, atom)
    assert w.shape == (len(cube_modeset),)
    assert np.all(w >= 0.0)
    k = 33
    field = mode_fields(cube_modeset.kvecs[k:k + 1],
                        cube_modeset.amplitudes[k:k + 1], atom.position)
    proj = float(np.dot(atom.dipole, field[0, 0]))
    expect = cube_modeset.omegas[k] * proj**2 / 2.0
    assert abs(w[k] - expect) < 1e-13 * max(expect, 1e-30)


def test_coupling_outside_box_raises(cube_modeset):
    atom = make_atom(position=(1.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        coupling_strengths(cube_modeset, atom)
