"""Eigenmodes of a perfectly conducting rectangular box filled with a
uniform lossless dielectric, and their coupling strengths to an atom.

Mode functions are the standard trigonometric transverse patterns

    E_x = A_x cos(kx x) sin(ky y) sin(kz z)
    E_y = A_y sin(kx x) cos(ky y) sin(kz z)
    E_z = A_z sin(kx x) sin(ky y) cos(kz z)

with k = (m pi/Lx, n pi/Ly, p pi/Lz) and A.k = 0.  Triples with two or
three zero indices have identically vanishing transverse field and are
excluded.  Exactly one zero index leaves a single polarization branch
(A along that axis); otherwise there are two.  Amplitudes are fixed by the
closed-form normalization integral int eps_b |E|^2 = 1, so orthonormality
is exact by construction and the overlap matrix needs no cubature.

A ModeSet is its parallel arrays (index rows, frequencies, wavevectors,
amplitudes): a mode is one row of them, and eval_all is the one place the
mode functions above are evaluated.  It also decides which modes share a
line: the one line spectrum every density, Green tensor and identity
check of the package reads.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .permittivity import ConstantScalar, PermittivityModel
from .tensors import r3


def _background_eps(background):
    if isinstance(background, (int, float)):
        background = ConstantScalar(background)
    if not isinstance(background, PermittivityModel):
        raise TypeError("background must be a PermittivityModel or a real number")
    if not isinstance(background, ConstantScalar):
        raise ValueError(
            "mode construction needs a position-independent real scalar background"
        )
    eps = background.value
    if eps.imag != 0.0:
        raise ValueError("mode construction needs a lossless (real) background")
    if eps.real <= 0.0:
        raise ValueError("background permittivity must be positive")
    return background, float(eps.real)


@dataclass(frozen=True)
class CavityGeometry:
    """Rectangular box [0,Lx]x[0,Ly]x[0,Lz] with a real scalar filling."""

    Lx: float
    Ly: float
    Lz: float
    background: PermittivityModel = dc_field(default_factory=lambda: ConstantScalar(1.0))

    def __post_init__(self):
        if min(self.Lx, self.Ly, self.Lz) <= 0.0:
            raise ValueError("box lengths must be positive")
        bg, eps = _background_eps(self.background)
        object.__setattr__(self, "background", bg)
        object.__setattr__(self, "_eps_b", eps)

    @property
    def eps_b(self):
        return self._eps_b

    @property
    def lengths(self):
        return np.array([self.Lx, self.Ly, self.Lz])

    @property
    def volume(self):
        return self.Lx * self.Ly * self.Lz

    def contains(self, r):
        r = r3(r)
        return bool(np.all(r >= 0.0) and np.all(r <= self.lengths))


# relative gap past which sorted frequencies start a new line: far above
# a degenerate shell's last-bit spread, far below distinct lines' spacing
_LINE_REL = 1e-12


def _lines(omegas):
    """The distinct frequencies under ModeSet's line rule, ascending."""
    srt = np.sort(omegas)
    return srt[np.concatenate([[True], np.diff(srt) > _LINE_REL * srt[1:]])]


class ModeSet:
    """Immutable box modes as four parallel read-only arrays, and lines.

    idx (n, 4) holds integer (m, n, p, branch) rows, omegas (n,) the
    frequencies, kvecs (n, 3) the wavevectors and amplitudes (n, 3) the
    amplitude vectors; row i of each is mode i.  Modes degenerate in
    exact arithmetic can differ in the last bits of omega, so the sorted
    frequencies are cut into lines wherever the gap to the previous one
    exceeds _LINE_REL times it, and every mode takes its line's lowest
    frequency: degenerate modes share one bitwise-equal omega.  lines
    holds the distinct frequencies (ascending) and line_of each mode's
    index into it.  Rows are sorted ascending in omega with
    lexicographic (m, n, p, branch) tie-breaking, so the ordering is
    deterministic for degenerate shells.
    """

    def __init__(self, geometry, idx, omegas, kvecs, amplitudes):
        if not len(omegas):
            raise ValueError("empty mode set")
        self.geometry = geometry
        # _lines' sorted copy and the unsorted line_of die early: holding
        # them slowed later runs in one process through heap layout
        lines = _lines(omegas)
        line_of = np.searchsorted(lines, omegas, side="right") - 1
        order = np.lexsort((idx[:, 3], idx[:, 2], idx[:, 1], idx[:, 0],
                            line_of))
        line_of = line_of[order]
        self.idx, self.kvecs, self.amplitudes = (
            a[order] for a in (idx, kvecs, amplitudes))
        self.lines, self.line_of, self.omegas = lines, line_of, lines[line_of]
        for a in (self.lines, self.line_of, self.idx, self.omegas,
                  self.kvecs, self.amplitudes):
            a.flags.writeable = False

    def __len__(self):
        return len(self.omegas)

    @property
    def omega_top(self):
        return float(self.omegas[-1])

    def line_sums(self, rows):
        """Per-mode rows (n, ...) summed per line in mode order, shape
        (len(lines), ...)."""
        rows = np.asarray(rows)
        out = np.zeros((self.lines.size,) + rows.shape[1:], dtype=rows.dtype)
        # on flat indices: numpy's add.at is ~3x faster in one dimension
        k = out[0].size
        np.add.at(out.reshape(-1),
                  (self.line_of[:, None] * k + np.arange(k)).ravel(),
                  rows.reshape(-1))
        return out

    def subset(self, indices):
        sel = np.asarray(indices, dtype=np.int64).reshape(-1)
        return ModeSet(self.geometry, self.idx[sel], self.omegas[sel],
                       self.kvecs[sel], self.amplitudes[sel])

    def eval_all(self, r):
        """All mode fields at one point, shape (n_modes, 3)."""
        x, y, z = r3(r)
        cx = np.cos(self.kvecs[:, 0] * x)
        sx = np.sin(self.kvecs[:, 0] * x)
        cy = np.cos(self.kvecs[:, 1] * y)
        sy = np.sin(self.kvecs[:, 1] * y)
        cz = np.cos(self.kvecs[:, 2] * z)
        sz = np.sin(self.kvecs[:, 2] * z)
        out = np.empty((len(self), 3))
        out[:, 0] = self.amplitudes[:, 0] * cx * sy * sz
        out[:, 1] = self.amplitudes[:, 1] * sx * cy * sz
        out[:, 2] = self.amplitudes[:, 2] * sx * sy * cz
        return out

    def overlap(self, i, j):
        """Closed-form orthonormality integral int eps_b E_i . E_j dV."""
        ti = self.idx[i, :3].tolist()
        if ti != self.idx[j, :3].tolist():
            return 0.0
        lengths = self.geometry.lengths
        amp_i = self.amplitudes[i]
        amp_j = self.amplitudes[j]
        total = 0.0
        for comp in range(3):
            w = 1.0
            dead = False
            for ax in range(3):
                if ax == comp:
                    # cosine factor: full length when the index is zero
                    w *= lengths[ax] if ti[ax] == 0 else 0.5 * lengths[ax]
                else:
                    if ti[ax] == 0:
                        dead = True
                        break
                    w *= 0.5 * lengths[ax]
            if dead:
                continue
            total += amp_i[comp] * amp_j[comp] * w
        return self.geometry.eps_b * total


def build_pec_box_modes(geometry, n_max):
    """All transverse box modes with max(m, n, p) <= n_max.

    Mode count is 2 n_max^3 + 3 n_max^2 (two branches for all-nonzero
    triples, one for exactly-one-zero triples).  Every index triple is
    generated at once and k, omega and both polarization amplitudes are
    computed on the whole array.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    eps_b = geometry.eps_b
    vol = geometry.volume
    grid = np.arange(n_max + 1)
    mnp = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"),
                   axis=-1).reshape(-1, 3)
    n_zero = np.count_nonzero(mnp == 0, axis=1)
    mnp = mnp[n_zero <= 1]
    one = n_zero[n_zero <= 1] == 1
    k = np.pi * mnp / geometry.lengths
    # the stacked matmul reproduces np.linalg.norm of each row bitwise,
    # which keeps degenerate shells in the same order
    knorm = np.sqrt((k[:, None, :] @ k[:, :, None])[:, 0, 0])
    omega = knorm / np.sqrt(eps_b)

    # exactly one zero index: a single branch along that axis
    amp0 = np.zeros((np.count_nonzero(one), 3))
    amp0[mnp[one] == 0] = 2.0 / np.sqrt(eps_b * vol)

    # all indices nonzero: two branches transverse to k
    kk = k[~one]
    kx, ky, kz = kk.T
    kpar = np.hypot(kx, ky)
    scale = np.sqrt(8.0 / (eps_b * vol))
    a1 = np.stack([ky, -kx, np.zeros_like(kx)], axis=1) / kpar[:, None]
    a2 = np.stack([kz * kx, kz * ky, -kpar**2], axis=1) \
        / (knorm[~one] * kpar)[:, None]

    branch = np.repeat([1, 1, 2], [len(amp0), len(kk), len(kk)])
    idx = np.column_stack([
        np.concatenate([mnp[one], mnp[~one], mnp[~one]]), branch])
    return ModeSet(
        geometry, idx,
        np.concatenate([omega[one], omega[~one], omega[~one]]),
        np.concatenate([k[one], kk, kk]),
        np.concatenate([amp0, a1 * scale, a2 * scale]))


def coupling_strengths(modeset, atom):
    """|g_k|^2 / hbar^2 for every mode, vectorized.

    This is the discrete spectral weight entering memory kernels and
    spectral densities.  Raises if the atom sits outside the box.
    """
    if not modeset.geometry.contains(atom.position):
        raise ValueError("atom position outside the cavity")
    proj = modeset.eval_all(atom.position) @ atom.dipole
    return modeset.omegas * proj**2 / 2.0
