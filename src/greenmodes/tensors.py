"""Small helpers for 3-vectors and 3x3 dyadics used throughout."""

import numpy as np

I3 = np.eye(3)


def r3(v):
    out = np.asarray(v, dtype=float)
    if out.shape != (3,):
        raise ValueError("expected a real 3-vector, got shape %s" % (out.shape,))
    return out


def c33(m):
    out = np.asarray(m, dtype=complex)
    if out.shape != (3, 3):
        raise ValueError("expected a 3x3 tensor, got shape %s" % (out.shape,))
    return out


def dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


def antihermitian_part_over_i(m):
    """(M - M^dagger) / 2i.  Equals elementwise Im(M) when M is symmetric."""
    m = np.asarray(m)
    return (m - dagger(m)) / 2.0j


def hermitian_part(m):
    m = np.asarray(m)
    return (m + dagger(m)) / 2.0


def max_abs(m):
    return float(np.max(np.abs(m)))


def is_hermitian(m, tol=1e-12):
    m = np.asarray(m)
    scale = max(max_abs(m), 1.0)
    return max_abs(m - dagger(m)) <= tol * scale


def is_psd(m, tol=1e-10):
    """Hermitian positive semidefinite test with a relative eigenvalue floor."""
    m = np.asarray(m)
    if not is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh(hermitian_part(m))
    scale = max(float(np.max(np.abs(w))), 1.0)
    return bool(np.min(w) >= -tol * scale)
