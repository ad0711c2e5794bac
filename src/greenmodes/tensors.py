"""Small helpers for 3-vectors and 3x3 dyadics used throughout."""

import numpy as np

I3 = np.eye(3)


def r3(v):
    out = np.asarray(v, dtype=float)
    if out.shape != (3,):
        raise ValueError("expected a real 3-vector, got shape %s" % (out.shape,))
    return out


def dagger(m):
    return np.conj(np.swapaxes(m, -1, -2))


def max_abs(m):
    return float(np.max(np.abs(m)))


def is_psd(m, tol=1e-10):
    """Hermitian positive semidefinite test: Hermitian to tol relative to
    max(max|m|, 1), and no eigenvalue of the Hermitian part below -tol
    relative to max(max|eig|, 1)."""
    m = np.asarray(m)
    if not max_abs(m - dagger(m)) <= tol * max(max_abs(m), 1.0):
        return False
    w = np.linalg.eigvalsh((m + dagger(m)) / 2.0)
    scale = max(float(np.max(np.abs(w))), 1.0)
    return bool(np.min(w) >= -tol * scale)
