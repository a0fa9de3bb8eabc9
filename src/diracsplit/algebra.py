"""Spin matrix constants and the closed-form spin exponential.

Every factor of the split schemes is, per grid point or Fourier mode,
exp(s G) with G = -i v0 I - i (b . S) - i bm B, where S_j = sigma_j,
B = sigma_3 for two components and S_j = alpha_j, B = beta for four.
The traceless part squares to r^2 I (r^2 = |b|^2 + bm^2, or
b1^2 + b2^2 + (b3 + bm)^2 for two components, where sigma_3 is both S_3
and B), so exp(s G) = exp(-i s v0) (cos(s r) - i s sinc(s r) (b.S + bm B)).
``spin_exp_entries`` evaluates this one closed form and
``spin_exp_apply`` multiplies it into (..., ncomp) data.  The factors
differ only in their coefficients:

    factor                        v0    b               bm
    kinetic exp(s T), mode mu     0     c mu            m c^2
    potential exp(s W(t))         e V   -e A            0
    compact exp(s W_c), 1D        e V   (-e A_1, 0, 0)  tau^2 e^2 m c^2 A_1^2/12

with W_c = W + tau^2/48 [W,[T,W]], the compact factor of ``s4c``.
``exp_pauli_affine`` and ``exp_dirac_affine`` are 0-d calls of the kernel
applied to the identity.  ``exp_dense`` is a generic scaling-and-squaring
exponential kept as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

_I2 = np.eye(2, dtype=np.complex128)
_I4 = np.eye(4, dtype=np.complex128)

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def pauli(j):
    """Pauli matrix sigma_j for j in {1, 2, 3} (fresh copy)."""
    if j not in (1, 2, 3):
        raise ValueError(f"pauli index must be 1, 2 or 3, got {j}")
    return _SIGMA[j - 1].copy()


def _block(upper_right, lower_left):
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, 2:] = upper_right
    out[2:, :2] = lower_left
    return out


def dirac_matrix(name):
    """4x4 matrix by name: 'alpha1', 'alpha2', 'alpha3', 'beta' or 'gamma'.

    alpha_j has sigma_j on the off-diagonal blocks, beta = diag(I, -I),
    gamma has identity blocks off the diagonal.
    """
    if name == "beta":
        out = np.zeros((4, 4), dtype=np.complex128)
        out[:2, :2] = _I2
        out[2:, 2:] = -_I2
        return out
    if name == "gamma":
        return _block(_I2, _I2)
    if name in ("alpha1", "alpha2", "alpha3"):
        s = _SIGMA[int(name[-1]) - 1]
        return _block(s, s)
    raise ValueError(f"unknown matrix name {name!r}")


def exp_dense(mat, s=1.0):
    """exp(s*mat) for a 2x2 or 4x4 complex matrix.

    Scaling and squaring with a 13-term Taylor series on the scaled
    matrix.  Accurate to ~1e-13 relative for ||s*mat|| up to 10.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a 2x2 or 4x4 matrix, got shape {mat.shape}")
    x = s * mat
    norm = np.linalg.norm(x, np.inf)
    n_squarings = 0
    if norm > 0.25:
        n_squarings = int(np.ceil(np.log2(norm / 0.25)))
        x = x / (2.0**n_squarings)
    eye = np.eye(mat.shape[0], dtype=np.complex128)
    result = eye.copy()
    term = eye.copy()
    for k in range(1, 14):
        term = term @ x / k
        result += term
    for _ in range(n_squarings):
        result = result @ result
    return result


def _sinc(x):
    """sin(x)/x, series branch near zero so the limit is exact."""
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def spin_exp_entries(v0, b1, b2, b3, bm, s, ncomp):
    """Distinct entries (dl, du, km, kp[, kz]) of exp(s G), phase folded in.

    The coefficients are real scalars or mutually broadcastable arrays;
    the entries have their broadcast shape.  ``spin_exp_apply`` gives
    their placement in the 2x2 or 4x4 matrix.
    """
    if ncomp == 2:
        diag, bz = b3 + bm, 0.0  # sigma_3 is both S_3 and B
    else:
        diag, bz = bm, b3
    sr = np.sqrt(b1 * b1 + b2 * b2 + bz * bz + diag * diag)
    sr *= s
    cosv = np.cos(sr)
    f = (-1j * s) * _sinc(sr)
    # g holds the phase p, then p f.  p and the real intermediates are
    # released before the last entries are allocated: fewer full-grid
    # temporaries stay alive and fewer holes are left in the heap
    g = np.exp((-1j * s) * v0)
    dl = g * (cosv + f * diag)
    du = g * (cosv - f * diag)
    g = g * f
    del sr, cosv, f
    km = g * (b1 - 1j * b2)
    kz = () if ncomp == 2 else (g * b3,)
    g *= b1 + 1j * b2
    return (dl, du, km, g) + kz


def spin_exp_apply(entries, data):
    """Multiply the entries of ``spin_exp_entries`` into (..., ncomp) data.

    The entries broadcast against data.shape[:-1].  Two components:
    [[dl, km], [kp, du]].  Four components:
    [[dl, 0, kz, km], [0, dl, kp, -kz], [kz, km, du, 0], [kp, -kz, 0, du]].
    """
    out = np.empty(data.shape, dtype=np.complex128)
    if len(entries) == 4:
        dl, du, km, kp = entries
        out[..., 0] = dl * data[..., 0] + km * data[..., 1]
        out[..., 1] = kp * data[..., 0] + du * data[..., 1]
    else:
        dl, du, km, kp, kz = entries
        out[..., 0] = dl * data[..., 0] + kz * data[..., 2] + km * data[..., 3]
        out[..., 1] = dl * data[..., 1] + kp * data[..., 2] - kz * data[..., 3]
        out[..., 2] = du * data[..., 2] + kz * data[..., 0] + km * data[..., 1]
        out[..., 3] = du * data[..., 3] + kp * data[..., 0] - kz * data[..., 1]
    return out


def exp_pauli_affine(v0, b, s):
    """exp(s * (-i*v0*I - i*(b . sigma))) as a 2x2 matrix.

    v0 is real, b a real 3-vector: the spin exponential with bm = 0.
    """
    b1, b2, b3 = (float(v) for v in b)
    entries = spin_exp_entries(float(v0), b1, b2, b3, 0.0, s, 2)
    return spin_exp_apply(entries, _I2).T


def exp_dirac_affine(v0, a, bcoef, s):
    """exp(s * (-i*v0*I + i*(a . alpha) - i*bcoef*beta)) as a 4x4 matrix.

    The spin exponential with b = -a and bm = bcoef.
    """
    a1, a2, a3 = (float(v) for v in a)
    entries = spin_exp_entries(float(v0), -a1, -a2, -a3, float(bcoef), s, 4)
    return spin_exp_apply(entries, _I4).T
