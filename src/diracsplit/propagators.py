"""Exact flows of the split pieces of the Dirac generator.

The equation is written d/dt u = (T + W(t)) u with

    T    = -c * sum_j S_j d/dx_j - i m c^2 B
    W(t) = -i e (V(t,x) I - sum_j A_j(t,x) S_j)

where S_j = sigma_j, B = sigma_3 for two components and S_j = alpha_j,
B = beta for four.  Each flow is the one closed-form spin exponential
exp(s (-i v0 I - i b.S - i bm B)) of ``algebra.spin_exp_entries``,
applied by ``algebra.spin_exp_apply``, with coefficients

    flow                     v0    b               bm
    kinetic_step             0     c mu            m c^2
    potential_step           e V   -e A            0
    compact_potential_step   e V   (-e A_1, 0, 0)  tau^2 e^2 m c^2 A_1^2/12

``kinetic_step`` applies exp(s T) per Fourier mode mu, ``potential_step``
applies exp(s W(t)) pointwise, and ``compact_potential_step`` applies
exp(s (W + tau^2/48 [W,[T,W]])), which stays pointwise in one dimension
or whenever A vanishes.  With A = 0 both potential flows are the scalar
phase exp(-i s e V).

``commutator_coefficients`` evaluates the closed form of the double
commutator [W,[T,W]] (a pointwise matrix plus matrix coefficients of
d/dx_j), and ``commutator_bruteforce`` computes the same operator by
nesting the factor applications; the two routes cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import dirac_matrix, pauli, spin_exp_apply, spin_exp_entries
from .fields import SpinorField
from .grids import mode_mesh, to_modes, from_modes, spectral_derivative


class UnsupportedCommutatorTransport(NotImplementedError):
    """Compact potential steps need A = 0 or one space dimension.

    In two or three dimensions with a magnetic potential the double
    commutator carries first-derivative (transport) terms, so its
    exponential is no longer a pointwise matrix.  The coefficients are
    still available through ``commutator_coefficients``.
    """


# --- kinetic flow ----------------------------------------------------------

@lru_cache(maxsize=16)
def _kinetic_entries(grid, ncomp, c, m, s):
    """Per-mode entries of exp(s T), cached per (grid, s)."""
    b = [c * mu for mu in mode_mesh(grid)] + [0.0] * (3 - grid.ndim)
    entries = spin_exp_entries(0.0, *b, m * c * c, s, ncomp)
    entries = tuple(np.ascontiguousarray(np.broadcast_to(a, grid.shape))
                    for a in entries)
    for a in entries:
        a.flags.writeable = False
    return entries


def kinetic_step(field, s, c=1.0, m=1.0):
    """Apply exp(s T): exact free flight for duration s."""
    coef = to_modes(field.data, field.grid)
    entries = _kinetic_entries(field.grid, field.ncomp, float(c), float(m), float(s))
    return SpinorField(field.grid, from_modes(spin_exp_apply(entries, coef), field.grid))


# --- potential flow --------------------------------------------------------

@lru_cache(maxsize=64)
def _grid_mesh(grid):
    return tuple(grid.meshgrid())


@lru_cache(maxsize=32)
def _static_phase(model, grid, s):
    """exp(-i s e V) of a time-independent model with A = 0."""
    v = model.scalar(0.0, _grid_mesh(grid))
    phase = np.exp(-1j * (s * model.e) * np.asarray(v))
    phase = np.ascontiguousarray(np.broadcast_to(phase, grid.shape))
    phase.flags.writeable = False
    return phase


def _magnetic_factor(field, s, e, v, a, bm):
    """Apply exp(s (W - i bm B)) for W = -i e (V - A.S) given on the grid."""
    b = [-e * np.asarray(ak) for ak in a] + [0.0] * (3 - len(a))
    entries = spin_exp_entries(e * np.asarray(v), *b, bm, s, field.ncomp)
    return SpinorField(field.grid, spin_exp_apply(entries, field.data))


def potential_step(field, t_eval, s, model):
    """Apply exp(s W(t_eval)) pointwise."""
    grid = field.grid
    model.check_dimension(grid.ndim)
    xs = _grid_mesh(grid)
    if not model.magnetic_zero:
        return _magnetic_factor(field, s, model.e, model.scalar(t_eval, xs),
                                model.magnetic(t_eval, xs), 0.0)
    if model.time_dependent:
        phase = np.exp(-1j * (s * model.e) * np.asarray(model.scalar(t_eval, xs)))
    else:
        phase = _static_phase(model, grid, float(s))
    return SpinorField(grid, field.data * phase[..., np.newaxis])


def compact_potential_step(field, t_eval, s, tau, model):
    """Apply exp(s (W(t_eval) + tau^2/48 [W,[T,W]](t_eval))).

    tau is the full step of the surrounding scheme, independent of the
    factor duration s.  With A = 0 the correction vanishes and this is
    a plain potential step.  In one dimension the double commutator is
    the pointwise matrix -4i e^2 m c^2 A_1^2 sigma_3 (beta for four
    components), which folds into the same closed-form exponential.
    """
    if model.magnetic_zero:
        return potential_step(field, t_eval, s, model)
    grid = field.grid
    model.check_dimension(grid.ndim)
    if grid.ndim != 1:
        raise UnsupportedCommutatorTransport(
            "compact potential steps with nonzero A need one space dimension"
        )
    xs = _grid_mesh(grid)
    v, a = model.scalar(t_eval, xs), model.magnetic(t_eval, xs)
    e, m, c = model.e, model.m, model.c
    a1 = np.asarray(a[0])
    return _magnetic_factor(field, s, e, v, a,
                            (tau * tau * e * e * m * c * c / 12.0) * a1 * a1)


# --- double commutator [W, [T, W]] -----------------------------------------

def _spin_basis(ncomp):
    """(S_1, S_2, S_3), B and gamma, with gamma S_j = sigma_j for two components."""
    if ncomp == 2:
        return (pauli(1), pauli(2), pauli(3)), pauli(3), np.eye(2, dtype=np.complex128)
    alphas = tuple(dirac_matrix(f"alpha{j}") for j in (1, 2, 3))
    return alphas, dirac_matrix("beta"), dirac_matrix("gamma")


def _matrix_field(shape, terms):
    """Sum of coef[..., None, None] * mat, broadcast to shape + mat.shape."""
    n = terms[0][1].shape[0]
    out = np.zeros(shape + (n, n), dtype=np.complex128)
    for coef, mat in terms:
        out += np.asarray(coef)[..., np.newaxis, np.newaxis] * mat
    return out


@dataclass
class CommutatorCoefficients:
    """[W,[T,W]] = order0 + sum_j grad[j] d/dx_j with pointwise matrices."""

    grid: object
    order0: np.ndarray
    grad: list

    def apply(self, field):
        out = np.einsum("...ij,...j->...i", self.order0, field.data)
        for j, g in enumerate(self.grad):
            out += np.einsum("...ij,...j->...i",
                             g, spectral_derivative(field.data, self.grid, j))
        return SpinorField(self.grid, out)


def commutator_coefficients(model, t, grid, ncomp=2):
    """Closed form of [W,[T,W]] on the grid at time t.

    Transport matrices are G_j = 4 c e^2 (A_j A.S - |A|^2 S_j); their
    Hermitian partner in the zeroth-order matrix is 1/2 sum_j d_j G_j,
    which anti-Hermiticity of the commutator forces (the remaining
    zeroth-order terms -- V gradients, A curl, mass -- are purely
    anti-Hermitian).  The bilinear structure in (V, A) makes the
    physical constants enter as c e^2 on every term born from the
    c S_j d/dx_j part of T and as m c^2 e^2 on the A^2 mass term.
    The three-dimensional form serves every grid: axes the grid lacks
    carry zero potentials and zero derivatives.
    """
    model.check_dimension(grid.ndim)
    d = grid.ndim
    if ncomp == 2 and d == 3:
        raise ValueError("two-component fields exist in one or two dimensions")
    xs = _grid_mesh(grid)
    e, m, c = model.e, model.m, model.c
    ce2 = 4.0 * c * e * e
    mass_coef = -4.0j * e * e * m * c * c
    shape = grid.shape
    spins, bmat, gamma = _spin_basis(ncomp)
    pad = [0.0] * (3 - d)
    a = [np.asarray(ak) for ak in model.magnetic(t, xs)] + pad
    dv = list(model.scalar_gradient(t, xs)) + pad
    da = ([list(row) + pad for row in model.magnetic_gradient(t, xs)]
          + [[0.0] * 3] * (3 - d))

    # transport: G_j = ce2 (A_j A.S - |A|^2 S_j)
    norm2 = sum(ak * ak for ak in a)
    grad = []
    for j in range(d):
        terms = [(ce2 * (a[j] * a[n] - (norm2 if n == j else 0.0)), spins[n])
                 for n in range(3)]
        grad.append(_matrix_field(shape, terms))

    # zeroth order: Hermitian part 1/2 sum_j d_j G_j, expanded via the
    # product rule as ce2/2 ((A.grad)A_n + (div A) A_n - d_n |A|^2)
    div_a = sum(da[k][k] for k in range(3))
    dnorm = [2.0 * sum(a[k] * da[k][j] for k in range(3)) for j in range(3)]
    terms = []
    for n in range(3):
        adg = sum(a[k] * da[n][k] for k in range(3))
        terms.append((0.5 * ce2 * (adg + div_a * a[n] - dnorm[n]), spins[n]))

    a1, a2, a3 = a
    galpha = tuple(gamma @ s for s in spins)
    terms.extend([
        (0.5j * ce2 * (a1 * (da[2][1] - da[1][2])
                       + a2 * (da[0][2] - da[2][0])
                       + a3 * (da[1][0] - da[0][1])), gamma),
        (1j * ce2 * (a3 * dv[1] - a2 * dv[2]), galpha[0]),
        (1j * ce2 * (a1 * dv[2] - a3 * dv[0]), galpha[1]),
        (1j * ce2 * (a2 * dv[0] - a1 * dv[1]), galpha[2]),
    ])
    terms.append((mass_coef * norm2, bmat))
    order0 = _matrix_field(shape, terms)
    return CommutatorCoefficients(grid, order0, grad)


def _mm(matfield, data):
    return np.einsum("...ij,...j->...i", matfield, data)


def commutator_bruteforce(field, t, model):
    """[W,[T,W]] field = 2 W T W f - W W T f - T W W f, computed literally.

    Field derivatives are spectral; derivatives created by the product
    rule on W use the model's analytic potential gradients, so the field
    is the only object that needs to be band limited on the grid.
    """
    grid = field.grid
    model.check_dimension(grid.ndim)
    d, n = grid.ndim, field.ncomp
    xs = _grid_mesh(grid)
    e, m, c = model.e, model.m, model.c
    spins, bmat, _ = _spin_basis(n)
    eye = np.eye(n, dtype=np.complex128)

    v = model.scalar(t, xs)
    a = model.magnetic(t, xs)
    dv = model.scalar_gradient(t, xs)
    da = model.magnetic_gradient(t, xs)

    full = grid.shape + (n, n)
    w_terms = [(v, eye)] + [(-np.asarray(a[k]), spins[k]) for k in range(d)]
    w = np.broadcast_to(-1j * e * _matrix_field(grid.shape, w_terms), full)
    dw = []
    for j in range(d):
        terms = [(dv[j], eye)] + [(-np.asarray(da[k][j]), spins[k]) for k in range(d)]
        dw.append(np.broadcast_to(-1j * e * _matrix_field(grid.shape, terms), full))

    f = field.data
    df = [spectral_derivative(f, grid, j) for j in range(d)]
    mc2 = m * c * c

    def t_apply(g, dg):
        out = -1j * mc2 * _mm(np.broadcast_to(bmat, full), g)
        for j in range(d):
            out -= c * _mm(np.broadcast_to(spins[j], full), dg[j])
        return out

    # 2 W T(W f)
    wf = _mm(w, f)
    dwf = [_mm(dw[j], f) + _mm(w, df[j]) for j in range(d)]
    term1 = 2.0 * _mm(w, t_apply(wf, dwf))
    # W W T f
    term2 = _mm(w, _mm(w, t_apply(f, df)))
    # T (W W f)
    w2 = np.einsum("...ij,...jk->...ik", w, w)
    dw2 = [np.einsum("...ij,...jk->...ik", dw[j], w)
           + np.einsum("...ij,...jk->...ik", w, dw[j]) for j in range(d)]
    w2f = _mm(w2, f)
    dw2f = [_mm(dw2[j], f) + _mm(w2, df[j]) for j in range(d)]
    term3 = t_apply(w2f, dw2f)

    return SpinorField(grid, term1 - term2 - term3)
