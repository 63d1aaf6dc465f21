"""Bilinear and quadratic forms on finite-field spaces.

A FormSpec pins down the form a group is supposed to preserve: symplectic
(alternating bilinear), symmetric bilinear, or a quadratic form in
characteristic 2 carried as (polar bilinear Gram, values on basis vectors).
Validation happens at construction so downstream code can trust the kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# mm_modp stays importable from here: the layer trace in perfbench/layers.py
# wraps it by module
from .linalg import Mat, add, matmul, mm_modp  # noqa: F401


@dataclass(frozen=True)
class FormSpec:
    kind: str  # "symplectic" | "symmetric" | "quadratic_char2"
    gram: Mat
    quad_diag: tuple | None = None

    def __post_init__(self):
        g = self.gram
        f = g.field
        if g.rows != g.cols:
            raise ValueError("Gram matrix must be square")
        if self.kind == "symplectic":
            if (-g.T) != g:
                raise ValueError("symplectic Gram must be antisymmetric")
            if np.diag(g.a).any():
                raise ValueError("symplectic Gram must have zero diagonal")
        elif self.kind == "symmetric":
            if g.T != g:
                raise ValueError("symmetric Gram must equal its transpose")
        elif self.kind == "quadratic_char2":
            if f.p != 2:
                raise ValueError("quadratic_char2 forms need characteristic 2")
            if self.quad_diag is None or len(self.quad_diag) != g.rows:
                raise ValueError("quadratic_char2 needs one basis value per coordinate")
            if g.T != g or np.diag(g.a).any():
                raise ValueError("polar form of a quadratic form must be alternating")
        else:
            raise ValueError(f"unknown form kind {self.kind!r}")
        if g.rank() != g.rows:
            raise ValueError("Gram matrix is singular")

    @property
    def dim(self) -> int:
        return self.gram.rows


def _sandwich(f, x: np.ndarray, m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x·m·y of encoded arrays."""
    return matmul(f, matmul(f, x, m), y)


def _quad_matrix(form: FormSpec) -> np.ndarray:
    """U with Q(v) = v·U·vᵀ: the basis values on the diagonal and the polar
    form strictly above it."""
    u = np.triu(form.gram.a, 1)
    u[np.diag_indices(form.dim)] = form.quad_diag
    return u


def bilinear(form: FormSpec, u, v) -> int:
    u = np.asarray(u, dtype=np.int64).reshape(1, -1)
    v = np.asarray(v, dtype=np.int64).reshape(-1, 1)
    return int(_sandwich(form.gram.field, u, form.gram.a, v)[0, 0])


def quad_value(form: FormSpec, v) -> int:
    """Q(v) for a quadratic_char2 form, from basis values plus polar form."""
    assert form.kind == "quadratic_char2"
    v = np.asarray(v, dtype=np.int64).reshape(1, -1)
    return int(_sandwich(form.gram.field, v, _quad_matrix(form), v.T)[0, 0])


def preserves_form(m: Mat, form: FormSpec) -> bool:
    if (m.T @ form.gram @ m) != form.gram:
        return False
    if form.kind == "quadratic_char2":
        q = _sandwich(m.field, m.a.T, _quad_matrix(form), m.a)
        return bool(np.array_equal(np.diag(q), form.quad_diag))
    return True


def is_isotropic(form: FormSpec, rows) -> bool:
    """Do all pairwise form values (and Q, if quadratic) vanish on these rows?"""
    f = form.gram.field
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, form.dim)
    if _sandwich(f, rows, form.gram.a, rows.T).any():
        return False
    if form.kind == "quadratic_char2":
        return not np.diag(_sandwich(f, rows, _quad_matrix(form), rows.T)).any()
    return True


def unipotent_constraints(form: FormSpec, w_size: int) -> Mat:
    """Linear conditions on phi: C -> W for I + phi to preserve the form.

    The space splits as W (first w_size coordinates, required totally
    isotropic) plus C (the rest); phi extends by zero on W, so I + phi is the
    block matrix [[I, F], [0, I]].  Unknowns are the entries of F flattened
    row-major.  For symmetric or alternating forms the conditions
    B(phi u, v) + B(u, phi v) = 0 over unordered basis pairs of C are
    complete; a quadratic form in characteristic 2 adds B(c_a, phi c_a) = 0
    per basis vector.  Any solution gives a genuine group element: the
    W-sided conditions hold automatically by isotropy and det(I + phi) = 1.
    """
    f = form.gram.field
    g = form.gram.a
    w, nc = w_size, form.dim - w_size
    if g[:w, :w].any():
        raise ValueError("leading block is not isotropic for the form")
    if form.kind == "quadratic_char2" and any(form.quad_diag[:w]):
        raise ValueError("leading block is not singular for the quadratic form")
    # the row of pair (a, b), a <= b, as a w x nc block over the entries of F:
    # B(w_i, c_b) at (i, a) plus B(c_a, w_i) at (i, b)
    ia, ib = np.triu_indices(nc)
    k = np.arange(ia.size)
    left = np.zeros((ia.size, w, nc), dtype=np.int64)
    right = np.zeros_like(left)
    left[k, :, ia] = g[:w, w:][:, ib].T
    right[k, :, ib] = g[w:, :w][ia]
    blocks = [add(f, left, right)]
    if form.kind == "quadratic_char2":
        diag = np.zeros((nc, w, nc), dtype=np.int64)
        diag[np.arange(nc), :, np.arange(nc)] = g[w:, :w]
        blocks.append(diag)
    rows = np.concatenate(blocks)
    return Mat(f, rows.reshape(rows.shape[0], w * nc))


def unipotent_hom_dim(form: FormSpec, w_size: int) -> int:
    """Dimension over the base field of the solution space of unipotent_constraints."""
    m = unipotent_constraints(form, w_size)
    return m.cols - m.rank()
