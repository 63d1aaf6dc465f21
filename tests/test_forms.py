"""Bilinear and quadratic form objects and the unipotent flag-triviality
constraint engine."""

import numpy as np
import pytest

from symprep.field import make_field
from symprep.forms import (FormSpec, _quad_matrix, is_isotropic, preserves_form,
                           unipotent_constraints, unipotent_hom_dim)
from symprep.linalg import Mat

GF2 = make_field(2)
GF3 = make_field(3)


def standard_symplectic(field, g):
    gram = np.zeros((2 * g, 2 * g), dtype=np.int64)
    gram[:g, g:] = np.eye(g, dtype=np.int64)
    gram[g:, :g] = (-np.eye(g, dtype=np.int64)) % field.p
    return FormSpec(kind="symplectic", gram=Mat(field, gram))


def test_formspec_validation():
    with pytest.raises(ValueError):
        FormSpec(kind="symplectic", gram=Mat(GF3, [[0, 1], [1, 0]]))  # not antisym
    with pytest.raises(ValueError):
        FormSpec(kind="symmetric", gram=Mat(GF3, [[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        FormSpec(kind="quadratic_char2", gram=Mat(GF3, [[0, 1], [1, 0]]),
                 quad_diag=(0, 0))  # wrong characteristic
    with pytest.raises(ValueError):
        # degenerate Gram: zero row
        FormSpec(kind="symplectic", gram=Mat(GF3, [[0, 0], [0, 0]]))


def test_quadratic_char2_polarization():
    # hyperbolic plane: Q(x1, x2) = x1 x2
    form = FormSpec(kind="quadratic_char2", gram=Mat(GF2, [[0, 1], [1, 0]]),
                    quad_diag=(0, 0))

    def quad_value(form, v):
        v = np.asarray(v)
        return int(v @ _quad_matrix(form) @ v) % 2

    assert quad_value(form, [1, 0]) == 0
    assert quad_value(form, [0, 1]) == 0
    assert quad_value(form, [1, 1]) == 1
    # polarization: Q(u+v) - Q(u) - Q(v) = B(u, v)
    for u in ([0, 0], [1, 0], [0, 1], [1, 1]):
        for v in ([0, 0], [1, 0], [0, 1], [1, 1]):
            s = (np.array(u) + np.array(v)) % 2
            lhs = (quad_value(form, s) - quad_value(form, u) - quad_value(form, v)) % 2
            assert lhs == int(np.array(u) @ form.gram.a @ np.array(v)) % 2


def test_preserves_form():
    form = standard_symplectic(GF3, 1)
    rot = Mat(GF3, [[0, 2], [1, 0]])  # determinant 1, swaps the two lines
    assert preserves_form(rot, form)
    assert not preserves_form(Mat(GF3, [[2, 0], [0, 1]]), form)  # scales pairing


def test_is_isotropic():
    form = standard_symplectic(GF2, 2)
    assert is_isotropic(form, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert not is_isotropic(form, [[1, 0, 0, 0], [0, 0, 1, 0]])


def test_unipotent_hom_dim_symplectic_matches_binomial():
    for g in range(1, 6):
        for field in (GF2, GF3):
            form = standard_symplectic(field, g)
            assert unipotent_hom_dim(form, g) == g * (g + 1) // 2


def test_unipotent_constraint_solutions_are_group_elements():
    """Every kernel vector of the constraint system gives a form-preserving
    unipotent fixing the flag."""
    from symprep.linalg import kernel

    for field in (GF2, GF3):
        g = 3
        form = standard_symplectic(field, g)
        cons = unipotent_constraints(form, g)
        ker = kernel(cons)
        assert ker.dim == g * (g + 1) // 2
        for row in ker.basis:
            phi = row.reshape(g, g)
            m = np.eye(2 * g, dtype=np.int64)
            m[:g, g:] = phi
            assert preserves_form(Mat(field, m), form)


def test_unipotent_constraints_reject_non_isotropic_flag():
    form = standard_symplectic(GF2, 2)
    # w_size 3 grabs a line pairing nontrivially with the first block
    with pytest.raises(ValueError):
        unipotent_constraints(form, 3)
