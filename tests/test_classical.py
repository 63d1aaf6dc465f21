"""Classical matrix groups over small finite fields: construction, membership,
root elements, and the closed-form dimension of the unipotent overlap."""

import os
import subprocess
import sys

import numpy as np
import pytest

import symprep
from symprep import classical
from symprep.classical import (closed_form_dim, field_from_order,
                               grid_points, grid_rows, group_membership,
                               intersection_dim, make_classical, rp_reference,
                               ug_generators)
from symprep.linalg import Mat


def test_field_from_order():
    assert field_from_order(8).p == 2 and field_from_order(8).r == 3
    assert field_from_order(25).p == 5
    with pytest.raises(ValueError):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(1)
    with pytest.raises(ValueError):
        field_from_order(2**61 - 1)  # a prime beyond the supported bound


def test_labels_and_dims():
    assert make_classical("SL", 4, 3).label == "SL_4(F_3)"
    assert make_classical("Sp", 3, 2).dim == 6
    assert make_classical("SOeven", 4, 5).dim == 8
    spec = make_classical("SOodd", 3, 3)
    assert spec.dim == 7 and spec.label == "SO_7(F_3)"


def test_construction_errors():
    with pytest.raises(ValueError):
        make_classical("GU", 3, 2)
    with pytest.raises(ValueError):
        make_classical("SL", 1, 2)
    with pytest.raises(ValueError):
        make_classical("SOeven", 3, 3)  # below standard range
    with pytest.raises(ValueError):
        make_classical("SOodd", 3, 4)  # defective in characteristic 2


def test_membership():
    spec = make_classical("SL", 3, 5)
    f = spec.field
    assert group_membership(Mat.identity(f, 3).a, spec)
    d = np.diag([2, 1, 1]).astype(np.int64)
    assert not group_membership(Mat(f, d).a, spec)  # det 2
    d3 = np.diag([2, 3, 1]).astype(np.int64)
    assert group_membership(Mat(f, d3).a, spec)  # det 6 = 1 mod 5

    sp = make_classical("Sp", 2, 3)
    assert group_membership(Mat.identity(sp.field, 4).a, sp)
    swap = np.eye(4, dtype=np.int64)[[1, 0, 2, 3]]
    assert not group_membership(Mat(sp.field, swap).a, sp)

    with pytest.raises(ValueError):
        group_membership(Mat.identity(f, 4).a, spec)


def test_root_elements_properties():
    for family, m, q in (("SL", 4, 4), ("Sp", 3, 3), ("SOeven", 4, 2), ("SOodd", 3, 5)):
        spec = make_classical(family, m, q)
        roots = ug_generators(spec)
        # membership / square-zero / flag-triviality are asserted internally;
        # here spot-check one explicitly and the count
        r = roots[0].matrix
        nil = r - Mat.identity(spec.field, spec.dim)
        assert nil @ nil == Mat.zeros(spec.field, spec.dim, spec.dim)
        assert group_membership(r.a, spec)
        assert len(roots) % spec.field.r == 0


def test_closed_forms():
    assert [closed_form_dim("SL", m) for m in (2, 3, 4, 5)] == [1, 2, 4, 6]
    assert [closed_form_dim("Sp", m) for m in (2, 3, 4)] == [3, 6, 10]
    assert closed_form_dim("SOeven", 4) == 6
    assert [closed_form_dim("SOodd", m) for m in (2, 3)] == [1, 3]


def test_full_grid_matches():
    pts = grid_points()
    assert len(pts) == 36
    for family, m, q in pts:
        res = intersection_dim(make_classical(family, m, q))
        assert res.match, (family, m, q)
        assert res.span_dim == res.computed


def test_grid_rows_schema():
    rows = grid_rows()
    assert len(rows) == 36
    for row in rows:
        assert set(row) >= {"family", "m", "q", "computed", "closed_form", "match"}
        assert row["match"] is True


def test_rp_reference_values():
    assert rp_reference("SL", 5, 3) == 6
    assert rp_reference("Sp", 4, 2) == 10
    assert rp_reference("SOeven", 4, 3) == 6
    # odd orthogonal, odd q: the small-rank exceptional values then the +1 rule
    assert rp_reference("SOodd", 2, 3) == 3
    assert rp_reference("SOodd", 3, 5) == 5
    assert rp_reference("SOodd", 4, 3) == 7
    # even q collapses to the symplectic count
    assert rp_reference("SOodd", 3, 4) == 6
    with pytest.raises(ValueError):
        rp_reference("SU", 3, 2)


def test_odd_orthogonal_even_char_bridge():
    # even characteristic: reference value equals the symplectic overlap dim
    for m in (2, 3):
        for q in (2, 4):
            res = intersection_dim(make_classical("Sp", m, q))
            assert rp_reference("SOodd", m, q) == res.computed


# Each case breaks one input of a certification check in intersection_dim
# and prints what it raised; run under -O, where a bare assert is stripped.
_BROKEN_CHECKS = """
import sys
import numpy as np
from symprep import classical
from symprep.linalg import Mat
if not sys.flags.optimize:
    sys.exit(3)
spec = classical.make_classical("Sp", 2, 4)
f = spec.field
nunk = spec.w_size * (spec.dim - spec.w_size)
cases = {
    "square-zero": ("_root_positions", lambda spec: [("bad", [(0, 0, 1)])]),
    "membership": ("group_membership", lambda mat, spec: False),
    "act trivially": ("_trivial_on_flag", lambda mat, w: False),
    "violates": ("unipotent_constraints", lambda form, w: Mat.identity(f, nunk)),
    "root span": ("unipotent_constraints",
                  lambda form, w: Mat(f, np.zeros((0, nunk), dtype=np.int64))),
}
for words, (name, broken) in cases.items():
    saved = getattr(classical, name)
    setattr(classical, name, broken)
    try:
        classical.intersection_dim(spec)
    except AssertionError as exc:
        print(type(exc).__name__, words in str(exc))
    setattr(classical, name, saved)
"""


def test_intersection_certification_survives_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CHECKS], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["CheckFailed True"] * 5


# One bad root planted among the real ones of each spec; each batched check
# must name it, run under -O.
_PLANTED_ROOT = """
import sys
from symprep import classical
if not sys.flags.optimize:
    sys.exit(3)
real = classical._root_positions
cases = [("SL", 4, 9, [(2, 0, 1)], "act trivially"),
         ("Sp", 2, 9, [(0, 2, 1), (1, 3, -1)], "membership"),
         ("SOodd", 3, 25, [(0, 0, 1)], "square-zero")]
for family, m, q, positions, words in cases:
    classical._root_positions = lambda spec: real(spec)[:1] + [("planted", positions)] + real(spec)[1:]
    try:
        classical.intersection_dim(classical.make_classical(family, m, q))
    except AssertionError as exc:
        print(type(exc).__name__, words in str(exc), "root element planted (t=1)" in str(exc))
"""


def test_planted_bad_root_is_named_under_python_O():
    src = os.path.dirname(os.path.dirname(symprep.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _PLANTED_ROOT],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["CheckFailed True True"] * 3


def test_stacked_verdicts_match_single_matrices():
    """A stack gets one verdict per matrix, the verdict each matrix gets
    alone; the swap v_1 <-> v_{-1} fails on det -1 or on the form in odd
    characteristic, and is in SO_8(F_4)."""
    rng = np.random.default_rng(3)
    for family, m, q in (("SL", 4, 9), ("Sp", 2, 9), ("SOeven", 4, 4), ("SOodd", 2, 25)):
        spec = make_classical(family, m, q)
        d = spec.dim
        roots = np.stack([r.matrix.a for r in ug_generators(spec)])
        swap = list(range(d))  # v_1 <-> v_{-1}: det -1, and form-preserving in SO
        last = d - 1 if family == "SL" else 2 * m - 1
        swap[0], swap[last] = last, 0
        reflection = np.eye(d, dtype=np.int64)[swap]
        stack = np.concatenate([roots, rng.integers(0, q, size=(4, d, d)),
                                roots[:1].swapaxes(1, 2), reflection[None],
                                np.eye(d, dtype=np.int64)[None]])
        member = group_membership(stack, spec)
        assert member.tolist() == [bool(group_membership(a, spec)) for a in stack]
        assert member[:len(roots)].all() and member[-1]
        assert member[-2] == (q % 2 == 0)
        flag = classical._trivial_on_flag(stack, spec.w_size)
        assert flag.tolist() == [bool(classical._trivial_on_flag(a, spec.w_size)) for a in stack]
        assert flag[:len(roots)].all() and not flag[len(roots) + 4]


@pytest.mark.parametrize("point", [("Sp", 3, 9), ("SOodd", 3, 9), ("SOeven", 4, 9),
                                   ("SL", 5, 27), ("SOodd", 3, 25)], ids=str)
def test_odd_extension_points_match(point):
    res = intersection_dim(make_classical(*point))
    assert res.match and res.span_dim == res.computed
