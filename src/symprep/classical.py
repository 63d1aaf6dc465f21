"""Classical matrix groups over F_q and their overlap with a Siegel parabolic.

Each group comes with a hyperbolic-pair coordinate system: basis ordered
(v_1 ... v_m, v_{-m} ... v_{-1}) so the distinguished maximal isotropic
subspace W is the span of the first m coordinates and the unipotent radical
of its stabilizer is strictly block upper triangular.  The headline number,
dim over F_q of the set of unipotent block matrices I + phi inside the group,
is computed as the nullity of an explicit linear constraint system and
cross-checked against the span of named root-subgroup generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import CheckFailed, require
from .field import GF, MAX_PRIME, make_field
from .forms import FormSpec, preserves_form, unipotent_constraints
from .linalg import Mat, add, det, matmul, neg

FAMILIES = ("SL", "Sp", "SOeven", "SOodd")


def field_from_order(q: int) -> GF:
    """GF(q) from the prime-power order q."""
    if q < 2:
        raise ValueError("field order must be at least 2")
    p = next((d for d in range(2, min(q, MAX_PRIME) + 1) if q % d == 0), None)
    if p is None:
        raise ValueError(f"{q} has no prime factor <= {MAX_PRIME}")
    r, t = 0, q
    while t % p == 0:
        t //= p
        r += 1
    if t != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, r)


@dataclass(frozen=True)
class ClassicalSpec:
    family: str
    m: int
    q: int
    field: GF
    dim: int
    form: Optional[FormSpec]
    w_size: int
    label: str


def _flip(m: int) -> np.ndarray:
    return np.eye(m, dtype=np.int64)[::-1].copy()


def make_classical(family: str, m: int, q: int) -> ClassicalSpec:
    """Standard representation of SL_m, Sp_2m, SO_2m or SO_{2m+1} over F_q.

    Only the range the closed-form dimension statements are made for is
    built: rank at least 2, and at least 4 for SOeven.  Any other rank, an
    unknown family, a q that is not a prime power and SOodd in
    characteristic 2 raise ValueError.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fld = field_from_order(q)
    p = fld.p
    if m < 2:
        raise ValueError("rank parameter must be at least 2")
    if family == "SOeven" and m < 4:
        raise ValueError(f"{family} with m={m} is outside the standard range")
    if family == "SOodd" and p == 2:
        raise ValueError("odd orthogonal groups in characteristic 2 are defective; "
                         "use Sp with the same rank instead")

    if family == "SL":
        return ClassicalSpec(family, m, q, fld, m, None, m // 2, f"SL_{m}(F_{q})")

    j = _flip(m)
    if family == "Sp":
        gram = np.zeros((2 * m, 2 * m), dtype=np.int64)
        gram[:m, m:] = j
        gram[m:, :m] = (-j) % p
        form = FormSpec(kind="symplectic", gram=Mat(fld, gram))
        return ClassicalSpec(family, m, q, fld, 2 * m, form, m, f"Sp_{2*m}(F_{q})")
    if family == "SOeven":
        gram = np.zeros((2 * m, 2 * m), dtype=np.int64)
        gram[:m, m:] = j
        gram[m:, :m] = j
        if p == 2:
            form = FormSpec(kind="quadratic_char2", gram=Mat(fld, gram),
                            quad_diag=(0,) * (2 * m))
        else:
            form = FormSpec(kind="symmetric", gram=Mat(fld, gram))
        return ClassicalSpec(family, m, q, fld, 2 * m, form, m, f"SO_{2*m}(F_{q})")
    # SOodd: hyperbolic pairs plus one anisotropic line pairing with itself
    n = 2 * m + 1
    gram = np.zeros((n, n), dtype=np.int64)
    gram[:m, m:2 * m] = j
    gram[m:2 * m, :m] = j
    gram[n - 1, n - 1] = 1
    form = FormSpec(kind="symmetric", gram=Mat(fld, gram))
    return ClassicalSpec(family, m, q, fld, n, form, m, f"SO_{n}(F_{q})")


def group_membership(a: np.ndarray, spec: ClassicalSpec):
    """Defining conditions, one verdict per matrix of the encoded stack `a`
    of shape (..., d, d): det 1 for SL and SO, form preservation for Sp and
    SO."""
    if a.shape[-2:] != (spec.dim, spec.dim):
        raise ValueError(f"matrix size {a.shape[-2:]} does not fit {spec.label}")
    if spec.family == "SL":
        return det(spec.field, a) == 1
    ok = preserves_form(a, spec.form)
    if spec.family != "Sp":
        ok &= det(spec.field, a) == 1
    return ok


# ---------------------------------------------------------------------------
# root subgroups inside the parabolic


@dataclass(frozen=True)
class RootElement:
    label: str
    t: int  # encoded field scalar
    matrix: Mat


def _trivial_on_flag(a: np.ndarray, w: int):
    """Is each matrix of the shape [[I, *], [0, I]] for the leading w
    coordinates?  One verdict per matrix of the encoded stack `a` of shape
    (..., d, d)."""
    off = a != np.eye(a.shape[-1], dtype=np.int64)
    off[..., :w, w:] = False  # the block * is free
    return ~off.any(axis=(-2, -1))


def _root_positions(spec: ClassicalSpec):
    """(label, [(row, col, sign)]) per root whose group lands in the parabolic.

    Coordinates: v_i at index i-1, v_{-i} at index 2m-i.  Signs are +1/-1
    before field encoding.
    """
    m = spec.m
    out = []
    if spec.family == "SL":
        k = spec.w_size
        for i in range(1, k + 1):
            for jj in range(k + 1, m + 1):
                out.append((f"e{i}-e{jj}", [(i - 1, jj - 1, 1)]))
        return out
    if spec.family == "Sp":
        for i in range(1, m + 1):
            for jj in range(i + 1, m + 1):
                out.append((f"e{i}+e{jj}", [(i - 1, 2 * m - jj, 1), (jj - 1, 2 * m - i, 1)]))
        for i in range(1, m + 1):
            out.append((f"2e{i}", [(i - 1, 2 * m - i, 1)]))
        return out
    for i in range(1, m + 1):
        for jj in range(i + 1, m + 1):
            out.append((f"e{i}+e{jj}", [(i - 1, 2 * m - jj, 1), (jj - 1, 2 * m - i, -1)]))
    return out


def _require_each(ok, keys: list, failure: str) -> None:
    """Raise CheckFailed naming the first root element (label, t) of `keys`
    whose verdict is false; a single verdict stands for every element."""
    ok = np.broadcast_to(ok, (len(keys),))
    if not ok.all():
        label, t = keys[int(np.argmin(ok))]
        raise CheckFailed(f"root element {label} (t={t}) {failure}")


def ug_generators(spec: ClassicalSpec) -> list[RootElement]:
    """Root elements I + t X spanning the unipotent overlap, one per root per
    F_p-basis scalar t of F_q.  They are built and checked as one stack: each
    must be square-zero unipotent, a group member, and trivial on W and V/W."""
    fld, d = spec.field, spec.dim
    scalars = fld.p ** np.arange(fld.r, dtype=np.int64)  # encodings of 1, x, x^2, ...
    signed = {1: scalars, -1: neg(fld, scalars)}
    roots = _root_positions(spec)
    x = np.zeros((len(roots), fld.r, d, d), dtype=np.int64)
    for i, (_, positions) in enumerate(roots):
        for row, col, sgn in positions:
            x[i, :, row, col] = signed[sgn]
    ident = np.eye(d, dtype=np.int64)
    mats = add(fld, x.reshape(-1, d, d), ident)
    keys = [(label, int(t)) for label, _ in roots for t in scalars]
    nil = add(fld, mats, neg(fld, ident))
    _require_each(~matmul(fld, nil, nil).any(axis=(-2, -1)), keys, "is not square-zero")
    _require_each(group_membership(mats, spec), keys, f"fails membership in {spec.label}")
    _require_each(_trivial_on_flag(mats, spec.w_size), keys,
                  "does not act trivially on W and V/W")
    return [RootElement(label=label, t=t, matrix=Mat._of(fld, m))
            for (label, t), m in zip(keys, mats)]


# ---------------------------------------------------------------------------
# the intersection dimension


@dataclass(frozen=True)
class IntersectionResult:
    computed: int
    closed_form: int
    match: bool
    span_dim: int


def closed_form_dim(family: str, m: int) -> int:
    if family == "SL":
        return (m * m) // 4
    if family == "Sp":
        return m * (m + 1) // 2
    return m * (m - 1) // 2


def intersection_dim(spec: ClassicalSpec) -> IntersectionResult:
    """dim over F_q of {unipotent I + phi in the group trivial on W and V/W}.

    Computed as the nullity of the linear constraints on phi: V/W -> W (none
    for SL, where determinant 1 is automatic), then certified against the
    root elements: their phi-vectors must satisfy every constraint and span a
    space of exactly the computed dimension.
    """
    fld = spec.field
    w = spec.w_size
    nunk = w * (spec.dim - w)
    if spec.family == "SL":
        cons = Mat.zeros(fld, 0, nunk)
        computed = nunk
    else:
        cons = unipotent_constraints(spec.form, w)
        computed = cons.cols - cons.rank()
    roots = ug_generators(spec)
    # the upper-right blocks, row-major: the constraint system's unknown order
    vecs = np.stack([r.matrix.a for r in roots])[:, :w, w:].reshape(len(roots), nunk)
    if cons.rows:
        residual = cons @ Mat(fld, vecs.T)
        require(residual == Mat.zeros(fld, cons.rows, vecs.shape[0]),
                "a root element violates the form constraints")
    span_dim = Mat(fld, vecs).rank()
    require(span_dim == computed,
            f"root span {span_dim} != constraint nullity {computed} for {spec.label}")
    cf = closed_form_dim(spec.family, spec.m)
    return IntersectionResult(computed=computed, closed_form=cf,
                              match=computed == cf, span_dim=span_dim)


def rp_reference(family: str, m: int, q: int) -> int:
    """Looked-up reference value of the maximal elementary abelian rank ratio.

    Agrees with the closed-form intersection dimension except for odd
    orthogonal groups, where larger elementary abelian subgroups exist: for
    odd q the value is m(m-1)/2 + 1 once m >= 4 (5 for m = 3, 3 for m = 2),
    and for even q the group is the rank-m symplectic group in disguise.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family != "SOodd":
        return closed_form_dim(family, m)
    if q % 2 == 0:
        return m * (m + 1) // 2
    if m >= 4:
        return m * (m - 1) // 2 + 1
    return {3: 5, 2: 3}[m]


# ---------------------------------------------------------------------------
# the verification grid


def grid_points():
    """(family, m, q) tuples of the desk-scale verification grid."""
    pts = []
    for q in (2, 3, 4, 5):
        for m in (2, 3, 4, 5):
            pts.append(("SL", m, q))
        for m in (2, 3, 4):
            pts.append(("Sp", m, q))
        pts.append(("SOeven", 4, q))
        if q % 2 == 1:
            for m in (2, 3):
                pts.append(("SOodd", m, q))
    return pts


def grid_rows():
    """One row per grid point: the six columns of `table rp`."""
    rows = []
    for family, m, q in grid_points():
        spec = make_classical(family, m, q)
        res = intersection_dim(spec)
        rows.append({
            "family": family,
            "m": m,
            "q": q,
            "computed": res.computed,
            "closed_form": res.closed_form,
            "match": res.match,
        })
    return rows
