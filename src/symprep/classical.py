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

from .checks import require
from .field import GF, make_field
from .forms import FormSpec, preserves_form, unipotent_constraints
from .linalg import Mat

FAMILIES = ("SL", "Sp", "SOeven", "SOodd")


def field_from_order(q: int) -> GF:
    """GF(q) from the prime-power order q."""
    if q < 2:
        raise ValueError("field order must be at least 2")
    p = next(d for d in range(2, q + 1) if q % d == 0)
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
    nonstandard: bool
    label: str


def _flip(m: int) -> np.ndarray:
    return np.eye(m, dtype=np.int64)[::-1].copy()


def make_classical(family: str, m: int, q: int, allow_nonstandard: bool = False) -> ClassicalSpec:
    """Standard representation of SL_m, Sp_2m, SO_2m or SO_{2m+1} over F_q.

    SOeven below rank 4 (and SOodd/Sp below rank 2) fall outside the range
    the closed-form dimension statements are made for; such specs are only
    built when allow_nonstandard is set and carry nonstandard=True.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    fld = field_from_order(q)
    p = fld.p
    nonstandard = m < (4 if family == "SOeven" else 2)
    if m < 2:
        raise ValueError("rank parameter must be at least 2")
    if nonstandard and not allow_nonstandard:
        raise ValueError(f"{family} with m={m} is outside the standard range; "
                         "pass allow_nonstandard=True to build it anyway")
    if family == "SOodd" and p == 2:
        raise ValueError("odd orthogonal groups in characteristic 2 are defective; "
                         "use Sp with the same rank instead")

    if family == "SL":
        return ClassicalSpec(family, m, q, fld, m, None, m // 2, nonstandard,
                             f"SL_{m}(F_{q})")

    j = _flip(m)
    if family == "Sp":
        gram = np.zeros((2 * m, 2 * m), dtype=np.int64)
        gram[:m, m:] = j
        gram[m:, :m] = (-j) % p
        form = FormSpec(kind="symplectic", gram=Mat(fld, gram))
        return ClassicalSpec(family, m, q, fld, 2 * m, form, m, nonstandard,
                             f"Sp_{2*m}(F_{q})")
    if family == "SOeven":
        gram = np.zeros((2 * m, 2 * m), dtype=np.int64)
        gram[:m, m:] = j
        gram[m:, :m] = j
        if p == 2:
            form = FormSpec(kind="quadratic_char2", gram=Mat(fld, gram),
                            quad_diag=(0,) * (2 * m))
        else:
            form = FormSpec(kind="symmetric", gram=Mat(fld, gram))
        return ClassicalSpec(family, m, q, fld, 2 * m, form, m, nonstandard,
                             f"SO_{2*m}(F_{q})")
    # SOodd: hyperbolic pairs plus one anisotropic line pairing with itself
    n = 2 * m + 1
    gram = np.zeros((n, n), dtype=np.int64)
    gram[:m, m:2 * m] = j
    gram[m:2 * m, :m] = j
    gram[n - 1, n - 1] = 1
    form = FormSpec(kind="symmetric", gram=Mat(fld, gram))
    return ClassicalSpec(family, m, q, fld, n, form, m, nonstandard,
                         f"SO_{n}(F_{q})")


def group_membership(mat: Mat, spec: ClassicalSpec) -> bool:
    """Defining conditions: det 1 for SL and SO, form preservation for Sp and SO."""
    if mat.shape != (spec.dim, spec.dim):
        raise ValueError(f"matrix size {mat.shape} does not fit {spec.label}")
    if mat.field != spec.field:
        raise ValueError("matrix field does not match the group field")
    if spec.family == "SL":
        return mat.det() == 1
    if not preserves_form(mat, spec.form):
        return False
    if spec.family in ("SOeven", "SOodd") and mat.det() != 1:
        return False
    return True


# ---------------------------------------------------------------------------
# root subgroups inside the parabolic


@dataclass(frozen=True)
class RootElement:
    label: str
    t: int  # encoded field scalar
    matrix: Mat


def _trivial_on_flag(mat: Mat, w: int) -> bool:
    """Is the matrix of the shape [[I, *], [0, I]] for the leading w coordinates?"""
    a = mat.a
    n = mat.rows
    return (np.array_equal(a[:w, :w], np.eye(w, dtype=np.int64))
            and not a[w:, :w].any()
            and np.array_equal(a[w:, w:], np.eye(n - w, dtype=np.int64)))


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


def ug_generators(spec: ClassicalSpec) -> list[RootElement]:
    """Root elements I + t X spanning the unipotent overlap, one per root per
    F_p-basis scalar t of F_q; each is checked to be square-zero unipotent, a
    group member, and trivial on W and V/W."""
    fld = spec.field
    scalars = [fld.p ** k for k in range(fld.r)]  # encodings of 1, x, x^2, ...
    out = []
    ident = Mat.identity(fld, spec.dim)
    for label, positions in _root_positions(spec):
        for t in scalars:
            x = np.zeros((spec.dim, spec.dim), dtype=np.int64)
            for row, col, sgn in positions:
                x[row, col] = t if sgn == 1 else fld.neg(t)
            mat = ident + Mat(fld, x)
            nil = mat - ident
            require((nil @ nil) == Mat.zeros(fld, spec.dim, spec.dim),
                    f"root {label} is not square-zero")
            require(group_membership(mat, spec),
                    f"root element {label} (t={t}) fails membership in {spec.label}")
            require(_trivial_on_flag(mat, spec.w_size),
                    f"root {label} does not act trivially on W and V/W")
            out.append(RootElement(label=label, t=t, matrix=mat))
    return out


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


def _phi_vector(mat: Mat, w: int) -> np.ndarray:
    """Row-major flattening of the upper-right block, matching the constraint
    system's unknown order."""
    return mat.a[:w, w:].reshape(-1)


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
    vecs = np.array([_phi_vector(r.matrix, w) for r in roots], dtype=np.int64)
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
    """One result dict per grid point, ready for table emission."""
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
            "rp_reference": rp_reference(family, m, q),
            "match": res.match,
        })
    return rows
