"""Bracket-generation diagnostics and line-integral smoothness conditions.

Numerically verifies the two hypotheses the probabilistic smoothness
results rest on: that the frame fields together with their iterated
brackets span the tangent space, and that the recursive functionals
attached to a 1-form do not all vanish.  Differentiation is analytic
where the model supplies jacobians and central finite differences
elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import ModelDescriptor, central_difference, fd_quotient, fd_stencil
from .observables import OneForm

__all__ = [
    "VectorField",
    "frame_vector_field",
    "lie_bracket",
    "BracketTable",
    "span_rank",
    "phi_functional",
    "smoothness_condition",
    "apply_generator",
    "index_label",
]

# singular values at most RANK_EPS times the largest do not count towards
# the rank: genuine degeneracy, not finite-difference noise
RANK_EPS = 1e-8
# a recursive functional certifies smoothness once its modulus exceeds this
PHI_THRESHOLD = 1e-8


def index_label(a: int) -> str:
    """Human-readable frame label: 0 -> T, 2 -> 2, -2 -> 2* (conjugate)."""
    if a == 0:
        return "T"
    return str(a) if a > 0 else f"{-a}*"


@dataclass(frozen=True)
class VectorField:
    """A complex vector field on the chart with optional analytic jacobian."""

    comps: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "W"

    def at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.comps(np.asarray(x, dtype=float)), dtype=complex)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """d_j W^k as [..., k, j]; finite differences unless analytic."""
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=complex)
        return central_difference(self.at, x)

    def bracket(self, other: "VectorField") -> "VectorField":
        def comps(x: np.ndarray) -> np.ndarray:
            return _bracket_value(
                self.at(x), self.jacobian(x), other.at(x), other.jacobian(x)
            )

        return VectorField(comps=comps, name=f"[{self.name},{other.name}]")


def _bracket_value(w: np.ndarray, jw: np.ndarray, v: np.ndarray,
                   jv: np.ndarray) -> np.ndarray:
    """[W, V] = (dV) W - (dW) V from values and jacobians at the same points."""
    return np.einsum("...kj,...j->...k", jv, w) - np.einsum("...kj,...j->...k", jw, v)


def _column(frame_array: np.ndarray, a: int) -> np.ndarray:
    """Column of a frame-indexed array (last axis) for signed index a != 0."""
    col = frame_array[..., abs(a) - 1]
    return col if a > 0 else np.conj(col)


def frame_vector_field(m: ModelDescriptor, a: int) -> VectorField:
    """The frame field with signed index a as a VectorField."""
    jac = None
    if a != 0 and m.frame_jacobian is not None:

        def jac(x: np.ndarray) -> np.ndarray:
            return _column(m.frame_jacobian(x), a)

    return VectorField(
        comps=lambda x: m.frame_field(a, x), jac=jac, name=index_label(a)
    )


def lie_bracket(m: ModelDescriptor, a: int, b: int, x: np.ndarray) -> np.ndarray:
    """[Z_a, Z_b] at x from coefficient jacobians (signed frame indices)."""
    m.require_inside(x)
    return frame_vector_field(m, a).bracket(frame_vector_field(m, b)).at(x)


# ---------------------------------------------------------------------------
# span of fields and iterated brackets


@dataclass
class BracketTable:
    """Fields and iterated brackets at a point, or a batch, with their real span."""

    x: np.ndarray
    tags: list[tuple[int, ...]]
    vectors: np.ndarray          # (count, D) complex, (P, count, D) for a batch
    singular_values: np.ndarray  # descending along the last axis
    rank: int | np.ndarray       # (P,) integer array for a batch


def _alphabet(n: int) -> list[int]:
    """Signed frame indices [1..n, 1*..n*] in scan order."""
    return list(range(1, n + 1)) + list(range(-1, -n - 1, -1))


def _bracket_tags(n: int, max_order: int) -> list[list[tuple[int, ...]]]:
    """Tags of the frame fields and nested brackets, one list per order.

    Order 1 holds Z_1..Z_n; order 2 one bracket per unordered pair of the
    alphabet [1..n, 1*..n*], conjugate pairs skipped; order r + 1 brackets
    every letter with every tag of order r, tag-major.
    """
    alphabet = _alphabet(n)
    orders = [[(a,) for a in range(1, n + 1)]]
    if max_order >= 2:
        pairs = []
        for i, a in enumerate(alphabet):
            for b in alphabet[i + 1 :]:
                if tuple(sorted((-a, -b), key=alphabet.index)) not in pairs:
                    pairs.append((a, b))
        orders.append(pairs)
    for _order in range(3, max_order + 1):
        orders.append([(a,) + tag for tag in orders[-1] for a in alphabet])
    return orders


def _bracket_values(m: ModelDescriptor, x: np.ndarray,
                    max_order: int) -> tuple[list, np.ndarray]:
    """Tags and values (..., count, D) of every field and bracket at x.

    Generations are evaluated in order, each once over the whole batch.
    A bracket of order r + 1 needs the finite-difference jacobian of its
    order-r tail, so order r is evaluated on x and on its nested stencils
    up to depth max_order - r: P (2D)^(max_order - 2) points for order 2.
    Each tail's jacobian is computed once and shared by every head letter.
    The frame and its jacobian are evaluated once per stencil depth, the
    jacobian by central differences when the model supplies none.
    """
    alphabet = _alphabet(m.n)
    points = [np.asarray(x, dtype=float)]
    for _depth in range(max_order - 2):
        points.append(fd_stencil(points[-1]))
    frames = [np.asarray(m.frame(y), dtype=complex) for y in points]
    if m.frame_jacobian is not None:
        frame_jacs = [np.asarray(m.frame_jacobian(y), dtype=complex) for y in points]
    else:  # (..., k, a, j) -> (..., k, j, a), the layout of frame_jacobian
        frame_jacs = [np.swapaxes(central_difference(m.frame, y), -1, -2)
                      for y in points]
    head = {a: [_column(z, a) for z in frames] for a in alphabet}
    head_jac = {a: [_column(jz, a) for jz in frame_jacs] for a in alphabet}

    orders = _bracket_tags(m.n, max_order)
    # vals[tag][d], jacs[tag][d]: the current order on the depth-d points
    vals = {(a,): head[a] for a in alphabet}
    jacs = {(a,): head_jac[a] for a in alphabet}
    vectors = [vals[tag][0] for tag in orders[0]]
    for depths, tags in zip(range(len(points), 0, -1), orders[1:]):
        vals = {
            tag: [
                _bracket_value(head[tag[0]][d], head_jac[tag[0]][d],
                               vals[tag[1:]][d], jacs[tag[1:]][d])
                for d in range(depths)
            ]
            for tag in tags
        }
        jacs = {
            tag: [fd_quotient(v, v.ndim - 2) for v in vs[1:]]
            for tag, vs in vals.items()
        }
        vectors += [vs[0] for vs in vals.values()]
    return [tag for order in orders for tag in order], np.stack(vectors, axis=-2)


def span_rank(m: ModelDescriptor, x: np.ndarray, max_order: int) -> BracketTable:
    """Real span of Re/Im frame fields and brackets up to max_order.

    x is one point (D,) or a batch (P, D).  Every bracket generation is
    evaluated once over the batch and the singular values come from one
    batched SVD; per point the arithmetic is that of a single-point call,
    so a batch row equals the call on that row bitwise.  For a batch,
    vectors is (P, count, D), singular_values (P, k) and rank a (P,)
    integer array; for one point, (count, D), (k,) and an int.  The
    finite-difference jacobians behind orders >= 3 evaluate the order-2
    brackets on P (2D)^(max_order - 2) stencil points, so memory grows by
    a factor 2D with each order above 2.

    Rank counts singular values above RANK_EPS times the largest one.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    x = np.asarray(x, dtype=float)
    tags, vectors = _bracket_values(m, x, max_order)
    real_cols = np.swapaxes(
        np.concatenate([vectors.real, vectors.imag], axis=-2), -1, -2
    )
    sv = np.linalg.svd(real_cols, compute_uv=False)
    rank = np.count_nonzero(sv > RANK_EPS * sv[..., :1], axis=-1)
    return BracketTable(
        x=x, tags=tags, vectors=vectors, singular_values=sv,
        rank=int(rank) if x.ndim == 1 else rank,
    )


# ---------------------------------------------------------------------------
# recursive smoothness functionals for line integrals


def _along(direction: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
           x: np.ndarray) -> np.ndarray:
    """Derivative of a broadcasting scalar f along complex directions at x."""
    return np.einsum("...j,...j->...", direction, central_difference(f, x))


def _frame_comp(m: ModelDescriptor, form: OneForm, a: int, x: np.ndarray) -> np.ndarray:
    return np.einsum("...k,...k->...", form.comps(x), m.frame_field(a, x))


def _frame_comp_derivative(
    m: ModelDescriptor, form: OneForm, a: int, x: np.ndarray, direction: np.ndarray
) -> np.ndarray:
    """Derivative of x -> Xi(Z_a)(x) along complex directions, per point.

    Uses the product-rule with analytic jacobians when both the form and
    the frame supply them, otherwise central differences.
    """
    if form.chart_jacobian is not None and (a == 0 or m.frame_jacobian is not None):
        comps = form.comps(x)
        cjac = np.asarray(form.chart_jacobian(x), dtype=complex)  # [k, j]
        fld = m.frame_field(a, x)
        fjac = frame_vector_field(m, a).jacobian(x)               # [k, j]
        grad = np.einsum("...kj,...k->...j", cjac, fld) + np.einsum("...k,...kj->...j", comps, fjac)
        return np.einsum("...j,...j->...", direction, grad)
    return _along(direction, lambda y: _frame_comp(m, form, a, y), x)


def _nested_bracket(m: ModelDescriptor, indices: Sequence[int]) -> VectorField:
    """[Z_{i0}, [Z_{i1}, [... Z_{ik}]]] for a sequence of signed indices."""
    fld = frame_vector_field(m, indices[-1])
    for a in reversed(indices[:-1]):
        fld = frame_vector_field(m, a).bracket(fld)
    return fld


def _phi(m: ModelDescriptor, form: OneForm, indices: tuple[int, ...],
         x: np.ndarray) -> np.ndarray:
    """phi_functional at points x (..., D), broadcast over leading axes."""
    m.require_inside(x)
    head, tail = indices[0], indices[1:]
    if not tail:
        return _frame_comp(m, form, head, x)
    if len(tail) == 1:
        term1 = _frame_comp_derivative(m, form, tail[0], x, m.frame_field(head, x))
    else:
        term1 = _along(m.frame_field(head, x), lambda y: _phi(m, form, tail, y), x)
    bracket_dir = _nested_bracket(m, tail).at(x)
    return term1 - _frame_comp_derivative(m, form, head, x, bracket_dir)


def phi_functional(
    m: ModelDescriptor, form: OneForm, indices: Sequence[int], x: np.ndarray
) -> complex:
    """Recursive functional whose nonvanishing certifies a smooth density.

    Base case is the frame pairing; the recursive step differentiates the
    tail functional along the head field and subtracts the nested bracket
    of the tail applied to the head pairing.  For two indices the bracket
    degenerates to the single tail field (literal reading of the
    recursion; see the decisions ledger).

    The tail functional is differentiated by one central-difference call
    on the stacked stencil, so k indices evaluate the recursion at
    (2D)^(k - 2) points at the deepest level; every level checks that its
    points, the stencil probes included, lie inside the chart.
    """
    indices = tuple(int(a) for a in indices)
    if len(indices) == 0:
        raise ValueError("need at least one frame index")
    if any(a == 0 for a in indices):
        raise ValueError("indices range over the frame and its conjugates, not T")
    return complex(_phi(m, form, indices, np.asarray(x, dtype=float)))


def smoothness_condition(
    m: ModelDescriptor, form: OneForm, x: np.ndarray, max_order: int
) -> tuple[bool, tuple[int, ...] | None, complex]:
    """Breadth-first search for a nonvanishing recursive functional.

    Multi-indices are scanned by increasing length and lexicographically
    within a length, over the alphabet [1..n, 1*..n*], so witnesses are
    reproducible; the first with modulus above PHI_THRESHOLD is the
    witness.  Returns (satisfied, witness, value).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    alphabet = _alphabet(m.n)
    stack = [(a,) for a in alphabet]
    for _order in range(1, max_order + 1):
        for idx in stack:
            val = phi_functional(m, form, idx, x)
            if abs(val) > PHI_THRESHOLD:
                return True, idx, val
        stack = [idx + (a,) for idx in stack for a in alphabet]
    return False, None, 0.0j


# ---------------------------------------------------------------------------
# the local generator, used as a harmonicity oracle


def apply_generator(m: ModelDescriptor, f: Callable[[np.ndarray], np.ndarray],
                    x: np.ndarray) -> complex:
    """Apply the diffusion generator to a scalar function at a point.

    Local representation: half the sum of the symmetrized second frame
    derivatives minus the Christoffel drift.  f maps (..., D) to (...) and
    must broadcast over leading axes: each frame derivative is one
    central-difference call on the stacked stencil, so a second derivative
    evaluates f at (2D)^2 points.  Intended as a numerical oracle for
    harmonicity checks, not a performance path.
    """
    x = np.asarray(x, dtype=float)
    n = m.n

    def deriv(a: int, g: Callable[[np.ndarray], np.ndarray]):
        """Z_a g as a broadcasting function."""
        return lambda y: _along(m.frame_field(a, y), g, y)

    total = 0.0 + 0.0j
    for a in range(1, n + 1):
        total += deriv(a, deriv(-a, f))(x)
        total += deriv(-a, deriv(a, f))(x)
    gam = m.christoffel(x)
    drift = 0.0 + 0.0j
    for a in range(1, n + 1):
        c_a = complex(sum(gam[n + b, b - 1, a - 1] for b in range(1, n + 1)))
        drift += c_a * deriv(a, f)(x)
        drift += np.conj(c_a) * deriv(-a, f)(x)
    return complex(0.5 * (total - drift))
