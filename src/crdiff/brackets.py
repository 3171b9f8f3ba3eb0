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

from .models import FD_STEP, ModelDescriptor, central_difference, fd_quotient, fd_stencil
from .observables import OneForm

__all__ = [
    "VectorField",
    "frame_vector_field",
    "lie_bracket",
    "BracketTable",
    "span_rank",
    "directional_derivative",
    "phi_functional",
    "smoothness_condition",
    "apply_generator",
    "index_label",
]

RANK_EPS = 1e-8
PHI_THRESHOLD = 1e-8


def index_label(a: int) -> str:
    """Human-readable frame label: 0 -> T, 2 -> 2, -2 -> 2* (conjugate)."""
    if a == 0:
        return "T"
    return str(a) if a > 0 else f"{-a}*"


def directional_derivative(
    f: Callable[[np.ndarray], complex], x: np.ndarray, direction: np.ndarray,
    h: float = FD_STEP,
) -> complex:
    """Central-difference derivative of a scalar along a complex vector.

    The scalar oracle of the package, kept as a loop over coordinates
    rather than one stacked call: f need not broadcast (phi_functional
    differentiates its own per-point recursion through it), and
    coordinates where the direction vanishes are never evaluated.
    """
    x = np.asarray(x, dtype=float)
    total = 0.0 + 0.0j
    for j in range(x.shape[-1]):
        d = direction[..., j]
        if d == 0:
            continue
        e = np.zeros_like(x)
        e[j] = h
        total += d * (f(x + e) - f(x - e)) / (2.0 * h)
    return complex(total)


@dataclass(frozen=True)
class VectorField:
    """A complex vector field on the chart with optional analytic jacobian."""

    comps: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "W"

    def at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.comps(np.asarray(x, dtype=float)), dtype=complex)

    def jacobian(self, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
        """d_j W^k as [..., k, j]; finite differences unless analytic."""
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=complex)
        return central_difference(self.at, x, h)

    def apply(self, f: Callable[[np.ndarray], complex], x: np.ndarray,
              h: float = FD_STEP) -> complex:
        """Derivation of a scalar function: (W f)(x)."""
        return directional_derivative(f, x, self.at(x), h=h)

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


def frame_vector_field(m: ModelDescriptor, a: int) -> VectorField:
    """The frame field with signed index a as a VectorField."""
    jac = None
    if a != 0 and m.frame_jacobian is not None:

        def jac(x: np.ndarray) -> np.ndarray:
            full = m.frame_jacobian(x)[..., abs(a) - 1]
            return full if a > 0 else np.conj(full)

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
    rank_eps: float

    def full(self, dim: int) -> bool | np.ndarray:
        """Whether the span is the whole tangent space, per point for a batch."""
        return self.rank == dim


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


def _bracket_values(m: ModelDescriptor, x: np.ndarray, max_order: int,
                    h: float = FD_STEP) -> tuple[list, np.ndarray]:
    """Tags and values (..., count, D) of every field and bracket at x.

    Generations are evaluated in order, each once over the whole batch.
    A bracket of order r + 1 needs the finite-difference jacobian of its
    order-r tail, so order r is evaluated on x and on its nested stencils
    up to depth max_order - r: P (2D)^(max_order - 2) points for order 2.
    Each tail's jacobian is computed once and shared by every head letter.
    """
    alphabet = _alphabet(m.n)
    points = [np.asarray(x, dtype=float)]
    for _depth in range(max_order - 2):
        points.append(fd_stencil(points[-1], h))
    frame = {a: frame_vector_field(m, a) for a in alphabet}
    head = {a: [f.at(y) for y in points] for a, f in frame.items()}
    head_jac = {a: [f.jacobian(y, h) for y in points] for a, f in frame.items()}

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
            tag: [fd_quotient(v, v.ndim - 2, h) for v in vs[1:]]
            for tag, vs in vals.items()
        }
        vectors += [vs[0] for vs in vals.values()]
    return [tag for order in orders for tag in order], np.stack(vectors, axis=-2)


def span_rank(m: ModelDescriptor, x: np.ndarray, max_order: int,
              rank_eps: float = RANK_EPS) -> BracketTable:
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

    Rank counts singular values above rank_eps times the largest one, a
    threshold separating genuine degeneracy from finite-difference noise.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    x = np.asarray(x, dtype=float)
    tags, vectors = _bracket_values(m, x, max_order)
    real_cols = np.swapaxes(
        np.concatenate([vectors.real, vectors.imag], axis=-2), -1, -2
    )
    sv = np.linalg.svd(real_cols, compute_uv=False)
    rank = np.count_nonzero(sv > rank_eps * sv[..., :1], axis=-1)
    return BracketTable(
        x=x, tags=tags, vectors=vectors, singular_values=sv,
        rank=int(rank) if x.ndim == 1 else rank, rank_eps=rank_eps,
    )


# ---------------------------------------------------------------------------
# recursive smoothness functionals for line integrals


def _frame_comp(m: ModelDescriptor, form: OneForm, a: int, x: np.ndarray) -> complex:
    return complex(np.einsum("k,k->", form.comps(x), m.frame_field(a, x)))


def _frame_comp_derivative(
    m: ModelDescriptor, form: OneForm, a: int, x: np.ndarray,
    direction: np.ndarray, h: float,
) -> complex:
    """Derivative of x -> Xi(Z_a)(x) along a complex direction.

    Uses the product-rule with analytic jacobians when both the form and
    the frame supply them, otherwise falls back to finite differences.
    """
    if form.chart_jacobian is not None and (a == 0 or m.frame_jacobian is not None):
        comps = form.comps(x)
        cjac = np.asarray(form.chart_jacobian(x), dtype=complex)  # [k, j]
        fld = m.frame_field(a, x)
        fjac = frame_vector_field(m, a).jacobian(x)               # [k, j]
        grad = np.einsum("kj,k->j", cjac, fld) + np.einsum("k,kj->j", comps, fjac)
        return complex(np.einsum("j,j->", direction, grad))
    return directional_derivative(lambda y: _frame_comp(m, form, a, y), x, direction, h=h)


def _nested_bracket(m: ModelDescriptor, indices: Sequence[int]) -> VectorField:
    """[Z_{i0}, [Z_{i1}, [... Z_{ik}]]] for a sequence of signed indices."""
    fld = frame_vector_field(m, indices[-1])
    for a in reversed(indices[:-1]):
        fld = frame_vector_field(m, a).bracket(fld)
    return fld


def phi_functional(
    m: ModelDescriptor, form: OneForm, indices: Sequence[int], x: np.ndarray,
    h: float = FD_STEP,
) -> complex:
    """Recursive functional whose nonvanishing certifies a smooth density.

    Base case is the frame pairing; the recursive step differentiates the
    tail functional along the head field and subtracts the nested bracket
    of the tail applied to the head pairing.  For two indices the bracket
    degenerates to the single tail field (literal reading of the
    recursion; see the decisions ledger).
    """
    indices = tuple(int(a) for a in indices)
    if len(indices) == 0:
        raise ValueError("need at least one frame index")
    if any(a == 0 for a in indices):
        raise ValueError("indices range over the frame and its conjugates, not T")
    m.require_inside(x)
    x = np.asarray(x, dtype=float)
    if len(indices) == 1:
        return _frame_comp(m, form, indices[0], x)
    head, tail = indices[0], indices[1:]
    if len(tail) == 1:
        term1 = _frame_comp_derivative(
            m, form, tail[0], x, m.frame_field(head, x), h=h
        )
    else:
        term1 = directional_derivative(
            lambda y: phi_functional(m, form, tail, y, h=h),
            x, m.frame_field(head, x), h=h,
        )
    bracket_dir = _nested_bracket(m, tail).at(x)
    term2 = _frame_comp_derivative(m, form, head, x, bracket_dir, h=h)
    return term1 - term2


def smoothness_condition(
    m: ModelDescriptor, form: OneForm, x: np.ndarray, max_order: int,
    threshold: float = PHI_THRESHOLD, h: float = FD_STEP,
) -> tuple[bool, tuple[int, ...] | None, complex]:
    """Breadth-first search for a nonvanishing recursive functional.

    Multi-indices are scanned by increasing length and lexicographically
    within a length, over the alphabet [1..n, 1*..n*], so witnesses are
    reproducible.  Returns (satisfied, witness, value).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    alphabet = _alphabet(m.n)
    stack = [(a,) for a in alphabet]
    for _order in range(1, max_order + 1):
        for idx in stack:
            val = phi_functional(m, form, idx, x, h=h)
            if abs(val) > threshold:
                return True, idx, val
        stack = [idx + (a,) for idx in stack for a in alphabet]
    return False, None, 0.0j


# ---------------------------------------------------------------------------
# the local generator, used as a harmonicity oracle


def apply_generator(m: ModelDescriptor, f: Callable[[np.ndarray], complex],
                    x: np.ndarray, h: float = FD_STEP) -> complex:
    """Apply the diffusion generator to a scalar function at a point.

    Local representation: half the sum of the symmetrized second frame
    derivatives minus the Christoffel drift.  Intended as a numerical
    oracle for harmonicity checks, not a performance path.
    """
    x = np.asarray(x, dtype=float)
    n = m.n
    total = 0.0 + 0.0j
    for a in range(1, n + 1):
        za = frame_vector_field(m, a)
        zab = frame_vector_field(m, -a)
        total += za.apply(lambda y: zab.apply(f, y, h=h), x, h=h)
        total += zab.apply(lambda y: za.apply(f, y, h=h), x, h=h)
    gam = m.christoffel(x)
    drift = 0.0 + 0.0j
    for a in range(1, n + 1):
        c_a = complex(sum(gam[n + b, b - 1, a - 1] for b in range(1, n + 1)))
        drift += c_a * frame_vector_field(m, a).apply(f, x, h=h)
        drift += np.conj(c_a) * frame_vector_field(m, -a).apply(f, x, h=h)
    return 0.5 * (total - drift)
