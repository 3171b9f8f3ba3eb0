"""Bracket-generation diagnostics and line-integral smoothness conditions.

Numerically verifies the two hypotheses the probabilistic smoothness
results rest on: that the frame fields together with their iterated
brackets span the tangent space, and that the recursive functionals
attached to a 1-form do not all vanish.  Differentiation is analytic
where the model supplies jacobians and central finite differences
elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import ModelDescriptor, central_difference, fd_quotient, fd_stencil
from .observables import OneForm

__all__ = [
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


def _bracket_value(w: np.ndarray, jw: np.ndarray, v: np.ndarray,
                   jv: np.ndarray) -> np.ndarray:
    """[W, V] = (dV) W - (dW) V from values and jacobians at the same points."""
    return np.einsum("...kj,...j->...k", jv, w) - np.einsum("...kj,...j->...k", jw, v)


def _column(frame_array: np.ndarray, a: int) -> np.ndarray:
    """Column of a frame-indexed array (last axis) for signed index a != 0."""
    col = frame_array[..., abs(a) - 1]
    return col if a > 0 else np.conj(col)


def _contract(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pairing (comps, field) or derivative (direction, gradient), per point."""
    return np.einsum("...j,...j->...", u, v)


def _check_letters(m: ModelDescriptor, indices: Sequence[int]) -> None:
    """Reject anything but the signed frame indices +-1..+-n."""
    for a in indices:
        if not 1 <= abs(a) <= m.n:
            raise ValueError(f"frame index {a} is not one of +-1..+-{m.n}: indices "
                             "range over the frame and its conjugates, not T")


def lie_bracket(m: ModelDescriptor, a: int, b: int, x: np.ndarray) -> np.ndarray:
    """[Z_a, Z_b] at x (..., D) for signed frame indices a, b in +-1..+-n."""
    _check_letters(m, (a, b))
    x = np.asarray(x, dtype=float)
    m.require_inside(x)
    head, head_jac = _frame_columns(m, [x], 1)
    return _bracket_values(head, head_jac, [[(a, b)]], 1)[1][(a, b)][0]


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


def _nested_points(x: np.ndarray, depths: int) -> list[np.ndarray]:
    """x and its nested central-difference stencils, depths arrays in all."""
    points = [x]
    for _depth in range(depths - 1):
        points.append(fd_stencil(points[-1]))
    return points


def _frame_columns(m: ModelDescriptor, points: list[np.ndarray],
                   jac_depths: int) -> tuple[dict, dict]:
    """head[a][d] = Z_a on points[d] and head_jac[a][d] its jacobian [..., k, j].

    One frame call per depth and one jacobian call on each of the first
    jac_depths depths, by central differences of the frame when the model
    supplies no jacobian.
    """
    frames = [np.asarray(m.frame(y), dtype=complex) for y in points]
    if m.frame_jacobian is not None:
        frame_jacs = [np.asarray(m.frame_jacobian(y), dtype=complex)
                      for y in points[:jac_depths]]
    else:  # (..., k, a, j) -> (..., k, j, a), the layout of frame_jacobian
        frame_jacs = [np.swapaxes(central_difference(m.frame, y), -1, -2)
                      for y in points[:jac_depths]]
    alphabet = _alphabet(m.n)
    head = {a: [_column(z, a) for z in frames] for a in alphabet}
    head_jac = {a: [_column(jz, a) for jz in frame_jacs] for a in alphabet}
    return head, head_jac


def _bracket_values(head: dict, head_jac: dict, orders: list,
                    depths: int) -> list[dict]:
    """Each generation of nested brackets on every stencil depth it needs.

    head and head_jac come from _frame_columns.  orders lists the tags of
    generations 2, 3, ...: (a,) + tail is [Z_a, B_tail].  Generation 2 is
    evaluated over the batch on depths 0..depths - 1 and each later one
    on one depth fewer, since a tail's jacobian is the central difference
    of its values one depth down, computed once for every head.  Depth d
    holds P (2D)^d points, so memory grows by about a factor 2D with each
    generation.  Returns a dict tag -> [values (..., D) per depth] per
    generation, the frame fields (tags (a,)) first.
    """
    vals = {(a,): cols for a, cols in head.items()}
    jacs = {(a,): cols for a, cols in head_jac.items()}
    generations = [vals]
    for count, tags in zip(range(depths, 0, -1), orders):
        vals = {tag: [_bracket_value(head[tag[0]][d], head_jac[tag[0]][d],
                                     vals[tag[1:]][d], jacs[tag[1:]][d])
                      for d in range(count)]
                for tag in tags}
        jacs = {tag: [fd_quotient(v, v.ndim - 2) for v in vs[1:]]
                for tag, vs in vals.items()}
        generations.append(vals)
    return generations


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
    a factor 2D with each order above 2; every depth is checked against
    the chart bound.  Rank counts singular values above RANK_EPS times
    the largest one.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    x = np.asarray(x, dtype=float)
    orders = _bracket_tags(m.n, max_order)
    points = _nested_points(x, max(max_order - 1, 1))
    for y in points:
        m.require_inside(y)
    head, head_jac = _frame_columns(m, points, max_order - 1)
    generations = _bracket_values(head, head_jac, orders[1:], max_order - 1)
    vectors = np.stack([generations[0][tag][0] for tag in orders[0]]
                       + [vs[0] for vals in generations[1:] for vs in vals.values()],
                       axis=-2)
    real_cols = np.swapaxes(
        np.concatenate([vectors.real, vectors.imag], axis=-2), -1, -2
    )
    sv = np.linalg.svd(real_cols, compute_uv=False)
    rank = np.count_nonzero(sv > RANK_EPS * sv[..., :1], axis=-1)
    return BracketTable(
        x=x, tags=[tag for order in orders for tag in order], vectors=vectors,
        singular_values=sv, rank=int(rank) if x.ndim == 1 else rank,
    )


# ---------------------------------------------------------------------------
# recursive smoothness functionals for line integrals


def _one_point(m: ModelDescriptor, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (m.dim,):
        raise ValueError(f"expected one point of shape ({m.dim},), got shape {x.shape}")
    return x


def _phi_generation(m: ModelDescriptor, form: OneForm, x: np.ndarray,
                    tags: list) -> dict[tuple[int, ...], np.ndarray]:
    """The recursive functionals of tags, all of one length r, at x (..., D).

    phi(a) = Xi(Z_a) and phi((a,) + tail) = Z_a phi(tail) - B_tail Xi(Z_a),
    B_tail the tail's nested bracket from _bracket_values, or Z_b for a
    one-letter tail (b,).  The length-k tails of tags are evaluated
    together on the depth r - k points only, each tail's gradient computed
    once for every head.  A pairing Xi(Z_a) is differentiated by the
    product rule when the form has a chart jacobian and the model a frame
    jacobian, otherwise by central differences of the pairings one depth
    down.  Every depth is checked against the chart bound; the deepest
    holds P (2D)^(r - 1) points (one depth fewer by the product rule), so
    memory grows by about a factor 2D with each order.
    """
    alphabet = _alphabet(m.n)
    r = len(tags[0])
    suffixes = [list(dict.fromkeys(tag[r - k:] for tag in tags)) for k in range(r + 1)]
    analytic = form.chart_jacobian is not None and m.frame_jacobian is not None
    points = _nested_points(x, r - 1 if analytic and r > 1 else r)
    for y in points:
        m.require_inside(y)
    head, head_jac = _frame_columns(m, points, r - 1 if analytic else max(r - 2, 0))
    if r == 1:
        comps = form.comps(x)
        return {tag: _contract(comps, head[tag[0]][0]) for tag in suffixes[1]}
    grads = {a: [] for a in alphabet}  # of the pairing Xi(Z_a), per depth
    for d in range(r - 1):
        if analytic:
            comps = form.comps(points[d])
            cjac = np.asarray(form.chart_jacobian(points[d]), dtype=complex)  # [k, j]
            for a in alphabet:
                grads[a].append(np.einsum("...kj,...k->...j", cjac, head[a][d])
                                + np.einsum("...k,...kj->...j", comps, head_jac[a][d]))
        else:
            comps = form.comps(points[d + 1])
            for a in alphabet:
                pairing = _contract(comps, head[a][d + 1])
                grads[a].append(fd_quotient(pairing, points[d].ndim - 1))
    brackets = _bracket_values(head, head_jac, suffixes[2:r], r - 2)
    for k in range(2, r + 1):
        d = r - k
        if k == 2:
            tail_grads = {(b,): grads[b][d] for b in alphabet}
        else:
            tail_grads = {t: fd_quotient(v, points[d].ndim - 1) for t, v in phi.items()}
        phi = {tag: _contract(head[tag[0]][d], tail_grads[tag[1:]])
               - _contract(brackets[k - 2][tag[1:]][d], grads[tag[0]][d])
               for tag in suffixes[k]}
    return phi


def phi_functional(
    m: ModelDescriptor, form: OneForm, indices: Sequence[int], x: np.ndarray
) -> complex:
    """Recursive functional whose nonvanishing certifies a smooth density.

    Base case is the frame pairing; the recursive step differentiates the
    tail functional along the head field and subtracts the nested bracket
    of the tail applied to the head pairing.  For two indices the bracket
    degenerates to the single tail field (literal reading of the
    recursion; see the decisions ledger).  x is one point (D,).  The
    value comes from the generation evaluator (_phi_generation), so
    memory grows by about a factor 2D with each index, and every stencil
    depth is checked against the chart bound.
    """
    indices = tuple(int(a) for a in indices)
    if len(indices) == 0:
        raise ValueError("need at least one frame index")
    _check_letters(m, indices)
    x = _one_point(m, x)
    return complex(_phi_generation(m, form, x, [indices])[indices])


def smoothness_condition(
    m: ModelDescriptor, form: OneForm, x: np.ndarray, max_order: int
) -> tuple[bool, tuple[int, ...] | None, complex]:
    """Breadth-first search for a nonvanishing recursive functional.

    Multi-indices are scanned by increasing length and lexicographically
    within a length, over the alphabet [1..n, 1*..n*], so witnesses are
    reproducible; the first with modulus above PHI_THRESHOLD is the
    witness.  Returns (satisfied, witness, value).  x is one point (D,).
    All indices of one length are evaluated as one generation
    (_phi_generation) once the scan reaches that length; memory grows by about a factor 2D with each order.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    x = _one_point(m, x)
    for r in range(1, max_order + 1):
        tags = list(itertools.product(_alphabet(m.n), repeat=r))
        for idx, phi in _phi_generation(m, form, x, tags).items():
            val = complex(phi)
            if abs(val) > PHI_THRESHOLD:
                return True, idx, val
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
        return lambda y: _contract(m.frame_field(a, y), central_difference(g, y))

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
