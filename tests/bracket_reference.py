"""Closure-based reference for brackets and recursive smoothness functionals.

Each vector field is a closure that re-evaluates the frame wherever it is
asked, and each multi-index runs its own recursion, sharing nothing with
any other.  Slow, but its arithmetic is the one the generation evaluator of
``crdiff.brackets`` must reproduce bit for bit, so the tests compare
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from crdiff.models import ModelDescriptor, central_difference


def _bracket_value(w, jw, v, jv):
    """[W, V] = (dV) W - (dW) V from values and jacobians at the same points."""
    return np.einsum("...kj,...j->...k", jv, w) - np.einsum("...kj,...j->...k", jw, v)


def _column(frame_array, a):
    col = frame_array[..., abs(a) - 1]
    return col if a > 0 else np.conj(col)


@dataclass(frozen=True)
class VectorField:
    """A complex vector field on the chart with optional analytic jacobian."""

    comps: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None

    def at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.comps(np.asarray(x, dtype=float)), dtype=complex)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """d_j W^k as [..., k, j]; finite differences unless analytic."""
        if self.jac is not None:
            return np.asarray(self.jac(x), dtype=complex)
        return central_difference(self.at, x)

    def bracket(self, other: "VectorField") -> "VectorField":
        def comps(x):
            return _bracket_value(
                self.at(x), self.jacobian(x), other.at(x), other.jacobian(x)
            )

        return VectorField(comps=comps)


def frame_vector_field(m: ModelDescriptor, a: int) -> VectorField:
    """The frame field with signed index a as a VectorField."""
    jac = None
    if a != 0 and m.frame_jacobian is not None:

        def jac(x):
            return _column(m.frame_jacobian(x), a)

    return VectorField(comps=lambda x: m.frame_field(a, x), jac=jac)


def nested_bracket(m: ModelDescriptor, indices: Sequence[int]) -> VectorField:
    """[Z_{i0}, [Z_{i1}, [... Z_{ik}]]] for a sequence of signed indices."""
    fld = frame_vector_field(m, indices[-1])
    for a in reversed(indices[:-1]):
        fld = frame_vector_field(m, a).bracket(fld)
    return fld


def _along(direction, f, x):
    """Derivative of a broadcasting scalar f along complex directions at x."""
    return np.einsum("...j,...j->...", direction, central_difference(f, x))


def _frame_comp(m, form, a, x):
    return np.einsum("...k,...k->...", form.comps(x), m.frame_field(a, x))


def _frame_comp_derivative(m, form, a, x, direction):
    """Derivative of x -> Xi(Z_a)(x) along complex directions, per point:
    the product rule when the form and the frame supply jacobians,
    otherwise central differences."""
    if form.chart_jacobian is not None and m.frame_jacobian is not None:
        comps = form.comps(x)
        cjac = np.asarray(form.chart_jacobian(x), dtype=complex)  # [k, j]
        fld = m.frame_field(a, x)
        fjac = frame_vector_field(m, a).jacobian(x)               # [k, j]
        grad = (np.einsum("...kj,...k->...j", cjac, fld)
                + np.einsum("...k,...kj->...j", comps, fjac))
        return np.einsum("...j,...j->...", direction, grad)
    return _along(direction, lambda y: _frame_comp(m, form, a, y), x)


def phi_reference(m: ModelDescriptor, form, indices: tuple[int, ...],
                  x: np.ndarray) -> np.ndarray:
    """The recursive functional of one multi-index at points x (..., D)."""
    m.require_inside(x)
    head, tail = indices[0], indices[1:]
    if not tail:
        return _frame_comp(m, form, head, x)
    if len(tail) == 1:
        term1 = _frame_comp_derivative(m, form, tail[0], x, m.frame_field(head, x))
    else:
        term1 = _along(m.frame_field(head, x),
                       lambda y: phi_reference(m, form, tail, y), x)
    bracket_dir = nested_bracket(m, tail).at(x)
    return term1 - _frame_comp_derivative(m, form, head, x, bracket_dir)
