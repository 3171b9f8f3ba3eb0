"""Lie brackets, span ranks, recursive smoothness functionals, generator oracle."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crdiff import (
    apply_generator,
    form_du,
    form_dt,
    heisenberg_model,
    lie_bracket,
    phase_rotated_heisenberg,
    phi_functional,
    smoothness_condition,
    span_rank,
    theta_form,
)
from crdiff.brackets import _phi_generation, index_label
from crdiff.models import ChartBoundsError, ModelDescriptor
from crdiff.observables import OneForm

from bracket_reference import VectorField, frame_vector_field, nested_bracket, phi_reference

RNG = np.random.default_rng(20260802)


def test_fundamental_bracket(heis1):
    """[Z_1, conj(Z_1)] spans the vertical direction with a fixed coefficient."""
    for x in RNG.normal(size=(5, 3)):
        b = lie_bracket(heis1, 1, -1, x)
        np.testing.assert_allclose(b, [0.0, 0.0, -2.0j], atol=1e-9)


def test_self_bracket_vanishes(heis1):
    assert np.abs(lie_bracket(heis1, 1, 1, np.zeros(3))).max() < 1e-12


def test_bracket_antisymmetry(gauge1):
    x = np.array([0.2, -0.5, 0.3])
    ab = lie_bracket(gauge1, 1, -1, x)
    ba = lie_bracket(gauge1, -1, 1, x)
    np.testing.assert_allclose(ab, -ba, atol=1e-10)


def test_bracket_conjugation(heis2):
    x = RNG.normal(size=5)
    fwd = lie_bracket(heis2, 1, 2, x)
    conj = lie_bracket(heis2, -1, -2, x)
    np.testing.assert_allclose(conj, np.conj(fwd), atol=1e-9)


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (2, 1), (1, -2)])
def test_lie_bracket_takes_signed_frame_indices(heis1, a, b):
    """Only +-1..+-n: the characteristic field T (index 0) is no letter."""
    with pytest.raises(ValueError, match="frame index"):
        lie_bracket(heis1, a, b, np.zeros(3))


def test_finite_difference_matches_analytic_jacobian(gauge1):
    """Drop the supplied jacobian and recompute brackets by differences."""
    x = np.array([0.4, 0.1, -0.2])
    analytic = lie_bracket(gauge1, 1, -1, x)
    fd_fields = [
        VectorField(comps=lambda y, a=a: gauge1.frame_field(a, y)) for a in (1, -1)
    ]
    fd = fd_fields[0].bracket(fd_fields[1]).at(x)
    np.testing.assert_allclose(fd, analytic, atol=1e-6)


def test_jacobi_identity_residual(heis1):
    # cyclic sum [Z1,[Zb,Z1]] + [Zb,[Z1,Z1]] + [Z1,[Z1,Zb]] under differences
    x = np.array([0.3, 0.2, -0.1])
    z1 = frame_vector_field(heis1, 1)
    zb = frame_vector_field(heis1, -1)
    full = (
        z1.bracket(zb.bracket(z1)).at(x)
        + zb.bracket(z1.bracket(z1)).at(x)
        + z1.bracket(z1.bracket(zb)).at(x)
    )
    assert np.abs(full).max() < 1e-6


# --- span ranks ---------------------------------------------------------------


@pytest.mark.parametrize("order,expected", [(1, 2), (2, 3)])
def test_rank_heisenberg_n1(heis1, order, expected):
    for x in RNG.normal(size=(10, 3)):
        table = span_rank(heis1, x, order)
        assert table.rank == expected, (x, table.singular_values)


def test_rank_heisenberg_n2(heis2):
    for x in RNG.normal(size=(5, 5)):
        assert span_rank(heis2, x, 1).rank == 4
        assert span_rank(heis2, x, 2).rank == 5


def test_rank_abelian_toy_model():
    """A single commuting horizontal field spans one direction at any order."""

    def frame(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 1), dtype=complex)
        out[..., 0, 0] = 1.0
        return out

    def char_field(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3,))
        out[..., 2] = 1.0
        return out

    toy = ModelDescriptor(
        n=1, name="abelian_toy",
        frame=frame,
        char_field=char_field,
        theta=lambda x: np.concatenate(
            [np.zeros(np.shape(x)[:-1] + (2,)), np.ones(np.shape(x)[:-1] + (1,))], axis=-1
        ).astype(complex),
        christoffel=lambda x: np.zeros(np.shape(x)[:-1] + (3, 1, 1), dtype=complex),
        volume_density=lambda x: np.ones(np.shape(x)[:-1]),
    )
    x = np.array([0.3, -0.2, 0.6])
    assert span_rank(toy, x, 1).rank == 1
    assert span_rank(toy, x, 2).rank == 1


def test_rank_invariant_under_constant_rotation(heis2, gauge1, heis1):
    from crdiff import gauge_rotated_model

    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rotated = gauge_rotated_model(
        heis2,
        lam=lambda x: np.broadcast_to(q, np.shape(x)[:-1] + (2, 2)).astype(complex),
        dlam=lambda x: np.zeros(np.shape(x)[:-1] + (5, 2, 2), dtype=complex),
    )
    for x in RNG.normal(size=(4, 5)):
        for order in (1, 2):
            assert span_rank(rotated, x, order).rank == span_rank(heis2, x, order).rank


def test_bracket_table_contents(heis1):
    table = span_rank(heis1, np.zeros(3), 2)
    assert (1,) in table.tags
    assert (1, -1) in table.tags
    assert table.singular_values.shape[0] >= table.rank
    assert np.all(np.diff(table.singular_values) <= 0)
    assert index_label(-1) == "1*"


BATCH_MODELS = {
    "heis1": heisenberg_model(1),
    "heis2": heisenberg_model(2),
    "gauge1": phase_rotated_heisenberg(1, 0.9),
    "gauge2": phase_rotated_heisenberg(2, 0.9),
    # frame jacobians by central differences of the frame
    "gauge1_fd": dataclasses.replace(phase_rotated_heisenberg(1, 0.9), frame_jacobian=None),
    "gauge2_fd": dataclasses.replace(phase_rotated_heisenberg(2, 0.9), frame_jacobian=None),
}


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
@settings(max_examples=25)
@given(data=st.data())
def test_batched_span_rank_matches_per_point(name, order, data):
    """A batch row equals the single-point call and the nested closure
    fields bitwise: generations shared over the batch change no arithmetic."""
    m = BATCH_MODELS[name]
    n_points = data.draw(st.integers(1, 5), label="points")
    pts = data.draw(arrays(np.float64, (n_points, m.dim),
                           elements=st.floats(-1.5, 1.5)), label="x")
    batch = span_rank(m, pts, order)
    assert batch.rank.shape == (n_points,)
    for p, x in enumerate(pts):
        single = span_rank(m, x, order)
        assert single.tags == batch.tags
        assert isinstance(single.rank, int) and single.rank == batch.rank[p]
        assert single.singular_values.ndim == 1
        assert single.singular_values.tobytes() == batch.singular_values[p].tobytes()
        assert single.vectors.tobytes() == batch.vectors[p].tobytes()
        for tag, vec in zip(batch.tags, batch.vectors[p]):
            assert nested_bracket(m, tag).at(x).tobytes() == vec.tobytes()


def test_rank_requires_positive_order(heis1):
    with pytest.raises(ValueError):
        span_rank(heis1, np.zeros(3), 0)


# --- recursive functionals ----------------------------------------------------


def test_phi_base_case(heis1):
    val = phi_functional(heis1, form_du(1), (1,), np.zeros(3))
    assert val == pytest.approx(0.5)


def test_phi_annihilating_form_all_orders(heis1):
    th = theta_form(heis1)
    for idx in [(1,), (-1,), (1, -1), (1, 1, -1), (1, -1, 1, -1)]:
        assert abs(phi_functional(heis1, th, idx, np.zeros(3))) < 1e-10


def test_phi_two_index_hand_value(heis1):
    """Xi with holomorphic pairing 0 and antiholomorphic pairing u^1."""
    xi = OneForm(
        "u*conj_dz",
        lambda x: np.stack(
            [x[..., 0] + 0j, -1j * x[..., 0], np.zeros(np.shape(x)[:-1])], axis=-1
        ),
    )
    x0 = np.zeros(3)
    np.testing.assert_allclose(xi.frame_comps(heis1, x0), [0.0, 0.0], atol=1e-15)
    val = phi_functional(heis1, xi, (1, -1), x0)
    assert val == pytest.approx(0.5, abs=1e-9)


def test_phi_vertical_form_order_two(heis1):
    val = phi_functional(heis1, form_dt(1), (1, -1), np.zeros(3))
    assert val == pytest.approx(-2.0j, abs=1e-8)


def test_phi_rejects_transverse_index(heis1):
    with pytest.raises(ValueError):
        phi_functional(heis1, form_du(1), (0, 1), np.zeros(3))


@pytest.mark.parametrize("x", [np.zeros((2, 3)), np.zeros(4)], ids=["batch", "length4"])
def test_functionals_take_one_point(heis1, x):
    """A batch or a point of the wrong length is refused up front."""
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        phi_functional(heis1, form_du(1), (1, -1), x)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        smoothness_condition(heis1, form_du(1), x, 2)


ALPHABETS = {1: [1, -1], 2: [1, 2, -1, -2]}


def _forms(m):
    du = form_du(m.n, 1)
    return {
        "du1": du,                                    # chart jacobian
        "du1_fd": OneForm("du1_fd", du.chart_comps),  # none: central differences
        "theta": theta_form(m),
        "dt": form_dt(m.n),
    }


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BATCH_MODELS))
@settings(max_examples=6)
@given(data=st.data())
def test_phi_generation_matches_reference(name, length, data):
    """Every functional of a generation equals the closure recursion bitwise,
    at one point and over a batch, with and without the product rule."""
    m = BATCH_MODELS[name]
    form = _forms(m)[data.draw(st.sampled_from(["du1", "du1_fd", "theta", "dt"]),
                               label="form")]
    shape = data.draw(st.sampled_from([(m.dim,), (1, m.dim), (3, m.dim)]), label="shape")
    x = data.draw(arrays(np.float64, shape, elements=st.floats(-1.5, 1.5)), label="x")
    tags = list(itertools.product(ALPHABETS[m.n], repeat=length))
    generation = _phi_generation(m, form, x, tags)
    assert list(generation) == tags
    for tag, value in generation.items():
        assert value.tobytes() == phi_reference(m, form, tag, x).tobytes(), tag
    # one tag alone evaluates only its own tails, to the same bits
    tag = data.draw(st.sampled_from(tags), label="tag")
    assert _phi_generation(m, form, x, [tag])[tag].tobytes() == generation[tag].tobytes()


def test_smoothness_scan_shares_field_evaluations():
    """One frame (and jacobian) call per stencil depth and order: the
    unsatisfied order-4 scan makes 1 + 2 + 3 + 4 frame calls; a recursion
    per multi-index would make thousands."""
    base = phase_rotated_heisenberg(2, 0.9)
    calls = {"frame": 0, "frame_jacobian": 0}

    def counted(name):
        def f(x):
            calls[name] += 1
            return getattr(base, name)(x)
        return f

    m = dataclasses.replace(base, frame=counted("frame"),
                            frame_jacobian=counted("frame_jacobian"))
    calls.update(frame=0, frame_jacobian=0)  # not the construction probes
    ok, witness, _ = smoothness_condition(m, theta_form(m), np.zeros(5), 4)
    assert not ok and witness is None
    assert calls["frame"] <= 10 and calls["frame_jacobian"] <= 10, calls


GAUGE2 = BATCH_MODELS["gauge2"]
PIN_POINT = np.array([0.31, -0.17, 0.23, 0.41, -0.29])
# Values of the scalar per-coordinate recursion these functionals replaced,
# recorded before the move to stacked central differences.
PHI_PINS = [
    ((1, -2), True, -0.10350000000000001 - 0.1845j),
    ((1, -2, 2), True, 1.0424665364946744 - 0.2784350918774389j),
    ((2, -1, 1, -2), True, 0.30104378462309855 + 0.16508853294786513j),
    ((1, -2), False, -0.10349999999830749 - 0.18449999999731567j),
    ((1, -2, 2), False, 1.0424665364792718 - 0.27843509187246535j),
    ((2, -1, 1, -2), False, 0.3004568298298249 + 0.16554243696473364j),
]


@pytest.mark.parametrize("indices,analytic,expected", PHI_PINS)
def test_phi_pinned_values(indices, analytic, expected):
    """Both derivative branches keep their values on a non-symmetric point.

    Without the form's chart jacobian every derivative is a central
    difference; four indices then nest three of them, where reordering the
    last-bit rounding of the innermost quotients moves the value by up to
    eps |phi| / FD_STEP^2 ~ 1e-6 (the branch itself is 6e-4 from the
    analytic value at this step), so that pin is absolute at that scale.
    """
    form = form_du(2, 1)
    if not analytic:
        form = OneForm("du1_fd", form.chart_comps)
    val = phi_functional(GAUGE2, form, indices, PIN_POINT)
    assert isinstance(val, complex)
    if analytic or len(indices) < 4:
        np.testing.assert_allclose(val, expected, rtol=1e-9, atol=0)
    else:
        np.testing.assert_allclose(val, expected, rtol=0, atol=1e-6)


def test_phi_checks_chart_on_every_stencil_level():
    """A differentiated tail probes x +- h e_j, which must lie in the chart."""
    m = dataclasses.replace(heisenberg_model(1), chart_bound=np.array([[-1.0, 1.0]] * 3))
    x = np.array([1.0 - 5e-6, 0.2, -0.3])
    # two indices differentiate only pairings, here analytically: no probes
    assert phi_functional(m, form_du(1), (1, -1), x) == 0.0
    with pytest.raises(ChartBoundsError):
        phi_functional(m, form_du(1), (1, -1, 1), x)


def test_span_rank_checks_chart_on_every_stencil_level():
    """The probe points and every stencil depth behind the order >= 3
    brackets must lie in the chart, as for lie_bracket."""
    m = dataclasses.replace(heisenberg_model(1), chart_bound=np.array([[-1.0, 1.0]] * 3))
    for order in (1, 2, 3):
        with pytest.raises(ChartBoundsError):
            span_rank(m, np.array([5.0, 0.0, 0.0]), order)
    with pytest.raises(ChartBoundsError):
        span_rank(m, np.array([[0.2, 0.0, 0.0], [5.0, 0.0, 0.0]]), 2)
    edge = np.array([1.0 - 5e-6, 0.2, -0.3])
    assert span_rank(m, edge, 2).rank == 3
    with pytest.raises(ChartBoundsError):
        span_rank(m, edge, 3)


def test_smoothness_witness_first_order(heis1):
    ok, witness, value = smoothness_condition(heis1, form_du(1), np.zeros(3), 1)
    assert ok and witness == (1,)
    assert value == pytest.approx(0.5)


def test_smoothness_annihilating_form_unsatisfied(heis1):
    ok, witness, _ = smoothness_condition(heis1, theta_form(heis1), np.zeros(3), 4)
    assert not ok and witness is None


def test_smoothness_zero_form_unsatisfied(heis1):
    zero = OneForm("zero", lambda x: np.zeros(np.shape(x)[:-1] + (3,), dtype=complex))
    ok, witness, _ = smoothness_condition(heis1, zero, np.zeros(3), 3)
    assert not ok and witness is None


def test_smoothness_vertical_form_needs_second_order(heis1):
    """Vanishing frame pairings at a point may still satisfy the condition
    through the bracket term; the witness then has order at least two."""
    ok1, _, _ = smoothness_condition(heis1, form_dt(1), np.zeros(3), 1)
    assert not ok1
    ok2, witness, value = smoothness_condition(heis1, form_dt(1), np.zeros(3), 2)
    assert ok2 and witness == (1, -1) and len(witness) >= 2
    assert value == pytest.approx(-2.0j, abs=1e-8)


def test_smoothness_scan_order_is_reproducible(gauge1):
    ok_a, wit_a, _ = smoothness_condition(gauge1, form_du(1), np.array([0.1, 0.2, 0.3]), 3)
    ok_b, wit_b, _ = smoothness_condition(gauge1, form_du(1), np.array([0.1, 0.2, 0.3]), 3)
    assert ok_a == ok_b and wit_a == wit_b


# --- generator oracle ----------------------------------------------------------


@pytest.mark.parametrize("coord", [0, 1, 2])
def test_coordinates_are_harmonic(heis1, coord):
    for x in RNG.normal(size=(3, 3)):
        val = apply_generator(heis1, lambda y: y[..., coord], x)
        assert abs(val) < 1e-9


def test_coordinates_harmonic_on_gauge_model(gauge1):
    x = np.array([0.4, -0.3, 0.2])
    for coord in (0, 2):
        assert abs(apply_generator(gauge1, lambda y: y[..., coord], x)) < 1e-8


def test_radial_moment_growth_rate(heis1, heis2):
    for m in (heis1, heis2):
        x = RNG.normal(size=m.dim)
        val = apply_generator(
            m, lambda y: np.sum(y[..., : 2 * m.n] ** 2, axis=-1), x
        )
        assert val.real == pytest.approx(m.n, abs=1e-6)
        assert abs(val.imag) < 1e-9


def _nonlinear(y):
    return np.exp(0.3 * y[..., 0]) * np.cos(y[..., -1]) + y[..., 1] ** 2 * y[..., -1]


@pytest.mark.parametrize("m,x,expected", [
    (BATCH_MODELS["heis1"], np.array([0.3, -0.4, 0.7]), 0.48419805664945403),
    (BATCH_MODELS["gauge1"], np.array([0.3, -0.4, 0.7]), 0.4841980566472684),
    (GAUGE2, PIN_POINT, -0.3958093463997164),
], ids=["heis1", "gauge1", "gauge2"])
def test_generator_pinned_values(m, x, expected):
    """Values of the scalar per-coordinate oracle, recorded before the move
    to nested stacked central differences."""
    val = apply_generator(m, _nonlinear, x)
    assert isinstance(val, complex)
    np.testing.assert_allclose(val, expected, rtol=1e-9, atol=0)
