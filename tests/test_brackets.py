"""Lie brackets, span ranks, recursive smoothness functionals, generator oracle."""

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
from crdiff.brackets import VectorField, _nested_bracket, frame_vector_field, index_label
from crdiff.models import ModelDescriptor
from crdiff.observables import OneForm

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
            assert _nested_bracket(m, tag).at(x).tobytes() == vec.tobytes()


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
