"""Semigroup averages, density estimates, line integrals, characteristic functions."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crdiff import (
    FrameState,
    SimConfig,
    char_function,
    estimate_density,
    form_dt,
    form_du,
    form_dv,
    heisenberg_model,
    ks_distance,
    line_integral,
    line_integral_ensemble,
    phase_rotated_heisenberg,
    semigroup_average,
    simulate_ensemble,
    simulate_path,
    theta_form,
)
from crdiff import frame_bundle, observables, sde
from crdiff.observables import (
    KDE_CHUNK, LineIntegralObserver, OneForm, _grid_kde, _integrand, coordinate_form,
    density_at,
)

ORIGIN1 = FrameState(np.zeros(3), np.eye(1))


@pytest.fixture(scope="module")
def stored_path(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=400, seed=201)
    return simulate_path(heis1, ORIGIN1, cfg)


@pytest.fixture(scope="module")
def terminal_ensemble(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=300, seed=202)
    return simulate_ensemble(heis1, ORIGIN1, cfg, 20_000)


# --- one-forms ----------------------------------------------------------------


def test_form_frame_components(heis1):
    x = np.array([0.3, -0.4, 0.1])
    fc = form_du(1).frame_comps(heis1, x)
    np.testing.assert_allclose(fc, [0.5, 0.5], atol=1e-15)
    fc_t = form_dt(1).frame_comps(heis1, x)
    # dt(Z_1) = i conj(z), dt(conj(Z_1)) = -i z
    z = 0.3 - 0.4j
    np.testing.assert_allclose(fc_t, [1j * np.conj(z), -1j * z], atol=1e-15)


def test_real_form_conjugate_components(heis1):
    rng = np.random.default_rng(31)
    x = rng.normal(size=3)
    fc = form_dv(1).frame_comps(heis1, x)
    assert fc[1] == pytest.approx(np.conj(fc[0]))


def test_form_algebra(heis1):
    x = np.array([0.5, 0.2, -0.3])
    combo = 2.0 * form_du(1) + (-1.5) * form_dt(1)
    want = 2.0 * form_du(1).comps(x) - 1.5 * form_dt(1).comps(x)
    np.testing.assert_allclose(combo.comps(x), want, atol=1e-15)


@settings(max_examples=30)
@given(data=st.data())
def test_coordinate_form_pairs_by_column(data):
    """dx^k pairs with v by reading column k, with the bits of the
    contraction of its components; sums and scalings of forms contract."""
    dim = data.draw(st.sampled_from([3, 5]), label="dim")
    p = data.draw(st.integers(1, 4), label="points")
    finite = st.floats(allow_nan=False, allow_infinity=False)
    x = data.draw(arrays(float, (p, dim), elements=finite), label="x")
    v = data.draw(arrays(float, (p, dim), elements=finite), label="v")
    for k in range(dim):
        form = coordinate_form(dim, k)
        assert form.pairing is not None
        want = np.einsum("...k,...k->...", form.chart_comps(x), v)
        assert (form.pair(x, v) == want).all()
    du, dt = coordinate_form(dim, 0), coordinate_form(dim, dim - 1)
    for combo in (du + dt, 2.5 * du):
        assert combo.pairing is None
        want = np.einsum("...k,...k->...", combo.chart_comps(x), v)
        assert combo.pair(x, v).tobytes() == want.tobytes()


# --- line integrals -----------------------------------------------------------


def _pairing_integrand(m, form, x, e, db):
    """Reference: sum_a (e^T c)_a dB^a + (conj(e)^T cbar)_a conj(dB^a), with c
    and cbar the form's pairings with {Z_a} and {conj(Z_a)}."""
    fc = form.frame_comps(m, x)
    n = m.n
    g_unb = np.einsum("...ba,...b->...a", e, fc[..., :n])
    g_bar = np.einsum("...ba,...b->...a", np.conj(e), fc[..., n:])
    return (np.einsum("...a,...a->...", g_unb, db)
            + np.einsum("...a,...a->...", g_bar, np.conj(db)))


INTEGRAND_MODELS = {
    "heisenberg n=1": lambda: heisenberg_model(1),
    "heisenberg n=2": lambda: heisenberg_model(2),
    "phase n=1": lambda: phase_rotated_heisenberg(1, 0.9),
    "phase n=2": lambda: phase_rotated_heisenberg(2, 0.9),
}


@pytest.mark.parametrize("name", sorted(INTEGRAND_MODELS))
@settings(max_examples=30)
@given(data=st.data())
def test_integrand_matches_frame_pairing(name, data):
    """form(dx) at the frame action equals the frame-pairing formula for a
    complex, non-constant form, in the integrand and in the observer."""
    m = INTEGRAND_MODELS[name]()
    n, dim = m.n, m.dim
    form = theta_form(m) + 1j * form_du(n)
    p = data.draw(st.integers(1, 4), label="points")
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)

    def state(label):
        x = data.draw(arrays(float, (p, dim), elements=st.floats(-1.5, 1.5)),
                      label=f"x{label}")
        e = (data.draw(arrays(float, (p, n, n), elements=unit), label=f"re e{label}")
             + 1j * data.draw(arrays(float, (p, n, n), elements=unit),
                              label=f"im e{label}"))
        return x, e

    (x0, e0), (x1, e1) = state(0), state(1)
    db = (data.draw(arrays(float, (p, n), elements=unit), label="re db")
          + 1j * data.draw(arrays(float, (p, n), elements=unit), label="im db"))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=p, max_size=p),
                              label="mask"))
    # bounds every summed term of either formula
    scale = 4.0 * dim * np.abs(db).sum(axis=-1).max() * max(
        np.abs(form.comps(x)).max() * np.abs(m.frame(x)).max()
        * np.abs(e).sum(axis=-2).max() for x, e in ((x0, e0), (x1, e1)))
    want0 = _pairing_integrand(m, form, x0, e0, db)
    want1 = _pairing_integrand(m, form, x1, e1, db)
    assert np.abs(_integrand(m, form, x0, e0, db) - want0).max() <= 1e-14 * scale
    assert np.abs(_integrand(m, form, x1, e1, db) - want1).max() <= 1e-14 * scale

    ob = LineIntegralObserver(m, form, p)
    ob(0, x0, e0, x1, e1, db, mask)
    want = np.where(mask, 0.5 * (want0 + want1).real, 0.0)
    assert np.abs(ob.values - want).max() <= 1e-14 * scale


OBSERVER_CASES = {
    "heisenberg n=2 du1": (lambda: heisenberg_model(2), lambda m: form_du(2)),
    "heisenberg n=2 theta": (lambda: heisenberg_model(2), theta_form),
    # theta integrals vanish pathwise; dt reads the x-dependent t row
    "heisenberg n=2 dt": (lambda: heisenberg_model(2), lambda m: form_dt(2)),
    "heisenberg_phase n=1 du1": (lambda: phase_rotated_heisenberg(1, 0.9),
                                 lambda m: form_du(1)),
    "heisenberg_phase n=1 theta+i du1": (
        lambda: phase_rotated_heisenberg(1, 0.9),
        lambda m: theta_form(m) + 1j * form_du(1)),
}


@pytest.mark.parametrize("case", sorted(OBSERVER_CASES))
def test_observer_equals_stored_path_integral(case):
    """The streamed value of path 0 is the stored-path integral of the
    same path: the pre-step velocity the stepping loop hands the observer
    is the one at the pre-step state."""
    make_model, make_form = OBSERVER_CASES[case]
    m = make_model()
    form = make_form(m)
    x0 = np.linspace(0.3, -0.2, m.dim)
    s0 = FrameState(x0, np.exp(0.4j) * np.eye(m.n))
    cfg = SimConfig(t_horizon=0.5, n_steps=60, seed=205)
    streamed = line_integral_ensemble(m, s0, cfg, 5, form).observables["line_integral"]
    stored = line_integral(m, simulate_path(m, s0, cfg), form)
    assert abs(streamed[0] - stored) <= 1e-12


def test_flat_observer_evaluates_no_velocity(heis2):
    """On a flat model, whose horizontal lines are straight, the post-step
    velocity is the kernel's dx0: a line-integral run evaluates the frame
    action once per step, in the kernel, and never in the observer."""
    calls = []

    def frame_action(x, w):
        calls.append(np.shape(x))
        return heis2.frame_action(x, w)

    counted = dataclasses.replace(heis2, frame_action=frame_action)
    calls.clear()           # the construction probe's calls
    cfg = SimConfig(t_horizon=0.5, n_steps=12, seed=206)
    s0 = FrameState(np.zeros(5), np.eye(2))
    got = line_integral_ensemble(counted, s0, cfg, 7, form_dt(2))
    assert calls == [(7, 5)] * cfg.n_steps
    want = line_integral_ensemble(heis2, s0, cfg, 7, form_dt(2))
    assert got.observables["line_integral"].tobytes() == (
        want.observables["line_integral"].tobytes())


def test_flat_coordinate_line_integral_contracts_nothing(heis2, monkeypatch):
    """A flat du1 line integral from identity frames steps on w = dB and
    pairs du1 by column: no frame contraction and no einsum at all.  From
    a rotated frame each block contracts its frame once per step."""
    calls = {"frame_coords": 0, "einsum": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    contract = counting("frame_coords", frame_bundle.frame_coords)
    for module in (sde, frame_bundle, observables):
        monkeypatch.setattr(module, "frame_coords", contract)
    monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
    cfg = SimConfig(t_horizon=1.0, n_steps=24, seed=207)
    x0 = np.zeros(5)
    for workers in (1, 2):
        line_integral_ensemble(heis2, FrameState(x0, np.eye(2)), cfg,
                               sde.BLOCK + 1, form_du(2), n_workers=workers)
        assert calls == {"frame_coords": 0, "einsum": 0}
    line_integral_ensemble(heis2, FrameState(x0, np.exp(0.4j) * np.eye(2)), cfg,
                           sde.BLOCK + 1, form_du(2), n_workers=2)
    assert calls["frame_coords"] == 2 * cfg.n_steps


def test_contact_form_integral_vanishes_pathwise(heis1, stored_path):
    assert abs(line_integral(heis1, stored_path, theta_form(heis1))) <= 1e-12


def test_exact_form_telescopes(heis1, stored_path):
    got = line_integral(heis1, stored_path, form_du(1))
    want = stored_path.x[-1, 0] - stored_path.x[0, 0]
    assert abs(got - want) < 1e-13


def test_vertical_form_telescopes(heis1, stored_path):
    got = line_integral(heis1, stored_path, form_dt(1))
    assert abs(got - stored_path.x[-1, 2]) < 1e-12


def test_linearity(heis1, stored_path):
    a, b = 2.0, -0.5
    f1, f2 = form_du(1), form_dt(1)
    combo = a * f1 + b * f2
    got = line_integral(heis1, stored_path, combo)
    want = a * line_integral(heis1, stored_path, f1) + b * line_integral(heis1, stored_path, f2)
    assert abs(got - want) < 1e-12


def test_time_reversal_negates(heis1, stored_path):
    fwd = line_integral(heis1, stored_path, form_dt(1))
    bwd = line_integral(heis1, stored_path.reversed(), form_dt(1))
    assert abs(fwd + bwd) < 1e-12


def test_missing_increments_rejected(heis1):
    cfg = SimConfig(t_horizon=0.1, n_steps=10, seed=1)
    path = simulate_path(heis1, ORIGIN1, cfg, store_increments=False)
    with pytest.raises(ValueError, match="increments"):
        line_integral(heis1, path, form_du(1))


def test_strided_path_rejected(heis1):
    cfg = SimConfig(t_horizon=0.1, n_steps=10, seed=1, record_stride=5)
    path = simulate_path(heis1, ORIGIN1, cfg)
    with pytest.raises(ValueError, match="stride"):
        line_integral(heis1, path, form_du(1))


def test_horizontal_coordinate_integral_is_gaussian(heis1):
    """Integral of du^1 telescopes to a centered Gaussian of variance t/2."""
    cfg = SimConfig(t_horizon=1.0, n_steps=300, seed=203)
    ens = line_integral_ensemble(heis1, ORIGIN1, cfg, 20_000, form_du(1))
    vals = ens.observables["line_integral"]
    var = vals.var(ddof=1)
    se = np.sqrt((np.mean((vals - vals.mean()) ** 4) - var**2) / vals.size)
    assert abs(var - 0.5) < 3 * se
    assert abs(vals.mean()) < 3 * vals.std() / np.sqrt(vals.size)


def test_no_atom_proxy(heis1):
    """Smooth-density proxy: no histogram bin of width 0.01 carries mass."""
    cfg = SimConfig(t_horizon=1.0, n_steps=300, seed=204)
    for form in (form_du(1), form_dt(1)):
        ens = line_integral_ensemble(heis1, ORIGIN1, cfg, 20_000, form)
        vals = ens.observables["line_integral"]
        lo, hi = vals.min(), vals.max()
        bins = max(10, int(np.ceil((hi - lo) / 0.01)))
        counts, _ = np.histogram(vals, bins=bins, range=(lo, lo + bins * 0.01))
        assert counts.max() / vals.size < 0.05


# --- semigroup averages -------------------------------------------------------


def test_average_of_one(terminal_ensemble):
    out = semigroup_average(terminal_ensemble, lambda x: np.ones(x.shape[:-1]))
    assert out.mean == 1.0
    assert out.stderr == 0.0
    assert out.capped_fraction == 0.0


def test_average_odd_coordinate_vanishes(terminal_ensemble):
    out = semigroup_average(terminal_ensemble, lambda x: x[..., 0])
    assert abs(out.mean) < 3 * out.stderr


def test_average_radial_second_moment(terminal_ensemble):
    out = semigroup_average(terminal_ensemble, lambda x: x[..., 0] ** 2 + x[..., 1] ** 2)
    assert abs(out.mean - 1.0) < 3 * out.stderr


def test_average_requires_survivors(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=50, seed=7, coordinate_cap=1e-4)
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, 50)
    assert ens.capped_fraction == 1.0
    with pytest.raises(RuntimeError):
        semigroup_average(ens, lambda x: x[..., 0])


def test_capped_fraction_reported(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=200, seed=8, coordinate_cap=1.0)
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, 2_000)
    out = semigroup_average(ens, lambda x: x[..., 0])
    assert 0.0 < out.capped_fraction < 1.0
    assert out.n_used == int((~(ens.status == 1)).sum())


# --- density estimation -------------------------------------------------------


def test_density_normalizes(heis1, terminal_ensemble):
    window = np.array([[-4.0, 4.0], [-4.0, 4.0], [-5.0, 5.0]])
    est = estimate_density(terminal_ensemble, heis1, window, grid_points=25)
    assert np.all(est.values >= 0)
    assert est.normalization() == pytest.approx(1.0, abs=0.02)


def test_density_rotational_symmetry(heis1, terminal_ensemble):
    """The law is invariant under z -> iz; compare against rotated samples."""
    p_a = np.array([0.5, 0.0, 0.2])
    p_b = np.array([0.0, 0.5, 0.2])
    d_direct = density_at(terminal_ensemble, heis1, np.stack([p_a, p_b]))
    assert abs(d_direct[0] - d_direct[1]) / d_direct[0] < 0.10
    rotated = terminal_ensemble.x.copy()
    rotated[:, 0], rotated[:, 1] = -terminal_ensemble.x[:, 1], terminal_ensemble.x[:, 0]
    ens_rot = dataclasses.replace(terminal_ensemble, x=rotated)
    d_rot = density_at(ens_rot, heis1, np.stack([p_a, p_b]))
    for direct, rot in zip(d_direct, d_rot):
        assert abs(direct - rot) / direct < 0.10


def test_density_permutation_invariant(heis1, terminal_ensemble):
    """Relabeling paths leaves the estimate unchanged (up to summation order)."""
    pts = np.array([[0.4, -0.2, 0.1], [0.0, 0.0, 0.5]])
    base = density_at(terminal_ensemble, heis1, pts)
    perm = np.random.default_rng(77).permutation(terminal_ensemble.n_paths)
    shuffled = dataclasses.replace(
        terminal_ensemble, x=terminal_ensemble.x[perm], status=terminal_ensemble.status[perm]
    )
    np.testing.assert_allclose(density_at(shuffled, heis1, pts), base, rtol=1e-12)


@pytest.mark.parametrize("points", [
    [0.0],
    [[0.0, 0.0]],
    np.zeros((2, 4)),
    [0.0, np.nan, 0.0],
    [[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0]],
])
def test_density_at_rejects_malformed_points(heis1, terminal_ensemble, points):
    """A point of the wrong length used to broadcast against the bandwidth
    and return the value at another point; a non-finite one is refused too."""
    with pytest.raises(ValueError, match="points must"):
        density_at(terminal_ensemble, heis1, points)


def test_density_at_keeps_leading_shape(heis1, terminal_ensemble):
    pts = np.random.default_rng(78).normal(size=(2, 3, 3)) * 0.3
    flat = density_at(terminal_ensemble, heis1, pts.reshape(-1, 3))
    got = density_at(terminal_ensemble, heis1, pts)
    assert got.shape == (2, 3)
    np.testing.assert_array_equal(got.reshape(-1), flat)
    assert density_at(terminal_ensemble, heis1, pts[0, 0]).shape == (1,)


def _mesh_nodes(axes) -> np.ndarray:
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def test_density_grid_axis_order_anisotropic(heis1, terminal_ensemble):
    """Separable grid values equal the direct KDE at the ij-mesh nodes; the
    grid sizes and bandwidths differ per axis, so a transposed contraction
    would not match."""
    window = np.array([[-2.0, 2.5], [-3.0, 1.5], [-1.0, 4.0]])
    bw = np.array([0.3, 0.45, 0.6])
    est = estimate_density(terminal_ensemble, heis1, window, grid_points=(5, 7, 9),
                           bandwidth=bw)
    assert est.values.shape == (5, 7, 9)
    direct = density_at(terminal_ensemble, heis1, _mesh_nodes(est.axes), bandwidth=bw)
    np.testing.assert_allclose(est.values, direct.reshape(5, 7, 9), rtol=1e-12)


def test_density_grid_axis_order_n2_chunked(heis2):
    """On the 5-D chart the leading axes hold 9*8*7*6 > 2048 nodes, so they
    are taken in several chunks, the last one partial."""
    cfg = SimConfig(t_horizon=0.5, n_steps=20, seed=203)
    ens = simulate_ensemble(heis2, FrameState(np.zeros(5), np.eye(2)), cfg, 300)
    window = np.array([[-1.5, 1.5], [-1.2, 1.8], [-1.0, 1.0], [-2.0, 1.0], [-0.8, 0.9]])
    grid = (9, 8, 7, 6, 5)
    est = estimate_density(ens, heis2, window, grid_points=grid)
    direct = density_at(ens, heis2, _mesh_nodes(est.axes))
    np.testing.assert_allclose(est.values, direct.reshape(grid), rtol=1e-12)


def _gathered_grid_kde(samples, axes, bw):
    """The grid KDE with each chunk's leading product gathered node by
    node from the factors, KDE_CHUNK flat nodes at a time."""
    norm = samples.shape[0] * np.prod(bw * np.sqrt(2.0 * np.pi))
    *lead, last = [np.exp(-0.5 * ((ax[:, None] - samples[:, d]) / bw[d]) ** 2)
                   for d, ax in enumerate(axes)]
    shape = [f.shape[0] for f in lead]
    out = np.empty((int(np.prod(shape)), last.shape[0]))
    for start in range(0, out.shape[0], KDE_CHUNK):
        rows = np.arange(start, min(start + KDE_CHUNK, out.shape[0]))
        first, *rest = np.unravel_index(rows, shape)
        w = lead[0][first]
        for f, i in zip(lead[1:], rest):
            w *= f[i]
        np.matmul(w, last.T, out=out[start:start + rows.size])
    return out.reshape([ax.size for ax in axes]) / norm


@pytest.mark.parametrize("grid, m_count", [
    ((21, 21, 21), 2048), ((5, 7, 9), 300), ((9, 8, 7, 6, 5), 300),
    ((50, 3, 40, 2, 4), 150), ((3, 2, 2, 700, 3), 120)])
def test_grid_kde_matches_gathered_products(grid, m_count):
    """The broadcast outer products take the leading factors in the order
    of the node-by-node gather.  Where the leading nodes fit one chunk the
    matmul is the same call, so the grid values keep their bits.  Where
    chunks cut an axis into slabs or run over outer indices, they hold
    other node counts than KDE_CHUNK, and BLAS may sum a small product in
    another order: the values then agree to rounding."""
    rng = np.random.default_rng(m_count)
    samples = rng.standard_normal((m_count, len(grid)))
    axes = [np.linspace(-2.0, 2.0, g) for g in grid]
    bw = rng.uniform(0.2, 0.5, len(grid))
    got = _grid_kde(samples, axes, bw)
    want = _gathered_grid_kde(samples, axes, bw)
    if np.prod(grid[:-1]) <= KDE_CHUNK:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * want.max())


def test_density_memory_bound(heis1):
    """2048 samples on a 21^3 grid: the separable evaluation peaks near
    8.5 MB of Python allocations, against about 100 MB for pairwise distances."""
    cfg = SimConfig(t_horizon=1.0, n_steps=20, seed=204)
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, 2048)
    window = np.array([[-3.0, 3.0], [-3.0, 3.0], [-3.0, 3.0]])
    tracemalloc.start()
    try:
        estimate_density(ens, heis1, window, grid_points=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_density_memory_bound_n2(heis2):
    """200 samples on a 21^5 grid: the volume density is evaluated in node
    chunks, so the peak is the two returned 32.7 MB grids and little more
    (a full node array would add 163 MB)."""
    cfg = SimConfig(t_horizon=0.5, n_steps=10, seed=205)
    ens = simulate_ensemble(heis2, FrameState(np.zeros(5), np.eye(2)), cfg, 200)
    window = np.array([[-2.0, 2.0]] * 5)
    tracemalloc.start()
    try:
        est = estimate_density(ens, heis2, window, grid_points=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.values.shape == (21,) * 5
    assert peak < 100e6


def test_density_needs_samples(heis1):
    cfg = SimConfig(t_horizon=0.5, n_steps=50, seed=5)
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, 50)
    with pytest.raises(ValueError, match="100"):
        estimate_density(ens, heis1, np.array([[-1, 1], [-1, 1], [-1, 1]], dtype=float))


def test_density_empty_window(heis1, terminal_ensemble):
    window = np.array([[50.0, 51.0], [50.0, 51.0], [50.0, 51.0]])
    with pytest.raises(ValueError, match="window"):
        estimate_density(terminal_ensemble, heis1, window)


@pytest.mark.parametrize("bad_axis", [
    [-np.inf, np.inf], [1.0, -1.0], [-1.0, np.nan], [0.5, 0.5],
])
def test_density_window_needs_finite_increasing_bounds(heis1, terminal_ensemble, bad_axis):
    window = np.array([bad_axis, [-1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError, match="finite bounds with lo < hi"):
        estimate_density(terminal_ensemble, heis1, window)


def test_dilation_scaling_ks(heis1):
    """Parabolic scaling: (z, tau)(t) matches (sqrt(t) z, t tau)(1) per marginal."""
    n_paths = 20_000
    ens_q = simulate_ensemble(
        heis1, ORIGIN1, SimConfig(t_horizon=0.25, n_steps=500, seed=205), n_paths
    )
    ens_1 = simulate_ensemble(
        heis1, ORIGIN1, SimConfig(t_horizon=1.0, n_steps=500, seed=206), n_paths
    )
    scale = np.array([0.5, 0.5, 0.25])
    for k in range(3):
        d = ks_distance(ens_q.x[:, k], scale[k] * ens_1.x[:, k])
        assert d < 0.022, (k, d)  # 0.01 at 1e5 samples scales as 1/sqrt(N)


# --- characteristic functions -------------------------------------------------


def test_charfn_constant_exact():
    cf = char_function(np.full(200, 1.5), [0.5, 2.0])
    np.testing.assert_allclose(cf.values, np.exp(1j * np.array([0.5, 2.0]) * 1.5), atol=1e-12)
    assert cf.stderr_re.max() == 0.0


def test_charfn_gaussian():
    rng = np.random.default_rng(44)
    cf = char_function(rng.normal(size=200_000), [1.0])
    target = np.exp(-0.5)
    assert abs(cf.values[0].real - target) < 3 * cf.stderr_re[0]
    assert abs(cf.values[0].imag) < 3 * cf.stderr_im[0]


def test_charfn_needs_samples():
    with pytest.raises(ValueError):
        char_function(np.zeros(10), [1.0])


def test_ks_distance_basics():
    rng = np.random.default_rng(45)
    a = rng.normal(size=30_000)
    b = rng.normal(size=30_000)
    assert ks_distance(a, b) < 0.02
    assert ks_distance(a, b + 1.0) > 0.3
    assert ks_distance(a, a) == 0.0
