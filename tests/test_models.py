"""Model data contract: frames, contact form, Christoffel symbols, validator."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import crdiff.cli as cli
from crdiff import (
    SimConfig,
    gauge_rotated_model,
    heisenberg_model,
    koranyi_ball,
    phase_rotated_heisenberg,
    sample_exits,
    validate_model,
)
from crdiff.models import (
    FD_STEP,
    MODEL_CACHE_SIZE,
    ModelDescriptor,
    central_difference,
    conjugate_index,
    levi_gram,
)

from frame_oracle import matrix_gauge_h2

RNG = np.random.default_rng(20260801)
POINTS = RNG.normal(size=(10, 3))


def test_frame_at_origin(heis1):
    z1 = heis1.frame(np.zeros(3))[:, 0]
    np.testing.assert_allclose(z1, [0.5, -0.5j, 0.0], atol=1e-15)


def test_frame_at_z_equals_i(heis1):
    # z = i means (u, v) = (0, 1); the vertical coefficient is i conj(z) = 1
    z1 = heis1.frame(np.array([0.0, 1.0, 0.0]))[:, 0]
    np.testing.assert_allclose(z1, [0.5, -0.5j, 1.0], atol=1e-15)


def test_christoffel_vanishes_everywhere(heis1):
    gam = heis1.christoffel(POINTS)
    assert gam.shape == (10, 3, 1, 1)
    assert np.abs(gam).max() == 0.0


def test_characteristic_normalization(heis1):
    th = heis1.theta(POINTS)
    t_vec = heis1.char_field(POINTS)
    pairing = np.einsum("pk,pk->p", th, t_vec)
    np.testing.assert_allclose(pairing, 1.0, atol=1e-15)


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        heisenberg_model(0)
    with pytest.raises(ValueError):
        heisenberg_model(-2)


def test_conjugation_symmetry(heis2):
    x = RNG.normal(size=5)
    for a in (1, 2):
        np.testing.assert_array_equal(
            heis2.frame_field(-a, x), np.conj(heis2.frame_field(a, x))
        )


def test_frame_index_bounds(heis1):
    with pytest.raises(ValueError):
        heis1.frame_field(2, np.zeros(3))


@pytest.mark.parametrize("n", [1, 2])
def test_validator_passes_heisenberg(n):
    m = heisenberg_model(n)
    pts = RNG.normal(size=(10, 2 * n + 1))
    rep = validate_model(m, pts)
    assert rep.passed, rep.as_text()
    by_name = {c.name: c for c in rep.checks}
    assert by_name["theta(Z_a) = 0"].residual <= 1e-10
    assert by_name["theta(T) = 1"].residual <= 1e-10
    assert by_name["christoffel antisymmetry"].residual <= 1e-12
    assert rep.levi_min_eig > 0
    # the Levi gram of the built-in frame is a constant positive multiple
    # of the identity; the constant itself is reported, not pinned
    assert rep.levi_max_cond == pytest.approx(1.0, abs=1e-6)


def test_validator_flags_broken_antisymmetry(heis1):
    def bad_gamma(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (3, 1, 1), dtype=complex)
        out[..., 1, 0, 0] = 1.0  # Gamma_{1,1}^{1} = 1 breaks the pairing rule
        return out

    broken = ModelDescriptor(
        n=1, name="broken", frame=heis1.frame, char_field=heis1.char_field,
        theta=heis1.theta, christoffel=bad_gamma,
        volume_density=heis1.volume_density,
    )
    rep = validate_model(broken, POINTS)
    by_name = {c.name: c for c in rep.checks}
    assert not by_name["christoffel antisymmetry"].passed
    assert by_name["christoffel antisymmetry"].residual == pytest.approx(1.0)


def test_levi_gram_positive_and_hermitian(heis2):
    pts = RNG.normal(size=(6, 5))
    gram = levi_gram(heis2, pts)
    np.testing.assert_allclose(gram, np.conj(np.swapaxes(gram, -1, -2)), atol=1e-9)
    assert np.linalg.eigvalsh(gram).min() > 0


def test_conjugate_index_involution():
    n = 3
    for a in range(2 * n + 1):
        assert conjugate_index(conjugate_index(a, n), n) == a


# --- gauge rotations ---------------------------------------------------------


def test_identity_gauge_is_identity(heis1):
    eye = np.eye(1)
    m = gauge_rotated_model(
        heis1,
        lam=lambda x: np.broadcast_to(eye, np.shape(x)[:-1] + (1, 1)).astype(complex),
        dlam=lambda x: np.zeros(np.shape(x)[:-1] + (3, 1, 1), dtype=complex),
    )
    np.testing.assert_allclose(m.frame(POINTS), heis1.frame(POINTS), atol=1e-15)
    assert np.abs(m.christoffel(POINTS)).max() == 0.0


def test_constant_gauge_keeps_flat_connection(heis2):
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    m = gauge_rotated_model(
        heis2,
        lam=lambda x: np.broadcast_to(q, np.shape(x)[:-1] + (2, 2)).astype(complex),
        dlam=lambda x: np.zeros(np.shape(x)[:-1] + (5, 2, 2), dtype=complex),
    )
    pts = RNG.normal(size=(5, 5))
    assert np.abs(m.christoffel(pts)).max() == 0.0
    rep = validate_model(m, pts)
    assert rep.passed, rep.as_text()


def test_nonunitary_gauge_rejected(heis1):
    with pytest.raises(ValueError, match="unitary"):
        gauge_rotated_model(
            heis1,
            lam=lambda x: 1.5 * np.ones(np.shape(x)[:-1] + (1, 1), dtype=complex),
            dlam=lambda x: np.zeros(np.shape(x)[:-1] + (3, 1, 1), dtype=complex),
        )


def _fd_rotated_christoffel(base, rotated, lam, x, h=1e-6):
    """Oracle: Gamma'_{A b}^{g} from finite differences of the gauge map.

    Valid when the base connection vanishes: the rotated symbols reduce to
    sum_c conj(L[g,c]) (Z'_A L[b,c]), with the derivative taken along the
    rotated fields by central differences.
    """
    n, dim = base.n, base.dim
    zp = rotated.frame(x)  # (D, n)
    dirs = [base.char_field(x).astype(complex)]
    dirs += [zp[:, a] for a in range(n)]
    dirs += [np.conj(zp[:, a]) for a in range(n)]
    lam_x = lam(x)
    out = np.zeros((2 * n + 1, n, n), dtype=complex)
    for ai, direction in enumerate(dirs):
        dlam_dir = np.zeros((n, n), dtype=complex)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            dlam_dir += direction[j] * (lam(x + e) - lam(x - e)) / (2 * h)
        out[ai] = np.einsum("gc,bc->bg", np.conj(lam_x), dlam_dir)
    return out


def test_phase_gauge_christoffel_matches_fd_oracle(heis1):
    kappa = 0.7
    m = phase_rotated_heisenberg(1, kappa)

    def lam(x):
        x = np.asarray(x, dtype=float)
        return (np.exp(1j * kappa * x[..., 2])[..., None, None] * np.eye(1))

    x = np.array([0.3, -0.2, 0.5])
    got = m.christoffel(x)
    want = _fd_rotated_christoffel(heis1, m, lam, x)
    np.testing.assert_allclose(got, want, atol=1e-8)
    assert np.abs(got).max() > 0.1


@pytest.mark.parametrize("kappa", [np.inf, -np.inf, np.nan])
def test_phase_gauge_needs_finite_kappa(kappa):
    """A non-finite kappa would give a frame of NaN (and a RuntimeWarning
    from the construction probe); it is refused before any evaluation."""
    with pytest.raises(ValueError, match="kappa must be finite"):
        phase_rotated_heisenberg(1, kappa)


def test_matrix_gauge_on_h2_consistent(heis2):
    lam, dlam = matrix_gauge_h2()
    m = gauge_rotated_model(heis2, lam, dlam)
    pts = RNG.normal(size=(6, 5))
    rep = validate_model(m, pts)
    assert rep.passed, rep.as_text()
    x = np.array([0.2, 0.1, -0.3, 0.4, 0.6])
    got = m.christoffel(x)
    want = _fd_rotated_christoffel(heis2, m, lam, x)
    np.testing.assert_allclose(got, want, atol=1e-7)


# --- connection form -------------------------------------------------------------

CONNECTION_MODELS = {
    "phase n=1": lambda: phase_rotated_heisenberg(1, 0.9),
    "phase n=2": lambda: phase_rotated_heisenberg(2, 0.9),
    "phase n=3": lambda: phase_rotated_heisenberg(3, 0.9),
    "matrix gauge on H2": lambda: gauge_rotated_model(
        heisenberg_model(2), *matrix_gauge_h2()),
    # a non-flat base: the base connection form enters the closed form
    "matrix gauge on phase H2": lambda: gauge_rotated_model(
        phase_rotated_heisenberg(2, 0.9), *matrix_gauge_h2()),
}


@pytest.mark.parametrize("name", sorted(CONNECTION_MODELS))
@settings(max_examples=30)
@given(data=st.data())
def test_connection_matches_christoffel_contraction(name, data):
    """The closed-form connection form equals the contraction of the
    Christoffel symbols with the direction's frame coefficients."""
    m = CONNECTION_MODELS[name]()
    n, dim = m.n, m.dim
    p = data.draw(st.integers(1, 4), label="points")
    # subnormal inputs leave no relative precision to compare
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    x = data.draw(arrays(float, (p, dim), elements=st.floats(-1.5, 1.5)), label="x")
    e = (data.draw(arrays(float, (p, n, n), elements=unit), label="re e")
         + 1j * data.draw(arrays(float, (p, n, n), elements=unit), label="im e"))
    xi = (data.draw(arrays(float, (p, n), elements=unit), label="re xi")
          + 1j * data.draw(arrays(float, (p, n), elements=unit), label="im xi"))
    w = np.einsum("...ba,...a->...b", e, xi)
    dx = 2.0 * np.real(np.einsum("...kb,...b->...k", m.frame(x), w))
    gam = m.christoffel(x)
    want = np.einsum("...b,...bdg->...gd", w, gam[..., 1 : n + 1, :, :])
    want += np.einsum("...b,...bdg->...gd", np.conj(w), gam[..., n + 1 :, :, :])
    got = m.connection(x, w, dx)
    # the phase gauge's form is the scalar i kappa dx_t, shape (p, 1, 1),
    # standing for that multiple of I
    assert got.shape == ((p, 1, 1) if name.startswith("phase") else (p, n, n))
    if got.shape[-1] == 1:
        got = got * np.eye(n)
    assert got.shape == want.shape == (p, n, n)
    # relative to the size of the summed terms, which bounds |want|
    scale = 2.0 * np.abs(w).sum(axis=-1).max() * np.abs(gam).max()
    assert np.abs(got - want).max() <= 1e-14 * scale


# --- frame action ----------------------------------------------------------------

# builders of kappa; a gauge model over a gauge base last
FRAME_ACTION_MODELS = {
    "heisenberg n=1": lambda kappa: heisenberg_model(1),
    "heisenberg n=2": lambda kappa: heisenberg_model(2),
    "heisenberg n=3": lambda kappa: heisenberg_model(3),
    "phase n=1": lambda kappa: phase_rotated_heisenberg(1, kappa),
    "phase n=2": lambda kappa: phase_rotated_heisenberg(2, kappa),
    "phase n=3": lambda kappa: phase_rotated_heisenberg(3, kappa),
    "matrix gauge on phase H2": lambda kappa: gauge_rotated_model(
        phase_rotated_heisenberg(2, kappa), *matrix_gauge_h2()),
}


@pytest.mark.parametrize("name", sorted(FRAME_ACTION_MODELS))
@settings(max_examples=30)
@given(data=st.data())
def test_frame_action_matches_frame_contraction(name, data):
    """The closed-form frame action equals 2 Re(frame(x) w); on the
    Heisenberg chart it reproduces the contraction bit for bit."""
    kappa = data.draw(st.floats(-2.0, 2.0), label="kappa")
    m = FRAME_ACTION_MODELS[name](kappa)
    assert m.frame_action is not None
    n, dim = m.n, m.dim
    p = data.draw(st.integers(1, 4), label="points")
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    x = data.draw(arrays(float, (p, dim), elements=st.floats(-1.5, 1.5)), label="x")
    w = (data.draw(arrays(float, (p, n), elements=unit), label="re w")
         + 1j * data.draw(arrays(float, (p, n), elements=unit), label="im w"))
    z = m.frame(x)
    want = 2.0 * np.real(np.einsum("...kb,...b->...k", z, w))
    got = m.frame_action(x, w)
    assert got.shape == want.shape == (p, dim)
    assert got.dtype == float
    if name.startswith("heisenberg"):
        assert np.array_equal(got, want)
    # relative to the size of the summed terms, which bounds |want|
    scale = 2.0 * np.abs(w).sum(axis=-1).max() * np.abs(z).max()
    assert np.abs(got - want).max() <= 1e-14 * scale
    np.testing.assert_array_equal(m.base_velocity(x, w), got)


@pytest.mark.parametrize("n", [1, 2])
def test_phase_frame_action_matches_complex_exp(n):
    """The phase gauge fills its phase from cos and sin: the bits of the
    Heisenberg action at exp(i kappa t) w, for t over scales 1 to 1e4."""
    rng = np.random.default_rng(61)
    for kappa in (0.9, -0.7, 3.0, 1e-3):
        m = phase_rotated_heisenberg(n, kappa)
        x = rng.normal(size=(4096, 2 * n + 1))
        x[:, -1] *= np.repeat([1.0, 10.0, 1e3, 1e4], 1024)
        x[:3, -1] = [0.0, -0.0, 2.0 * np.pi / kappa]
        w = rng.normal(size=(4096, n)) + 1j * rng.normal(size=(4096, n))
        phase = np.exp(1j * kappa * x[:, -1])
        want = heisenberg_model(n).frame_action(x, phase[:, None] * w)
        assert m.frame_action(x, w).tobytes() == want.tobytes()


def test_base_velocity_falls_back_to_frame_contraction(heis1, gauge1):
    # the gauge frame's horizontal lines are not straight: not flat
    m = dataclasses.replace(heis1, frame=gauge1.frame, frame_action=None,
                            flat_connection=False)
    x = POINTS[:4]
    w = np.array([[0.3 - 0.7j]] * 4)
    want = 2.0 * np.real(np.einsum("...kb,...b->...k", gauge1.frame(x), w))
    np.testing.assert_array_equal(m.base_velocity(x, w), want)


def test_frame_action_disagreeing_with_frame_rejected(heis1, gauge1):
    # a replaced frame keeps the old action, which the probe then rejects
    with pytest.raises(ValueError, match="frame_action"):
        dataclasses.replace(heis1, frame=gauge1.frame)
    with pytest.raises(ValueError, match="frame_action"):
        dataclasses.replace(
            heis1, frame_action=lambda x, w: 1.001 * heis1.frame_action(x, w))
    with pytest.raises(ValueError, match="frame_action"):
        dataclasses.replace(gauge1, frame_action=heis1.frame_action)


def test_flat_connection_probes_straight_lines(heis1, gauge1, nan_beyond):
    """A flat connection also declares straight horizontal lines.  The
    declaration survives dataclasses.replace, so a frame whose lines are
    not straight (the gauge frame turns with t) is rejected by the probe
    unless the replacement declares the connection not flat.  A frame
    that is NaN at the probe line's far end is not judged there."""
    with pytest.raises(ValueError, match="changes along a horizontal line"):
        dataclasses.replace(heis1, frame=gauge1.frame, frame_action=gauge1.frame_action)
    with pytest.raises(ValueError, match="changes along a horizontal line"):
        dataclasses.replace(heis1, frame=gauge1.frame, frame_action=None)
    kept = dataclasses.replace(heis1, frame=gauge1.frame, frame_action=gauge1.frame_action,
                               flat_connection=False)
    assert not kept.flat_connection
    assert nan_beyond(heis1, 0.3).flat_connection


def test_volume_density_positive_constant(heis1, heis2):
    for m in (heis1, heis2):
        dens = m.volume_density(RNG.normal(size=(4, m.dim)))
        assert np.all(dens > 0)
        assert np.ptp(dens) == 0.0


# --- flat connection ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_connection_declared(n):
    assert heisenberg_model(n).flat_connection
    assert not phase_rotated_heisenberg(n, 0.9).flat_connection


def test_flat_connection_survives_replace(heis2):
    assert dataclasses.replace(heis2, name="copy").flat_connection


def test_flat_declaration_with_curved_christoffel_rejected(heis1, gauge1):
    with pytest.raises(ValueError, match="flat connection"):
        dataclasses.replace(heis1, christoffel=gauge1.christoffel)
    with pytest.raises(ValueError, match="flat connection"):
        dataclasses.replace(gauge1, flat_connection=True)


# --- closed-form flat chunks -----------------------------------------------------


def test_flat_chunk_belongs_to_its_frame_action(heis1, gauge1, nan_beyond):
    """Only a flat model whose frame action carries the closed form has
    one: a replaced frame action, a gauge model and the model declared
    not flat have none."""
    assert heis1.flat_chunk is heis1.frame_action.flat_chunk
    assert dataclasses.replace(heis1, name="copy").flat_chunk is heis1.flat_chunk
    assert nan_beyond(heis1, 0.3).flat_chunk is None
    assert gauge1.flat_chunk is None
    assert dataclasses.replace(heis1, flat_connection=False).flat_chunk is None


def test_flat_chunk_disagreeing_with_frame_action_rejected(heis1):
    """On first use the closed form is compared with three steps bit for
    bit: one ulp off in the last t is rejected."""

    def action(x, w):
        return heis1.frame_action(x, w)

    def off_by_one_ulp(x0, w):
        out = np.array(heis1.flat_chunk(x0, w))
        out[-1, :, -1] = np.nextafter(out[-1, :, -1], np.inf)
        return out

    action.flat_chunk = off_by_one_ulp
    m = dataclasses.replace(heis1, frame_action=action)
    with pytest.raises(ValueError, match="flat_chunk"):
        m.flat_chunk
    with pytest.raises(ValueError, match="flat_chunk"):
        sample_exits(m, np.zeros(3), koranyi_ball(1, 1.0),
                     SimConfig(t_horizon=0.1, n_steps=10, seed=1), 4)
    action.flat_chunk = heis1.flat_chunk
    assert dataclasses.replace(heis1, frame_action=action).flat_chunk is heis1.flat_chunk


def _loop_central_difference(f, x, h):
    """Reference: one pair of calls per coordinate, columns stacked last."""
    cols = []
    for j in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("shape", [(5,), (7, 5), (2, 3, 5)])
@pytest.mark.parametrize("what", ["theta", "frame", "phi"])
def test_central_difference_matches_coordinate_loop(what, shape):
    """The stacked stencil gives the per-coordinate loop's bits, any batch."""
    m = phase_rotated_heisenberg(2, 0.9)
    f = {"theta": m.theta, "frame": m.frame, "phi": koranyi_ball(2, 1.0).phi}[what]
    x = np.random.default_rng(41).uniform(-1.0, 1.0, size=shape)
    got = central_difference(f, x)
    want = _loop_central_difference(f, x, FD_STEP)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_validate_model_differentiates_theta_once(gauge1):
    """theta is evaluated at the points and once on their stacked stencil."""
    calls = []

    def theta(x):
        calls.append(np.shape(x))
        return gauge1.theta(x)

    rep = validate_model(dataclasses.replace(gauge1, theta=theta), POINTS)
    assert rep.passed
    assert calls == [(10, 3), (10, 6, 3)]


def test_equal_arguments_share_one_descriptor():
    """The built-in constructors hand out one descriptor per argument list,
    positional or keyword, and the phase model's base is the shared one."""
    assert heisenberg_model(2) is heisenberg_model(n=2)
    m = phase_rotated_heisenberg(2, 0.9)
    assert m is phase_rotated_heisenberg(n=2, kappa=0.9)
    assert phase_rotated_heisenberg(1, 0.9) is not m
    assert phase_rotated_heisenberg(1, 0.9).n == 1


@pytest.mark.parametrize("a, b", [(1, 1.0), (0.0, -0.0)])
def test_kappas_of_another_type_or_sign_are_other_models(a, b):
    """kappa 1 and 1.0, or 0.0 and -0.0, are told apart, each with its own
    name (a cache keyed on value and type would merge 0.0 and -0.0)."""
    ma, mb = phase_rotated_heisenberg(1, a), phase_rotated_heisenberg(1, b)
    assert ma is not mb
    assert (ma.name, mb.name) == (f"heisenberg_phase(n=1, kappa={a})",
                                  f"heisenberg_phase(n=1, kappa={b})")
    assert phase_rotated_heisenberg(1, b) is mb


def test_descriptor_cache_is_bounded():
    """A kappa sweep keeps at most MODEL_CACHE_SIZE descriptors; the least
    recently used is rebuilt, equal to but not the evicted one."""
    first = phase_rotated_heisenberg(1, 0.125)
    for k in range(MODEL_CACHE_SIZE):
        phase_rotated_heisenberg(1, 1.0 + k / 8)
    info = phase_rotated_heisenberg.cache_info()
    assert info.maxsize == info.currsize == MODEL_CACHE_SIZE
    again = phase_rotated_heisenberg(1, 0.125)
    assert again is not first and again.name == first.name


def test_replace_leaves_the_shared_descriptor_alone():
    m = phase_rotated_heisenberg(2, 0.9)
    action = m.frame_action
    r = dataclasses.replace(m, name="renamed", frame_action=None)
    assert (r.name, r.frame_action) == ("renamed", None)
    assert phase_rotated_heisenberg(2, 0.9) is m
    assert (m.name, m.frame_action) == ("heisenberg_phase(n=2, kappa=0.9)", action)


def test_repeated_diagnostics_build_no_descriptor(tmp_path, monkeypatch):
    """The three CLI calls of one diagnostics task, repeated in the same
    process, run no construction probe: the phase model and its base are
    built on the first round only."""
    model = "--model heisenberg_phase --n 2 --kappa 0.9"
    argvs = [
        f"check-hormander {model} --max-order 3 --points 20 --seed 5 "
        f"--output {tmp_path / 'h.csv'}",
        f"check-model {model} --points 20 --seed 6 --output {tmp_path / 'm.csv'}",
        f"check-smoothness {model} --form dt --max-order 3 "
        f"--output {tmp_path / 's.csv'}",
    ]
    probes = []
    post_init = ModelDescriptor.__post_init__

    def counting(self):
        probes.append(self.name)
        post_init(self)

    monkeypatch.setattr(ModelDescriptor, "__post_init__", counting)
    rounds = []
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(2):
            probes.clear()
            assert [cli.main(argv.split()) for argv in argvs] == [0, 0, 0]
            rounds.append(list(probes))
    assert set(rounds[0]) <= {"heisenberg(n=2)", "heisenberg_phase(n=2, kappa=0.9)"}
    assert rounds[1] == []
