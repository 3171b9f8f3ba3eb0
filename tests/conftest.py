import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from crdiff import heisenberg_model, phase_rotated_heisenberg

# no per-example deadline (wall-clock limits flake on a loaded or throttled
# CPU) and a fixed example sequence, so property tests repeat exactly
settings.register_profile("crdiff", deadline=None, derandomize=True)
settings.load_profile("crdiff")


@pytest.fixture(scope="session")
def heis1():
    return heisenberg_model(1)


@pytest.fixture(scope="session")
def heis2():
    return heisenberg_model(2)


@pytest.fixture(scope="session")
def gauge1():
    return phase_rotated_heisenberg(1, 0.9)


def _nan_beyond(m, radius):
    """The model with a frame and a frame action that turn NaN once |u1|
    exceeds radius (replacing the frame alone would keep the old action)."""

    def far(x):
        return np.abs(np.asarray(x)[..., 0]) > radius

    def frame(x):
        return np.where(far(x)[..., None, None], np.nan, m.frame(x))

    def frame_action(x, w):
        return np.where(far(x)[..., None], np.nan, m.base_velocity(x, w))

    return dataclasses.replace(m, frame=frame, frame_action=frame_action)


@pytest.fixture(scope="session")
def nan_beyond():
    return _nan_beyond


def _ninf_beyond(d, radius):
    """The domain with a defining function that turns -inf once |u1|
    exceeds radius: read as inside by a bare phi < 0 test, but not finite
    (no polynomial phi, such as the Koranyi ball's, reaches -inf)."""

    def phi(x):
        return np.where(np.abs(x[..., 0]) > radius, -np.inf, d.phi(x))

    return dataclasses.replace(d, name=f"{d.name} with -inf beyond {radius}", phi=phi)


@pytest.fixture(scope="session")
def ninf_beyond():
    return _ninf_beyond


class UnitarityObserver:
    """Per-path running maximum of the frame unitarity defect."""

    def __init__(self, width: int):
        self.values = np.zeros(width)

    def __call__(self, _k, _x0, _e0, _x1, e1, _db, mask, _dx0):
        eye = np.eye(e1.shape[-1])
        defect = np.abs(np.conj(np.swapaxes(e1, -1, -2)) @ e1 - eye).max(axis=(-1, -2))
        self.values = np.where(mask, np.maximum(self.values, defect), self.values)


@pytest.fixture
def unitarity_observer_factory():
    return UnitarityObserver
