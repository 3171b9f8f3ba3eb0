import dataclasses

import numpy as np
import pytest

from crdiff import heisenberg_model, phase_rotated_heisenberg


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
    """The model with a frame that turns NaN once |u1| exceeds radius."""

    def frame(x):
        z = m.frame(x)
        far = np.abs(np.asarray(x)[..., 0]) > radius
        return np.where(far[..., None, None], np.nan, z)

    return dataclasses.replace(m, frame=frame)


@pytest.fixture(scope="session")
def nan_beyond():
    return _nan_beyond


class UnitarityObserver:
    """Per-path running maximum of the frame unitarity defect."""

    def __init__(self, width: int):
        self.values = np.zeros(width)

    def __call__(self, _k, _x0, _e0, _x1, e1, _db, mask):
        eye = np.eye(e1.shape[-1])
        defect = np.abs(np.conj(np.swapaxes(e1, -1, -2)) @ e1 - eye).max(axis=(-1, -2))
        self.values = np.where(mask, np.maximum(self.values, defect), self.values)


@pytest.fixture
def unitarity_observer_factory():
    return UnitarityObserver
