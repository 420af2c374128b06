"""Shared fixtures: the six shipped error models and small helpers."""

import numpy as np
import pytest

from uwb_locsim import BurrXII, Gaussian, LogNormal

# (label, family, model) for every shipped parameter set
MODEL_SETS = [
    ("los-gaussian", "gaussian", Gaussian(mu=0.004, sigma=0.071)),
    ("drywall-gaussian", "gaussian", Gaussian(mu=-0.043, sigma=0.092)),
    ("concrete-burr12", "burr12", BurrXII(c=9.64, d=0.98, mu=-0.46, sigma=0.72)),
    ("concrete-lognormal", "lognormal", LogNormal(s=0.17, mu=-0.53, sigma=0.81)),
    ("human-burr12", "burr12", BurrXII(c=32.84, d=0.24, mu=-1.63, sigma=1.66)),
    ("human-lognormal", "lognormal", LogNormal(s=0.44, mu=-0.30, sigma=0.50)),
]


class FixedStream:
    """Duck-typed stream that replays a fixed uniform sequence."""

    def __init__(self, values):
        self._values = list(values)

    def uniforms(self, n):
        out, self._values = self._values[:n], self._values[n:]
        return np.array(out)


@pytest.fixture
def fixed_stream():
    return FixedStream
