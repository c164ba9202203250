import numpy as np
import pytest
from hypothesis import settings

# property tests replay the same examples on every run and stay fast
settings.register_profile("resetloop", derandomize=True, deadline=None,
                          max_examples=25, database=None)
settings.load_profile("resetloop")

from resetloop.lti import TransferFunction, stage_plant
from resetloop.synthesis import build_benchmark_suite


def random_stable_tf(rng, max_order=6, strictly_proper=False,
                     pole_range=(0.5, 100.0)):
    """Random stable, minimum-phase-ish transfer function with real
    coefficients (pole magnitudes in pole_range, possibly complex pairs).

    Tight pole_range keeps the companion realization well conditioned,
    which matters for tests that push matrix formulas to 1e-9.
    """
    lo, hi = pole_range
    order = int(rng.integers(1, max_order + 1))
    poles = []
    while len(poles) < order:
        if order - len(poles) >= 2 and rng.random() < 0.4:
            re = -rng.uniform(lo, 0.6 * hi)
            im = rng.uniform(lo, 0.6 * hi)
            poles += [complex(re, im), complex(re, -im)]
        else:
            poles.append(complex(-rng.uniform(lo, hi), 0.0))
    nz_max = order - 1 if strictly_proper else order
    n_zeros = int(rng.integers(0, max(nz_max, 0) + 1))
    zeros = [complex(-rng.uniform(lo, hi), 0.0) for _ in range(n_zeros)]
    num = np.real(np.poly(zeros)) if zeros else np.array([1.0])
    den = np.real(np.poly(poles))
    gain = rng.uniform(0.2, 5.0)
    return TransferFunction(tuple(gain * num), tuple(den))


@pytest.fixture(scope="session")
def plant():
    return stage_plant()


@pytest.fixture(scope="session")
def suite(plant):
    """The five stock designs, loop gain normalized on the bundled plant."""
    return build_benchmark_suite(plant)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The ``orders`` of each reset._harmonics call made during the test."""
    import resetloop.reset

    kernel, calls = resetloop.reset._harmonics, []

    def counted(*args):
        calls.append(tuple(args[-1]))
        return kernel(*args)

    monkeypatch.setattr(resetloop.reset, "_harmonics", counted)
    return calls
