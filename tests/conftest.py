import numpy as np
import pytest

from extrapolmv.dataset import Dataset, SynthSpec, synthesize
from extrapolmv.sampler import ModelSpec, PosteriorDraws

try:
    from hypothesis import settings
except ImportError:  # test_properties.py is skipped without hypothesis
    pass
else:
    # the same examples on every run, in every checkout: a failure does not
    # depend on the run, nor on a .hypothesis/ database that recorded it
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")


@pytest.fixture
def small_dataset():
    d, _ = synthesize(SynthSpec(l=120, n=3, q=4, missing_prob=[0.25, 0.1, 0.0]),
                      seed=42)
    return d


def make_dataset(X, Y, mask, coords=None):
    l, q = X.shape
    n = Y.shape[1]
    return Dataset(ids=[f"r{i}" for i in range(l)], X=X, Y=Y, mask=mask,
                   response_names=[f"y{j + 1}" for j in range(n)],
                   covariate_names=["intercept"] + [f"x{j + 1}" for j in range(q - 1)],
                   coords=coords)


def make_draws(B_draws, Sigma_draws, fit_rows, response_names=None,
               covariate_names=None):
    """Hand-built PosteriorDraws for measure-level tests."""
    B_draws = np.asarray(B_draws, dtype=float)
    Sigma_draws = np.asarray(Sigma_draws, dtype=float)
    A, n, q = B_draws.shape
    return PosteriorDraws(
        B_draws=B_draws,
        Sigma_draws=Sigma_draws,
        chain=np.zeros(A, dtype=int),
        draw=np.arange(A),
        fit_rows=np.asarray(fit_rows, dtype=int),
        spec=ModelSpec(iterations=2, burn_in=0, chains=1),
        response_names=response_names or [f"y{j + 1}" for j in range(n)],
        covariate_names=covariate_names or ["intercept"]
        + [f"x{j + 1}" for j in range(q - 1)],
    )
