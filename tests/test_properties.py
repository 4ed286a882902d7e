"""Property tests: invariants checked over generated inputs."""

import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from extrapolmv.dataset import SynthSpec, synthesize  # noqa: E402
from extrapolmv.extrapolation import score_locations_analytic  # noqa: E402
from extrapolmv.sampler import ModelSpec, PosteriorDraws, load_fit, save_fit  # noqa: E402

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def posterior_draws(draw):
    chains = draw(st.integers(1, 3))
    per_chain = draw(st.integers(1, 4))
    n, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(st.integers(0, 4))
    snapshots = draw(st.integers(0, 2)) if cells else 0
    A = chains * per_chain
    return PosteriorDraws(
        B_draws=draw(arrays(np.float64, (A, n, q), elements=FINITE)),
        Sigma_draws=draw(arrays(np.float64, (A, n, n), elements=FINITE)),
        chain=np.repeat(np.arange(chains), per_chain),
        draw=np.tile(np.arange(per_chain), chains),
        fit_rows=np.arange(draw(st.integers(1, 5))) * 2,
        missing_cells=np.column_stack([np.arange(cells), np.arange(cells) % n]),
        Z_draws=draw(arrays(np.float64, (chains * snapshots, cells), elements=FINITE)),
        Z_chain=np.repeat(np.arange(chains), snapshots),
        Z_draw=np.tile(np.arange(snapshots), chains),
        spec=ModelSpec(iterations=per_chain + 1, burn_in=1, chains=chains,
                       seed=draw(st.integers(0, 2 ** 32 - 1)),
                       iw_df=draw(st.none() | st.floats(n, 1e6))),
        response_names=[f"y{j}" for j in range(n)],
        covariate_names=["intercept"] + [f"x{j}" for j in range(1, q)],
    )


@settings(max_examples=25, deadline=None)
@given(posterior_draws())
def test_save_load_round_trip_is_exact(p):
    # every array comes back with its bytes, shape and dtype, empty Z included
    with tempfile.TemporaryDirectory() as tmp:
        save_fit(p, tmp)
        back, _meta = load_fit(tmp)
    for name in ("B_draws", "Sigma_draws", "chain", "draw", "fit_rows", "missing_cells",
                 "Z_draws", "Z_chain", "Z_draw"):
        got, want = getattr(back, name), getattr(p, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert back.spec == p.spec
    assert (back.response_names, back.covariate_names) == (p.response_names,
                                                          p.covariate_names)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), l=st.integers(20, 150), n=st.integers(1, 3),
       q=st.integers(2, 4), missing=st.floats(0.0, 0.5),
       per_mille=st.lists(st.integers(500, 1000), min_size=2, max_size=2, unique=True))
def test_quantile_flags_are_nested(seed, l, n, q, missing, per_mille):
    # a higher quantile cutoff flags a subset of what a lower one flags
    d, _ = synthesize(SynthSpec(l=l, n=n, q=q, missing_prob=missing), seed=seed)
    hi, lo = sorted(per_mille, reverse=True)
    for cutoffs in (["q99", "q95"], [f"q:{hi / 1000}", f"q:{lo / 1000}"]):
        report = score_locations_analytic(d, measures=["det", "trace"], cutoffs=cutoffs,
                                          sigma=np.eye(n) + 0.5)
        for m in report.measures:
            e_hi, e_lo = (c.e for c in m.cutoffs)
            assert np.all(e_hi <= e_lo)
