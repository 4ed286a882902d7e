"""Property tests: invariants checked over generated inputs."""

import csv
import io
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from extrapolmv import dataset  # noqa: E402
from extrapolmv.dataset import (  # noqa: E402
    Dataset,
    IngestConfig,
    SynthSpec,
    _write_table,
    load_csv,
    synthesize,
    write_csv,
)
from extrapolmv.extrapolation import score_locations_analytic  # noqa: E402
from extrapolmv.sampler import ModelSpec, PosteriorDraws, load_fit, save_fit  # noqa: E402

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# -0.0, subnormals and the largest magnitudes, besides whatever FINITE draws
EDGES = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308])
FLOATS = st.one_of(FINITE, EDGES)
# text with the characters csv quoting is about; no line breaks (a row is a line)
ID_TEXT = st.text(alphabet='ab ,"\'é', max_size=6)


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


@st.composite
def datasets(draw):
    n, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    l = draw(st.integers(q + 2, q + 8))
    # distinct covariate values of like scale keep the design full rank
    C = draw(arrays(np.float64, (l, q - 1), unique=True, elements=st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([-0.0, 5e-324, -2.5e-310]))))
    Y = draw(arrays(np.float64, (l, n), elements=FLOATS))
    mask = draw(arrays(np.bool_, (l, n)))
    coords = draw(arrays(np.float64, (l, 2), elements=FLOATS))
    ids = [text + str(i) for i, text in enumerate(draw(st.lists(ID_TEXT, min_size=l,
                                                                max_size=l)))]
    try:
        return Dataset(ids=ids, X=np.column_stack([np.ones(l), C]), Y=Y, mask=mask,
                       response_names=[f"y{j}" for j in range(n)],
                       covariate_names=["intercept"] + [f"x{j}" for j in range(1, q)],
                       coords=coords)
    except ValueError:  # collinear columns
        assume(False)


@settings(max_examples=25, deadline=None)
@given(d=datasets(), token=st.sampled_from(["NA", "", "-", "-999"]),
       block_rows=st.integers(1, 5))
def test_write_load_csv_round_trip_is_exact(d, token, block_rows):
    # values, ids and mask come back bit for bit, across block boundaries
    cfg = IngestConfig(id_col="id", covariates=d.covariate_names[1:],
                       responses=d.response_names, lon_col="lon", lat_col="lat",
                       missing_token=token)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "_BLOCK_ROWS", block_rows):
        write_csv(d, f"{tmp}/d.csv", cfg)
        back = load_csv(f"{tmp}/d.csv", cfg)
    assert back.ids == d.ids
    for name in ("X", "Y", "mask", "coords"):
        assert getattr(back, name).tobytes() == getattr(d, name).tobytes(), name


@st.composite
def tables(draw):
    l = draw(st.integers(0, 9))
    columns = []
    for kind in draw(st.lists(st.sampled_from("fis"), min_size=2, max_size=5)):
        if kind == "f":
            col = draw(arrays(np.float64, l, elements=st.one_of(FLOATS, st.just(np.nan))))
        elif kind == "i":
            col = draw(arrays(np.int64, l))
        else:
            col = draw(st.lists(st.text(alphabet='ab ,"\r\né', max_size=4),
                                min_size=l, max_size=l))
        columns.append(col)
    header = draw(st.lists(ID_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


@settings(max_examples=25, deadline=None)
@given(table=tables(), missing=st.sampled_from(["nan", "NA"]))
def test_write_table_bytes_are_csv_writer_bytes(table, missing):
    # float columns with NaN, int columns and text that needs quoting
    header, columns = table
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    # floats as repr with NaN as the token, ints as str: the text the table holds
    for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)):
        writer.writerow([(missing if v != v else repr(v)) if isinstance(v, float) else v
                         for v in row])
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "_BLOCK_ROWS", 4):
        _write_table(f"{tmp}/t.csv", header, columns, missing=missing)
        with open(f"{tmp}/t.csv", "rb") as fh:
            assert fh.read() == ref.getvalue().encode("utf-8")
