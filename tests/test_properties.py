"""Property tests: invariants checked over generated inputs."""

import csv
import dataclasses
import io
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from extrapolmv import dataset  # noqa: E402
from extrapolmv.cart import (  # noqa: E402
    TreeNode,
    TreeParams,
    export_tree,
    gini,
    grow_tree,
    import_tree,
)
from extrapolmv.dataset import (  # noqa: E402
    Dataset,
    IngestConfig,
    SynthSpec,
    _write_table,
    load_csv,
    load_record,
    synthesize,
    write_csv,
    write_record,
)
from extrapolmv.extrapolation import score_locations, score_locations_analytic  # noqa: E402
from extrapolmv.posterior import _pattern_groups  # noqa: E402
from extrapolmv.sampler import ModelSpec, PosteriorDraws, load_fit, save_fit  # noqa: E402

from conftest import make_draws  # noqa: E402

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
    A = chains * per_chain
    return PosteriorDraws(
        B_draws=draw(arrays(np.float64, (A, n, q), elements=FINITE)),
        Sigma_draws=draw(arrays(np.float64, (A, n, n), elements=FINITE)),
        chain=np.repeat(np.arange(chains), per_chain),
        draw=np.tile(np.arange(per_chain), chains),
        fit_rows=np.arange(draw(st.integers(1, 5))) * 2,
        spec=ModelSpec(iterations=per_chain + 1, burn_in=1, chains=chains,
                       seed=draw(st.integers(0, 2 ** 32 - 1)),
                       iw_df=draw(st.none() | st.floats(n, 1e6))),
        response_names=[f"y{j}" for j in range(n)],
        covariate_names=["intercept"] + [f"x{j}" for j in range(1, q)],
    )


@settings(max_examples=25, deadline=None)
@given(posterior_draws())
def test_save_load_round_trip_is_exact(p):
    # every array comes back with its bytes, shape and dtype
    with tempfile.TemporaryDirectory() as tmp:
        save_fit(p, tmp)
        back, _meta = load_fit(tmp)
    for name in ("B_draws", "Sigma_draws", "chain", "draw", "fit_rows"):
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
@given(d=datasets(), token=st.sampled_from(["NA", "", "-", "-999", "n/a, none", '"NA"']),
       block_rows=st.integers(1, 5))
def test_write_load_csv_round_trip_is_exact(d, token, block_rows):
    # values, ids and mask come back bit for bit, across block boundaries,
    # also for a token that has to be quoted
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


@settings(max_examples=25, deadline=None)
@given(d=datasets(), block_rows=st.integers(1, 5), data=st.data())
def test_a_faulty_table_names_its_first_faulty_line(d, block_rows, data):
    # 1-3 faults of mixed kinds on distinct lines: across block boundaries,
    # the error names the first faulty line and its fault
    cfg = IngestConfig(id_col="id", covariates=d.covariate_names[1:],
                       responses=d.response_names, lon_col="lon", lat_col="lat")
    kinds = ["coordinate", "response", "short", "extra", "byte"]
    kinds += ["covariate"] if cfg.covariates else []
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(dataset, "_BLOCK_ROWS", block_rows):
        path = f"{tmp}/d.csv"
        write_csv(d, path, cfg)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        fields = len(header)
        faulty = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3,
                                    unique=True))
        expected = {}
        for i in faulty:
            row, kind = rows[i], data.draw(st.sampled_from(kinds))
            if kind == "covariate":
                name = data.draw(st.sampled_from(cfg.covariates))
                row[header.index(name)] = ""
                expected[i + 2] = f"missing covariate {name!r}"
            elif kind == "coordinate":
                name = data.draw(st.sampled_from(["lon", "lat"]))
                row[header.index(name)] = "NA"
                expected[i + 2] = f"missing coordinate {name!r}"
            elif kind == "response":
                row[-1] = "oops"
                expected[i + 2] = f"non-numeric response {cfg.responses[-1]!r}: 'oops'"
            elif kind == "short":
                row.pop()
                expected[i + 2] = f"expected {fields} fields, got {fields - 1}"
            elif kind == "extra":
                row.append("1")
                expected[i + 2] = f"expected {fields} fields, got {fields + 1}"
            else:  # the byte 0xff, written through surrogateescape
                row[-1] = "1\udcff"
                text = io.StringIO()
                csv.writer(text).writerow(row)
                column = text.getvalue().index("\udcff") + 1
                expected[i + 2] = f"not UTF-8 text: byte 0xff at column {column}"
        with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
            csv.writer(fh).writerows([header, *rows])
        first = min(expected)
        with pytest.raises(ValueError) as exc:
            load_csv(path, cfg)
        assert str(exc.value) == f"{path}:{first}: {expected[first]}"


@st.composite
def recorded_tables(draw):
    """A dataset from datasets() whose ids may be empty and hold any
    character but a line break, with a response column that may be all
    missing, and with or without coords."""
    d = draw(datasets())
    ids = draw(st.lists(st.text(st.characters(codec="utf-8", exclude_characters="\n"),
                                max_size=4), min_size=d.n_rows, max_size=d.n_rows, unique=True))
    mask = d.mask.copy()
    if draw(st.booleans()):
        mask[:, draw(st.integers(0, d.n_responses - 1))] = False
    return dataclasses.replace(d, ids=ids, mask=mask,
                               coords=d.coords if draw(st.booleans()) else None)


@settings(max_examples=25, deadline=None)
@given(d=recorded_tables())
def test_dataset_record_round_trip_is_exact(d):
    # every field comes back bit for bit; no file, or another CSV or config
    # hash, reads nothing
    coords = d.coords is not None
    cfg = IngestConfig(id_col="id", covariates=d.covariate_names[1:],
                       responses=d.response_names, lon_col="lon" if coords else None,
                       lat_col="lat" if coords else None)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/dataset.npz"
        assert load_record(path, cfg, "csv-sha", "config-sha") is None  # no record
        write_record(d, path, "csv-sha", "config-sha")
        back = load_record(path, cfg, "csv-sha", "config-sha")
        assert load_record(path, cfg, "other-csv-sha", "config-sha") is None
        assert load_record(path, cfg, "csv-sha", "other-config-sha") is None
    for f in dataclasses.fields(Dataset):
        got, want = getattr(back, f.name), getattr(d, f.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == \
                (want.dtype, want.shape, want.tobytes()), f.name
        else:
            assert got == want, f.name


@st.composite
def synth_specs(draw):
    """A SynthSpec with or without coords, one missing probability per
    response (0 among them, some of the time) and planted leverage."""
    n, q = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    l = draw(st.integers(q + 2, 60))
    return SynthSpec(
        l=l, n=n, q=q,
        missing_prob=draw(st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0]) | st.floats(0, 1),
                                   min_size=n, max_size=n)),
        planted_high_leverage=draw(st.integers(0, l)),
        leverage_scale=draw(st.floats(-1e3, 1e3)),
        with_coords=draw(st.booleans()))


@settings(max_examples=25, deadline=None)
@given(gen=synth_specs(), seed=st.integers(0, 10_000))
def test_a_synthesized_record_is_the_record_of_its_parsed_csv(gen, seed):
    # the record simulate writes from the arrays it holds is, byte for byte,
    # the one fit writes after parsing the CSV simulate wrote
    try:
        d, _ = synthesize(gen, seed)
    except ValueError:  # a planted leverage scale of 0 leaves the design rank deficient
        assume(False)
    coords = d.coords is not None
    cfg = IngestConfig(id_col="id", covariates=d.covariate_names[1:],
                       responses=d.response_names, lon_col="lon" if coords else None,
                       lat_col="lat" if coords else None)
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(d, f"{tmp}/dataset.csv", cfg)
        write_record(d, f"{tmp}/synthesized.npz", "csv-sha", "config-sha")
        write_record(load_csv(f"{tmp}/dataset.csv", cfg), f"{tmp}/parsed.npz",
                     "csv-sha", "config-sha")
        with open(f"{tmp}/synthesized.npz", "rb") as a, open(f"{tmp}/parsed.npz", "rb") as b:
            assert a.read() == b.read()


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
@given(table=tables())
def test_write_table_bytes_are_csv_writer_bytes(table):
    # float columns with NaN, int columns and text that needs quoting
    header, columns = table
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    # floats as repr (NaN as nan), ints as str: the text the table holds
    for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)):
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    # serial, then with the second half of the rows from a forked worker
    for split_cells in (dataset._SPLIT_CELLS, 0):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(dataset, "_BLOCK_ROWS", 4), \
                mock.patch.object(dataset, "_SPLIT_CELLS", split_cells), \
                mock.patch.object(dataset, "_cores", lambda: 2):
            _write_table(f"{tmp}/t.csv", header, columns)
            with open(f"{tmp}/t.csv", "rb") as fh:
                assert fh.read() == ref.getvalue().encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(mask=arrays(np.bool_, st.tuples(st.integers(0, 40), st.integers(0, 5))))
def test_pattern_groups_partition_the_rows(mask):
    patterns, order, bounds = _pattern_groups(mask)
    assert patterns.shape == (bounds.size - 1, mask.shape[1])
    assert bounds[0] == 0 and bounds[-1] == mask.shape[0] and np.all(np.diff(bounds) > 0)
    np.testing.assert_array_equal(np.sort(order), np.arange(mask.shape[0]))
    for pattern, lo, hi in zip(patterns, bounds[:-1], bounds[1:]):
        rows = order[lo:hi]
        assert np.all(mask[rows] == pattern)
        assert np.all(np.diff(rows) > 0)  # stable: rows keep their order
    # distinct and lexicographic (False before True), so all-observed is last
    keys = [tuple(p) for p in patterns.tolist()]
    assert keys == sorted(set(keys))
    if mask.all(axis=1).any():
        assert patterns[-1].all()


def _scored(d, B, measures):
    """score_locations on hand-made draws fitted on d's observed rows."""
    A, n, _q = B.shape
    p = make_draws(B, np.tile(np.eye(n), (A, 1, 1)), np.flatnonzero(d.mask.any(axis=1)))
    return score_locations(p, d, measures=measures)


def _draws(rng, A, n, q):
    # draws spread around a common mean: well-conditioned V_i
    return rng.standard_normal((n, q)) + 0.1 * rng.standard_normal((A, n, q))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), l=st.integers(2040, 2110), n=st.integers(1, 3),
       q=st.integers(2, 5), missing=st.floats(0.0, 0.6))
def test_permuting_rows_permutes_scores_and_flags(seed, l, n, q, missing):
    # the rows straddle a scoring block boundary, in a different place per order
    d, _ = synthesize(SynthSpec(l=l, n=n, q=q, missing_prob=missing), seed=seed)
    assume(d.mask.any())
    rng = np.random.default_rng(seed)
    B = _draws(rng, 24, n, q)
    perm = rng.permutation(l)
    e = Dataset(ids=[d.ids[i] for i in perm], X=d.X[perm], Y=d.Y[perm], mask=d.mask[perm],
                response_names=d.response_names, covariate_names=d.covariate_names,
                coords=d.coords[perm])
    one, two = _scored(d, B, ("det", "trace")), _scored(e, B, ("det", "trace"))
    for m1, m2 in zip(one.measures, two.measures):
        np.testing.assert_allclose(m2.values, m1.values[perm], rtol=1e-13, atol=0)
        for c1, c2 in zip(m1.cutoffs, m2.cutoffs):
            np.testing.assert_array_equal(c2.e, c1.e[perm])
        assert m2.first_flagging == [m1.first_flagging[i] for i in perm]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), l=st.integers(30, 300), n=st.integers(1, 3),
       q=st.integers(2, 5), c=st.floats(0.01, 100.0), j=st.integers(0, 2))
@example(seed=0, l=85, n=3, q=5, c=79.0, j=2)
def test_rescaling_a_response_shifts_the_log_determinant(seed, l, n, q, c, j):
    # V_i becomes D V_i D with D = diag(1, .., c, .., 1) at every location,
    # so its log-determinant moves by exactly 2 log c. The Cholesky pivots
    # keep their relative accuracy whatever the scale of a response, so the
    # shift holds to 1e-12 over four decades of c. eigvalsh, which resolves
    # each eigenvalue only to about eps * the largest, missed 1e-12 at the
    # explicit example.
    assume(j < n)
    d, _ = synthesize(SynthSpec(l=l, n=n, q=q, missing_prob=0.3), seed=seed)
    assume(d.mask.any())
    B = _draws(np.random.default_rng(seed), 24, n, q)
    scaled = B.copy()
    scaled[:, j] *= c
    one, two = _scored(d, B, ("det",)).primary, _scored(d, scaled, ("det",)).primary
    np.testing.assert_allclose(two.values - one.values, 2.0 * np.log(c), rtol=0, atol=1e-12)
    for c1, c2 in zip(one.cutoffs, two.cutoffs):
        np.testing.assert_array_equal(c2.e, c1.e)
    assert two.first_flagging == one.first_flagging


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000), l=st.integers(40, 300), n=st.integers(1, 3),
       q=st.integers(2, 5), missing=st.floats(0.0, 0.5))
def test_analytic_scores_are_affine_invariant(seed, l, n, q, missing):
    # X -> X A with A's first column e_0 (the intercept stays 1) and an
    # invertible lower block: the fit spans the same columns, so every
    # leverage x_i'(X'X)^-1 x_i and the OLS Sigma are unchanged
    d, _ = synthesize(SynthSpec(l=l, n=n, q=q, missing_prob=missing), seed=seed)
    assume(np.count_nonzero(d.mask.all(axis=1)) >= q + max(2, n))
    rng = np.random.default_rng(seed)
    A = np.eye(q)
    A[0, 1:] = rng.standard_normal(q - 1)
    A[1:, 1:] += 0.5 * rng.standard_normal((q - 1, q - 1))
    assume(np.linalg.cond(A) < 100)
    e = Dataset(ids=d.ids, X=d.X @ A, Y=d.Y, mask=d.mask, response_names=d.response_names,
                covariate_names=d.covariate_names, coords=d.coords)
    one, two = score_locations_analytic(d), score_locations_analytic(e)
    tol = 1e-9
    for m1, m2 in zip(one.measures, two.measures):
        np.testing.assert_allclose(m2.values, m1.values, rtol=tol, atol=tol)
        for c1, c2 in zip(m1.cutoffs, m2.cutoffs):
            assert c2.k == pytest.approx(c1.k, rel=tol, abs=tol)
            clear = np.abs(m1.values - c1.k) > tol * max(1.0, abs(c1.k))
            np.testing.assert_array_equal(c2.e[clear], c1.e[clear])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), l=st.integers(20, 80), n=st.integers(1, 3),
       q=st.integers(2, 4), missing=st.floats(0.2, 0.7), extra=st.integers(1, 20),
       degenerate=st.booleans(), j=st.integers(0, 2))
def test_a_flag_is_a_value_above_its_cutoff(seed, l, n, q, missing, extra, degenerate, j):
    # e = values > k, r = exp(v - k) or v / k with -inf/-inf and 0/0 read
    # as 1, and first_flagging names the largest cutoff that flags (the
    # first given among equal ones). With one response's coefficients
    # fixed at dyadic values every V_i is singular: each log-det and the
    # max-type cutoffs are -inf, whatever the traces
    d, _ = synthesize(SynthSpec(l=l, n=n, q=q, missing_prob=missing), seed=seed)
    assume(d.mask.any(axis=0).all())
    rng = np.random.default_rng(seed)
    B = _draws(rng, n + extra, n, q)
    cutoffs = ("max", "lev")
    if degenerate:
        B[:, j % n] = rng.integers(-8, 9, q) / 4
    else:
        cutoffs += ("q99", "q95", "q:0.5")
    p = make_draws(B, np.tile(np.eye(n), (n + extra, 1, 1)), np.flatnonzero(d.mask.any(axis=1)))
    report = score_locations(p, d, measures=("det", "trace", "cmvpv:y1"), cutoffs=cutoffs)
    if degenerate:
        assert np.all(report.measures[0].values == -np.inf)
    for m in report.measures:
        v = m.values
        for c in m.cutoffs:
            np.testing.assert_array_equal(c.e, v > c.k)
            with np.errstate(all="ignore"):
                if m.measure == "det":
                    r = np.where(np.isneginf(v) & np.isneginf(c.k), 1.0, np.exp(v - c.k))
                else:
                    r = np.where((v == 0) & (c.k == 0), 1.0, v / c.k)
            np.testing.assert_array_equal(c.r, r)
        first = []
        for i in range(v.size):
            flagging = [c for c in m.cutoffs if c.e[i]]
            first.append(max(flagging, key=lambda c: c.k).name if flagging else "")
        assert m.first_flagging == first


def tree_nodes(depth: int):
    counts = dict(n0=st.integers(0, 10 ** 6), n1=st.integers(0, 10 ** 6),
                  prediction=st.integers(0, 1), proportion=FLOATS, fraction=FLOATS)
    leaf = st.builds(TreeNode, **counts)
    if depth == 0:
        return leaf
    child = tree_nodes(depth - 1)
    return st.one_of(leaf, st.builds(TreeNode, **counts, feature=ID_TEXT, threshold=FLOATS,
                                     left=child, right=child))


@settings(max_examples=25, deadline=None)
@given(tree_nodes(4))
def test_tree_json_round_trip_is_exact(tree):
    doc = export_tree(tree)
    back = import_tree(doc)
    assert export_tree(back) == doc
    assert export_tree(back, "text") == export_tree(tree, "text")


def _reference_tree(X, y, params, names, depth=0, total=None):
    """The tree grower as it was before the presort: every node argsorts
    every feature of its own rows."""
    total = X.shape[0] if total is None else total
    n1 = int(y.sum())
    n0 = int(y.size - n1)
    pred = 1 if n1 > n0 else 0
    node = TreeNode(n0=n0, n1=n1, prediction=pred,
                    proportion=(n1 if pred == 1 else n0) / max(y.size, 1),
                    fraction=y.size / total)
    if n0 == 0 or n1 == 0 or depth >= params.max_depth or y.size < 2 * params.min_leaf:
        return node
    parent = gini(n0, n1)
    best = None
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        sv, sy = X[order, f], y[order]
        change = np.flatnonzero(sv[:-1] != sv[1:])
        n_left = change + 1
        ok = (n_left >= params.min_leaf) & (y.size - n_left >= params.min_leaf)
        if not np.any(ok):
            continue
        left1 = np.cumsum(sy)[change].astype(float)
        left0 = n_left - left1
        right1, right0 = n1 - left1, n0 - left0
        wl, wr = left0 + left1, right0 + right1
        gl = 1.0 - (left0 ** 2 + left1 ** 2) / wl ** 2
        gr = 1.0 - (right0 ** 2 + right1 ** 2) / wr ** 2
        gains = np.where(ok, parent - (wl * gl + wr * gr) / (wl + wr), -np.inf)
        j = int(np.argmax(gains))
        if best is None or gains[j] > best[0]:
            best = (float(gains[j]), f, float(0.5 * (sv[change[j]] + sv[change[j] + 1])))
    if best is None or best[0] < params.min_split_gain:
        return node
    _gain, f, node.threshold = best
    node.feature = names[f]
    left = X[:, f] < node.threshold
    node.left = _reference_tree(X[left], y[left], params, names, depth + 1, total)
    node.right = _reference_tree(X[~left], y[~left], params, names, depth + 1, total)
    return node


@st.composite
def tied_covariates(draw):
    """Covariate matrices of 1 to 150 rows whose columns hold a few
    integers, are rounded to 0.1, mix -0.0 with 0.0, are constant or hold
    distinct values."""
    rows = draw(st.integers(1, 150))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["integer", "rounded", "signed_zero",
                                               "constant", "distinct"]),
                              min_size=1, max_size=4)):
        if kind == "integer":
            column = draw(arrays(np.float64, rows, elements=st.integers(-3, 3)))
        elif kind == "rounded":
            column = np.round(draw(arrays(np.float64, rows,
                                          elements=st.floats(-2.0, 2.0))), 1)
        elif kind == "signed_zero":
            column = draw(arrays(np.float64, rows,
                                 elements=st.sampled_from([-0.0, 0.0, 1.0])))
        elif kind == "constant":
            column = np.full(rows, draw(st.floats(-1e3, 1e3)))
        else:
            column = draw(arrays(np.float64, rows, elements=st.floats(-1e6, 1e6),
                                 unique=True))
        columns.append(column)
    return np.column_stack(columns)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), X=tied_covariates(), min_leaf=st.sampled_from([1, 2, 3, 7]),
       max_depth=st.integers(1, 6))
def test_presorted_tree_is_the_per_node_sort_tree(data, X, min_leaf, max_depth):
    # most splits fall among ties, which the presort orders as numpy's
    # default argsort does and the reference in row order
    y = data.draw(arrays(np.int64, X.shape[0], elements=st.integers(0, 1)))
    params = TreeParams(max_depth=max_depth, min_leaf=min_leaf, min_split_gain=0.0)
    names = [f"x{j}" for j in range(X.shape[1])]
    assert export_tree(grow_tree(X, y, params, names)) == \
        export_tree(_reference_tree(X, y, params, names))
