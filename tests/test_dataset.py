import os
import signal
import threading
from unittest import mock

import numpy as np
import pytest

from extrapolmv import dataset
from extrapolmv.dataset import (
    IngestConfig,
    RankDeficientError,
    SynthSpec,
    TransformSpec,
    apply_transforms,
    load_csv,
    synthesize,
    write_csv,
    write_record,
)

from conftest import make_dataset

CONFIG = IngestConfig(id_col="id", covariates=["a", "b"], responses=["u", "v"])


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_missing_token_sets_mask(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, [
        "id,a,b,u,v",
        "p1,0.5,1.0,2.0,3.0",
        "p2,1.5,-1.0,NA,4.0",
        "p3,2.5,0.3,5.0,6.0",
        "p4,0.1,0.7,1.0,2.0",
        "p5,0.9,0.2,0.5,0.1",
    ])
    d = load_csv(f, CONFIG)
    assert d.mask.sum() == 9
    assert not d.mask[1, 0]
    assert np.isnan(d.Y[1, 0])
    assert d.covariate_names == ["intercept", "a", "b"]
    assert np.all(d.X[:, 0] == 1.0)


def test_load_csv_three_row_file(tmp_path):
    # 3 rows is only legal for an intercept-only design (l >= q + 2)
    cfg = IngestConfig(id_col="id", covariates=[], responses=["u", "v"])
    f = tmp_path / "d.csv"
    write_lines(f, [
        "id,u,v",
        "p1,2.0,3.0",
        "p2,NA,4.0",
        "p3,5.0,6.0",
    ])
    d = load_csv(f, cfg)
    assert (~d.mask).sum() == 1
    assert not d.mask[1, 0]
    assert d.covariate_names == ["intercept"]


def test_load_csv_empty_cell_is_missing(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, [
        "id,a,b,u,v",
        "p1,0.5,1.0,2.0,3.0",
        "p2,1.5,-1.0,,4.0",
        "p3,2.5,0.3,5.0,6.0",
        "p4,0.1,0.7,1.0,2.0",
        "p5,0.9,0.2,0.5,0.1",
    ])
    d = load_csv(f, CONFIG)
    assert not d.mask[1, 0]


def test_load_csv_constant_covariate_is_rank_deficient(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, [
        "id,a,b,u,v",
        "p1,5.0,1.0,2.0,3.0",
        "p2,5.0,-1.0,1.0,4.0",
        "p3,5.0,0.3,5.0,6.0",
        "p4,5.0,0.7,1.0,2.0",
        "p5,5.0,0.9,1.0,2.0",
    ])
    with pytest.raises(RankDeficientError):
        load_csv(f, CONFIG)


def test_load_csv_rejects_malformed_row(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["id,a,b,u,v", "p1,0.5,1.0,2.0"])
    with pytest.raises(ValueError, match="expected 5 fields"):
        load_csv(f, CONFIG)


def test_load_csv_rejects_non_numeric(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["id,a,b,u,v", "p1,0.5,1.0,oops,3.0"])
    with pytest.raises(ValueError, match="non-numeric response"):
        load_csv(f, CONFIG)


@pytest.mark.parametrize("literal", ["nan", "NaN", "inf", "-inf"])
def test_load_csv_rejects_literal_nonfinite_response(tmp_path, literal):
    # a literal nan is an observed cell, not a missing one
    f = tmp_path / "d.csv"
    write_lines(f, ["id,a,b,u,v", "p1,0.5,1.0,2.0,3.0", f"p2,1.5,-1.0,{literal},4.0",
                    "p3,2.5,0.3,5.0,6.0", "p4,0.1,0.7,1.0,2.0", "p5,0.9,0.2,0.5,0.1"])
    with pytest.raises(ValueError, match="observed response cells must be finite"):
        load_csv(f, CONFIG)


def test_load_csv_numeric_missing_token(tmp_path):
    # only the token's exact text is missing, also where it reads as a number
    cfg = IngestConfig(id_col="id", covariates=["a", "b"], responses=["u", "v"],
                       missing_token="-999")
    f = tmp_path / "d.csv"
    lines = ["id,a,b,u,v", "p1,0.5,1.0,-999,-999.0", "p2,1.5,-1.0,1.0,4.0",
             "p3,2.5,0.3,5.0,6.0", "p4,0.1,0.7,1.0,2.0", "p5,0.9,0.2,0.5,0.1"]
    write_lines(f, lines)
    d = load_csv(f, cfg)
    assert d.mask[0].tolist() == [False, True] and d.Y[0, 1] == -999.0
    write_lines(f, lines[:3] + ["p3,-999,0.3,5.0,6.0"] + lines[4:])
    with pytest.raises(ValueError, match=f"{f}:4: missing covariate 'a'"):
        load_csv(f, cfg)


def test_load_csv_column_read_twice(tmp_path):
    # lon is both a coordinate and a covariate
    cfg = IngestConfig(id_col="id", covariates=["lon", "a"], responses=["u"],
                       lon_col="lon", lat_col="lat")
    f = tmp_path / "d.csv"
    write_lines(f, ["id,lon,lat,a,u"] + [f"p{i},{i / 4},{i},{i % 3},NA" for i in range(6)])
    d = load_csv(f, cfg)
    np.testing.assert_array_equal(d.X[:, 1], d.coords[:, 0])
    assert not d.mask.any()


def test_load_csv_rejects_duplicate_header(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["id,a,a,u,v", "p1,0.5,1.0,2.0,3.0"])
    with pytest.raises(ValueError, match="duplicate column names"):
        load_csv(f, CONFIG)


def test_load_csv_rejects_duplicate_id(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["id,a,b,u,v", "p1,0.5,1.0,2.0,3.0", "p1,1.5,2.0,1.0,0.5"])
    with pytest.raises(ValueError, match="duplicate id"):
        load_csv(f, CONFIG)


def test_load_csv_rejects_missing_covariate(tmp_path):
    f = tmp_path / "d.csv"
    write_lines(f, ["id,a,b,u,v", "p1,NA,1.0,2.0,3.0"])
    with pytest.raises(ValueError, match="missing covariate"):
        load_csv(f, CONFIG)


LOCATED = IngestConfig(id_col="id", covariates=["a", "b"], responses=["u", "v"],
                       lon_col="lon", lat_col="lat")


@pytest.mark.parametrize("line, column, cell, message", [
    (4, "a", "oops", "non-numeric covariate 'a': 'oops'"),
    (5, "v", "x1", "non-numeric response 'v': 'x1'"),
    (3, "lat", "north", "non-numeric coordinate 'lat': 'north'"),
    (6, "b", "", "missing covariate 'b'"),
    (8, "lon", "NA", "missing coordinate 'lon'"),
    (7, None, None, "expected 7 fields, got 6"),
    # past the first block of rows, so the block's line offset counts
    (8200, "u", "NaX", "non-numeric response 'u': 'NaX'"),
    (9001, None, None, "expected 7 fields, got 6"),
    # the block also holds the quoted id "p,3998" of line 4000
    (4010, None, None, "expected 7 fields, got 6"),
    (4005, "v", "1,5", "non-numeric response 'v': '1,5'"),
    # a quoted field may not span lines
    (7, "id", "p\n5", "expected 7 fields, got 1"),
])
def test_load_csv_error_names_line_and_column(tmp_path, line, column, cell, message):
    header = ["id", "lon", "lat", "a", "b", "u", "v"]
    rows = [[f"p{i}", "-80.5", "40.25", str(i % 7), str(i % 5 / 3), "1.5", "NA"]
            for i in range(9100)]
    rows[3998][0] = "p,3998"
    row = rows[line - 2]
    if column is None:
        row.pop()
    else:
        row[header.index(column)] = cell
    f = tmp_path / "d.csv"
    write_lines(f, [",".join(header)] + [",".join(f'"{c}"' if "," in c or "\n" in c else c
                                                  for c in r) for r in rows])
    with pytest.raises(ValueError) as exc:
        load_csv(f, LOCATED)
    assert str(exc.value) == f"{f}:{line}: {message}"


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    d, _ = synthesize(SynthSpec(l=40, n=3, q=4, missing_prob=0.2), seed=3)
    cfg = IngestConfig(id_col="id", covariates=d.covariate_names[1:],
                       responses=d.response_names, lon_col="lon", lat_col="lat")
    f = tmp_path / "out.csv"
    write_csv(d, f, cfg)
    back = load_csv(f, cfg)
    np.testing.assert_allclose(back.X, d.X, rtol=0, atol=0)
    np.testing.assert_array_equal(back.mask, d.mask)
    np.testing.assert_allclose(back.Y[back.mask], d.Y[d.mask], rtol=1e-12)
    np.testing.assert_allclose(back.coords, d.coords, rtol=0, atol=0)
    assert back.ids == d.ids


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a BOM, which must not
    # become part of the first header name
    d, _ = synthesize(SynthSpec(l=40, n=3, q=4, missing_prob=0.2), seed=3)
    cfg = IngestConfig(id_col="id", covariates=d.covariate_names[1:],
                       responses=d.response_names, lon_col="lon", lat_col="lat")
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_csv(d, plain, cfg)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_csv(plain, cfg), load_csv(bom, cfg)
    assert b.ids == a.ids
    for name in ("X", "Y", "mask", "coords"):
        np.testing.assert_array_equal(getattr(b, name), getattr(a, name))


def test_record_rejects_an_id_with_a_line_break(tmp_path):
    d = make_dataset(np.column_stack([np.ones(4), np.arange(4.0)]), np.zeros((4, 1)),
                     np.ones((4, 1), dtype=bool))
    d.ids[2] = "two\nlines"
    with pytest.raises(ValueError, match="line break"):
        write_record(d, tmp_path / "dataset.npz", "h", "c")
    assert not (tmp_path / "dataset.npz").exists()


def test_dataset_requires_enough_rows():
    X = np.column_stack([np.ones(4), np.arange(4.0)])
    Y = np.zeros((4, 1))
    with pytest.raises(ValueError, match="at least q"):
        make_dataset(X[:3], Y[:3], np.ones((3, 1), dtype=bool))


# -- transforms --------------------------------------------------------------


def base_dataset():
    X = np.column_stack([np.ones(5), [1.0, 2.0, 3.0, 4.0, 5.0],
                         [0.5, -0.5, 1.5, 2.5, 0.0]])
    Y = np.column_stack([[1.0, 1.0, 1.0, 1.0, 1.0], [2.0, 4.0, 8.0, 1.0, 3.0]])
    mask = np.ones((5, 2), dtype=bool)
    mask[2, 1] = False
    return make_dataset(X, Y, mask)


def test_log_of_ones_is_zero():
    d = base_dataset()
    t = TransformSpec(response=["log", "log1p"], standardize=[False, False])
    out = apply_transforms(d, t)
    np.testing.assert_array_equal(out.Y[:, 0], np.zeros(5))
    obs = d.mask[:, 1]
    np.testing.assert_array_equal(out.Y[obs, 1], np.log1p(d.Y[obs, 1]))


def test_standardize_simple_column():
    X = np.column_stack([np.ones(3), [1.0, 2.0, 3.0]])
    Y = np.zeros((3, 1))
    # q + 2 rows needed; pad with more rows but check the documented case
    X = np.column_stack([np.ones(5), [1.0, 2.0, 3.0, 4.0, 5.0]])
    Y = np.zeros((5, 1))
    d = make_dataset(X, Y, np.ones((5, 1), dtype=bool))
    t = TransformSpec(response=["none"], standardize=[True])
    out = apply_transforms(d, t)
    # mean 3, sample sd sqrt(2.5)
    np.testing.assert_allclose(out.X[:, 1],
                               (np.arange(1.0, 6.0) - 3.0) / np.sqrt(2.5))
    # canonical 3-point case: mean 2, sample sd 1
    col = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose((col - col.mean()) / col.std(ddof=1),
                               [-1.0, 0.0, 1.0])


def test_standardize_applies_given_constants():
    # constants already on the spec (a fit's) are used, not the data's own
    d = base_dataset()
    t = TransformSpec(response=["none", "none"], standardize=[True, False],
                      centers=np.array([10.0, 0.0]), scales=np.array([4.0, 1.0]))
    out = apply_transforms(d, t)
    np.testing.assert_array_equal(out.X[:, 1], (d.X[:, 1] - 10.0) / 4.0)
    np.testing.assert_array_equal(out.X[:, 2], d.X[:, 2])
    t = TransformSpec(response=["none", "none"], standardize=[True, True],
                      centers=np.zeros(1), scales=np.ones(1))
    with pytest.raises(ValueError, match="constants do not match covariate count"):
        apply_transforms(d, t)


def test_identity_transform_is_bitwise():
    d = base_dataset()
    t = TransformSpec(response=["none", "none"], standardize=[False, False])
    out = apply_transforms(d, t)
    assert np.array_equal(out.X, d.X)
    assert np.array_equal(out.Y[d.mask], d.Y[d.mask])


def test_log_rejects_nonpositive_with_location():
    d = base_dataset()
    t = TransformSpec(response=["none", "log"], standardize=[False, False])
    d.Y[3, 1] = -1.0
    with pytest.raises(ValueError) as err:
        apply_transforms(d, t)
    assert "r3" in str(err.value) and "y2" in str(err.value)


def test_unknown_transform_tag_rejected():
    with pytest.raises(ValueError, match="unknown response transform"):
        TransformSpec(response=["sqrt"], standardize=[])


def test_transforms_entry_rejects_what_it_would_drop():
    names, covariates = ["y1", "y2"], ["intercept", "x1", "x2"]
    t = TransformSpec.from_config({"responses": {"y2": "log"}, "standardize": {"x2": False}},
                                  names, covariates)
    assert t.response == ["none", "log"] and t.standardize == [True, False]
    for cfg, key in [({"responses": "log", "standardise": False}, "standardise"),
                     ({"responses": {"y3": "log"}}, "y3"),
                     ({"standardize": {"intercept": False}}, "intercept")]:
        with pytest.raises(ValueError, match=rf"transforms.*'{key}'"):
            TransformSpec.from_config(cfg, names, covariates)


# -- synthesize ---------------------------------------------------------------


def test_synthesize_zero_coefficients_identity_covariance():
    spec = SynthSpec(l=10_000, n=3, q=4, B=np.zeros((3, 4)), with_coords=False)
    d, truth = synthesize(spec, seed=1)
    cov = np.cov(d.Y.T)
    np.testing.assert_allclose(cov, np.eye(3), atol=0.05)
    assert truth["B"] == np.zeros((3, 4)).tolist()


def test_synthesize_no_missing_means_full_mask():
    d, _ = synthesize(SynthSpec(l=50, n=2, q=3, missing_prob=0.0), seed=2)
    assert d.mask.all()


def test_synthesize_deterministic():
    spec = SynthSpec(l=60, n=2, q=3, missing_prob=0.3)
    d1, t1 = synthesize(spec, seed=9)
    d2, t2 = synthesize(spec, seed=9)
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.Y[d1.mask], d2.Y[d2.mask])
    assert np.array_equal(d1.mask, d2.mask)
    assert t1 == t2


def test_synthesize_rejects_bad_sigma():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError, match="positive definite"):
        synthesize(SynthSpec(l=20, n=2, q=3, Sigma=bad), seed=0)


def test_synthesize_rejects_bad_probability():
    with pytest.raises(ValueError, match="probabilities"):
        synthesize(SynthSpec(l=20, n=2, q=3, missing_prob=1.5), seed=0)


def test_synthesize_planted_rows_have_high_leverage():
    from extrapolmv.diagnostics import hat_diagonal
    d, _ = synthesize(SynthSpec(l=200, n=2, q=5, planted_high_leverage=2),
                      seed=12)
    h = hat_diagonal(d.X)
    assert set(np.argsort(h)[-2:]) == {198, 199}


def _split_table(n):
    return ["id", "x"], [[f"r{i}" for i in range(n)], np.arange(n) / 7]


def test_write_table_forks_one_worker_from_the_threshold(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_SPLIT_CELLS", 100)
    monkeypatch.setattr(dataset, "_cores", lambda: 2)
    fork = mock.Mock(wraps=os.fork)
    monkeypatch.setattr(os, "fork", fork)
    dataset._write_table(tmp_path / "below.csv", *_split_table(49))  # 98 cells
    assert fork.call_count == 0
    dataset._write_table(tmp_path / "above.csv", *_split_table(50))  # 100 cells
    assert fork.call_count == 1
    assert (tmp_path / "above.csv").read_bytes().startswith(
        (tmp_path / "below.csv").read_bytes())
    # with another thread running the table is written by this process alone
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        dataset._write_table(tmp_path / "threads.csv", *_split_table(50))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert fork.call_count == 1
    assert (tmp_path / "threads.csv").read_bytes() == (tmp_path / "above.csv").read_bytes()


@pytest.mark.parametrize("half", ["worker", "parent", "worker_killed", "worker_send"])
def test_a_failed_half_leaves_no_output_and_no_process(tmp_path, monkeypatch, half):
    monkeypatch.setattr(dataset, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", 8)
    monkeypatch.setattr(dataset, "_cores", lambda: 2)
    format_rows = dataset._format_rows
    parent = os.getpid()

    def failing(columns, lo, hi):
        in_worker = os.getpid() != parent
        if half == "parent" and not in_worker:
            raise ValueError("parent cannot format")
        if half == "worker" and in_worker:
            raise ValueError("worker cannot format")
        if half == "worker_killed" and in_worker:
            os.kill(os.getpid(), signal.SIGKILL)
        if half == "worker_send" and in_worker:
            # formatted, but the send stops partway: the parent gets a truncated half
            return [*format_rows(columns, lo, hi), "not bytes"]
        return format_rows(columns, lo, hi)

    monkeypatch.setattr(dataset, "_format_rows", failing)
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"before\r\n")
    for path in (tmp_path / "new.csv", kept):
        # the parent's half raises what the serial writer would
        error, message = (ValueError, "parent cannot format") if half == "parent" else (
            ChildProcessError, f"{path}: the worker writing rows 20..40 failed: " + {
                "worker": "ValueError: worker cannot format",
                "worker_killed": "signal 9",
                "worker_send": "exit status 1"}[half])
        with pytest.raises(error) as info:
            dataset._write_table(path, *_split_table(40))
        assert str(info.value) == message
        with pytest.raises(ChildProcessError):  # no child left, running or not reaped
            os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "new.csv").exists()
    assert kept.read_bytes() == b"before\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]  # no temp file left


def test_a_json_write_that_raises_leaves_no_temp_file(tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("{}\n")
    for path in (tmp_path / "new.json", kept):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dataset._write_json(path, {"x": object()})
    assert kept.read_text() == "{}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
