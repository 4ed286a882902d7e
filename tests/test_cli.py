import csv
import io
import itertools
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import extrapolmv.cli as cli
from extrapolmv.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# the quick start's fit, and the shorter one the tests and CI run in its place
QUICK_FIT = ("--iters 4000 --burnin 1000", "--iters 400 --burnin 100")


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("pipe"))


def _run_pipeline(root, keep_record=True, **spec):
    """One full simulate -> fit -> score -> tree -> report run; spec
    entries are added to the synthesis spec. Without keep_record, the
    record simulate writes beside dataset.csv is deleted before fit."""
    spec_path = root / "synth.json"
    spec_path.write_text(json.dumps(
        {"l": 400, "n": 3, "q": 6, "missing_prob": [0.3, 0.1, 0.0], **spec}))
    sim, fit, scores, tree, rep = (root / n for n in
                                   ("sim", "fit", "scores", "tree", "rep"))
    assert run("simulate", "--spec", spec_path, "--seed", 11, "--out", sim) == 0
    if not keep_record:
        (sim / "dataset.npz").unlink()
    assert run("fit", "--data", sim / "dataset.csv",
               "--config", sim / "config.json",
               "--iters", 300, "--burnin", 100, "--chains", 2, "--seed", 5,
               "--out", fit) == 0
    assert run("score", "--draws", fit, "--data", sim / "dataset.csv",
               "--measure", "det", "--measure", "trace",
               "--measure", "cmvpv:y1", "--out", scores) == 0
    assert run("tree", "--scores", scores, "--data", sim / "dataset.csv",
               "--label", "e_q95", "--min-leaf", 10, "--out", tree) == 0
    assert run("report", "--scores", scores, "--tree", tree, "--out", rep) == 0
    return {"root": root, "sim": sim, "fit": fit, "scores": scores,
            "tree": tree, "rep": rep, "spec": spec_path}


def test_pipeline_without_coordinates(tmp_path):
    # a dataset without lon/lat goes through every command; scores.csv
    # keeps its lon and lat columns, blank in every row
    pipe = _run_pipeline(tmp_path, with_coords=False)
    header, _ = read_csv(pipe["sim"] / "dataset.csv")
    assert "lon" not in header and "lat" not in header
    assert json.loads((pipe["sim"] / "config.json").read_text())["lon_col"] is None
    header, rows = read_csv(pipe["scores"] / "scores.csv")
    assert len(rows) == 400
    assert {r[header.index(c)] for r in rows for c in ("lon", "lat")} == {""}
    assert (pipe["rep"] / "report.md").stat().st_size > 0


def test_outputs_and_manifests_exist(pipeline):
    for key, files in [("sim", ["dataset.csv", "truth.json", "config.json"]),
                       ("fit", ["draws.csv", "draws.npz", "meta.json"]),
                       ("scores", ["scores.csv"]),
                       ("tree", ["tree.json", "tree.txt"]),
                       ("rep", ["report.md"])]:
        outdir = pipeline[key]
        for name in files + ["manifest.json"]:
            assert (outdir / name).exists(), f"{key}/{name} missing"
    manifest = json.loads((pipeline["fit"] / "manifest.json").read_text())
    assert set(manifest["timings"]) == {"ingest", "sweep", "diagnostics", "write"}
    assert all(s >= 0 for s in manifest["timings"].values())
    assert manifest["environment"]["cores"] >= 1
    assert "OPENBLAS_NUM_THREADS" in manifest["environment"]["blas_env"]
    meta = (pipeline["fit"] / "meta.json").read_text()
    assert "timings" not in meta and "environment" not in meta
    score_manifest = json.loads((pipeline["scores"] / "manifest.json").read_text())
    assert set(score_manifest["timings"]) == {"load", "measures", "cutoffs", "write"}
    assert all(s >= 0 for s in score_manifest["timings"].values())
    assert "timings" not in (pipeline["scores"] / "scores.csv").read_text()


def test_every_command_records_its_stage_timings(pipeline):
    for key, stages in [("sim", {"synthesize", "write"}),
                        ("fit", {"ingest", "sweep", "diagnostics", "write"}),
                        ("scores", {"load", "measures", "cutoffs", "write"}),
                        ("tree", {"load", "grow", "write"}),
                        ("rep", {"read", "write"})]:
        timings = json.loads((pipeline[key] / "manifest.json").read_text())["timings"]
        assert set(timings) == stages, key
        assert all(s >= 0 for s in timings.values()), key


def test_outputs_go_through_one_writer(pipeline):
    # every file is renamed from its temp file, every JSON file but
    # tree.json comes from one writer (export_tree writes the same format),
    # and every CSV file has csv.writer's bytes
    outputs = [p for key in ("sim", "fit", "scores", "tree", "rep")
               for p in pipeline[key].iterdir()]
    assert not [p for p in outputs if p.name.endswith(".tmp")]
    json_files = sorted(f"{p.parent.name}/{p.name}" for p in outputs if p.suffix == ".json")
    assert json_files == ["fit/manifest.json", "fit/meta.json", "rep/manifest.json",
                          "scores/manifest.json", "sim/config.json", "sim/manifest.json",
                          "sim/truth.json", "tree/manifest.json", "tree/tree.json"]
    for name in json_files:
        text = (pipeline["root"] / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", name
    csv_files = sorted(f"{p.parent.name}/{p.name}" for p in outputs if p.suffix == ".csv")
    assert csv_files == ["fit/draws.csv", "scores/scores.csv", "sim/dataset.csv"]
    for name in csv_files:
        data = (pipeline["root"] / name).read_bytes()
        written = io.StringIO(newline="")
        csv.writer(written).writerows(csv.reader(io.StringIO(data.decode(), newline="")))
        assert data == written.getvalue().encode(), name


def test_scores_columns_and_monotone_counts(pipeline):
    header, rows = read_csv(pipeline["scores"] / "scores.csv")
    for col in ("mvpv_tr", "mvpv_logdet", "cmvpv_y1",
                "e_max", "e_lev", "e_q99", "e_q95",
                "k_max", "r_q95", "first_flagging_cutoff"):
        assert col in header
    counts = {}
    for name in ("max", "lev", "q99", "q95"):
        i = header.index(f"e_{name}")
        counts[name] = sum(int(r[i]) for r in rows)
    assert counts["max"] <= counts["lev"] <= counts["q99"] <= counts["q95"]
    assert counts["max"] == 0  # no observed value exceeds its own max


def test_map_columns_are_in_scores(pipeline):
    # scores.csv is the one per-location output; a map reads its columns
    assert not (pipeline["scores"] / "plotdata.csv").exists()
    header, rows = read_csv(pipeline["scores"] / "scores.csv")
    assert {"id", "lon", "lat", "first_flagging_cutoff"} <= set(header)
    assert len(rows) == 400


def test_scores_header_is_golden(pipeline):
    header, _ = read_csv(pipeline["scores"] / "scores.csv")
    assert header == [
        "id", "lon", "lat", "status",
        "mvpv_tr", "mvpv_logdet", "cmvpv_y1",
        "k_max", "e_max", "r_max",
        "k_lev", "e_lev", "r_lev",
        "k_q99", "e_q99", "r_q99",
        "k_q95", "e_q95", "r_q95",
        "first_flagging_cutoff",
    ]


def test_meta_records_hash_and_convergence(pipeline):
    meta = json.loads((pipeline["fit"] / "meta.json").read_text())
    assert meta["dataset_hash"]
    assert meta["convergence"]["max_rhat"] > 0
    assert meta["ingest_config"]["responses"] == ["y1", "y2", "y3"]


def test_simulate_is_deterministic(pipeline, tmp_path):
    assert run("simulate", "--spec", pipeline["spec"], "--seed", 11,
               "--out", tmp_path / "again") == 0
    m1 = json.loads((pipeline["sim"] / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "again" / "manifest.json").read_text())
    assert m1["dataset_hash"] == m2["dataset_hash"]
    assert (pipeline["sim"] / "dataset.csv").read_bytes() == \
        (tmp_path / "again" / "dataset.csv").read_bytes()


def test_simulate_negative_seed_is_one_error_line(pipeline, tmp_path, capsys):
    # refused as fit refuses it, naming the seed, before --out is made
    capsys.readouterr()
    assert run("simulate", "--spec", pipeline["spec"], "--seed", -1,
               "--out", tmp_path / "sim") == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be non-negative, not -1"]
    assert not (tmp_path / "sim").exists()


def test_fit_same_seed_byte_identical(pipeline, tmp_path):
    out2 = tmp_path / "fit2"
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv",
               "--config", pipeline["sim"] / "config.json",
               "--iters", 300, "--burnin", 100, "--chains", 2, "--seed", 5,
               "--out", out2) == 0
    assert (pipeline["fit"] / "draws.csv").read_bytes() == \
        (out2 / "draws.csv").read_bytes()
    assert (pipeline["fit"] / "meta.json").read_bytes() == \
        (out2 / "meta.json").read_bytes()
    assert (pipeline["fit"] / "draws.npz").read_bytes() == \
        (out2 / "draws.npz").read_bytes()


def test_json_inputs_may_start_with_a_byte_order_mark(pipeline, tmp_path):
    # Windows Notepad saves "UTF-8 with BOM"; the mark is dropped, as in
    # the dataset CSV, and the outputs are those of the unmarked file
    spec, config = tmp_path / "synth.json", tmp_path / "config.json"
    spec.write_bytes(b"\xef\xbb\xbf" + pipeline["spec"].read_bytes())
    config.write_bytes(b"\xef\xbb\xbf" + (pipeline["sim"] / "config.json").read_bytes())
    assert run("simulate", "--spec", spec, "--seed", 11, "--out", tmp_path / "sim") == 0
    assert (tmp_path / "sim" / "dataset.csv").read_bytes() == \
        (pipeline["sim"] / "dataset.csv").read_bytes()
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv", "--config", config,
               "--iters", 300, "--burnin", 100, "--chains", 2, "--seed", 5,
               "--out", tmp_path / "fit") == 0
    assert (tmp_path / "fit" / "draws.npz").read_bytes() == \
        (pipeline["fit"] / "draws.npz").read_bytes()


def test_refused_fit_save_leaves_no_directory(pipeline, tmp_path, monkeypatch, capsys):
    # save_fit checks the draws before it makes the output directory
    fit = cli.gibbs_fit
    def fit_with_nan(d, spec):
        p = fit(d, spec)
        p.B_draws[0, 0, 0] = np.nan
        return p
    monkeypatch.setattr(cli, "gibbs_fit", fit_with_nan)
    capsys.readouterr()
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv",
               "--config", pipeline["sim"] / "config.json",
               "--iters", 20, "--burnin", 5, "--out", tmp_path / "out") == 1
    assert "non-finite B draw values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_without_covariates(pipeline, tmp_path, monkeypatch):
    # the intercept alone, fewer covariates than responses, has a proper
    # default inverse-Wishart prior, and load_csv reads no covariate column
    cfg = json.loads((pipeline["sim"] / "config.json").read_text())
    cfg["covariates"] = []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    loaded = []
    real = cli.load_csv
    monkeypatch.setattr(cli, "load_csv", lambda *a: loaded.append(real(*a)) or loaded[-1])
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv", "--config", path,
               "--iters", 300, "--burnin", 100, "--seed", 5,
               "--out", tmp_path / "fit") in (0, 2)
    [d] = loaded
    assert d.covariate_names == ["intercept"] and d.X.shape == (400, 1)
    meta = json.loads((tmp_path / "fit" / "meta.json").read_text())
    assert meta["covariate_names"] == ["intercept"]


def test_burnin_at_least_iterations_is_an_error(pipeline, tmp_path):
    rc = run("fit", "--data", pipeline["sim"] / "dataset.csv",
             "--config", pipeline["sim"] / "config.json",
             "--iters", 10, "--burnin", 20, "--out", tmp_path / "bad")
    assert rc == 1


@pytest.mark.parametrize("argv, words", [
    (["--iters", 5, "--burnin", 2], "at least 4 draws per chain"),
    (["--chains", 1, "--iters", 150, "--burnin", 100], "at least 2 chains or 100 draws"),
    (["--iters", 20, "--burnin", 5, "--prior-var", "nan"], "prior variance"),
    (["--iters", 20, "--burnin", 5, "--seed", -1], "seed must be non-negative, not -1"),
], ids=["three_draws_a_chain", "one_chain_of_fifty", "nan_prior_variance", "negative_seed"])
def test_undiagnosable_run_is_refused_before_the_sweep(pipeline, tmp_path, capsys,
                                                       monkeypatch, argv, words):
    # too few kept draws for the convergence summary, a NaN prior variance
    # or a negative seed: one error line and no output, before any sweep
    def no_sweep(d, spec):
        raise AssertionError("gibbs_fit ran")

    monkeypatch.setattr(cli, "gibbs_fit", no_sweep)
    capsys.readouterr()
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv",
               "--config", pipeline["sim"] / "config.json", *argv,
               "--out", tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and words in line, line
    assert not (tmp_path / "out").exists()


def test_unconverged_fit_returns_warning_code(pipeline, tmp_path):
    rc = run("fit", "--data", pipeline["sim"] / "dataset.csv",
             "--config", pipeline["sim"] / "config.json",
             "--iters", 24, "--burnin", 4, "--chains", 2, "--seed", 3,
             "--out", tmp_path / "warn")
    assert rc == 2
    assert (tmp_path / "warn" / "draws.csv").exists()


def test_stale_dataset_hash_rejected_unless_forced(pipeline, tmp_path):
    tampered = tmp_path / "tampered.csv"
    text = (pipeline["sim"] / "dataset.csv").read_text()
    lines = text.splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[3], "0.123456")
    tampered.write_text("\n".join(lines) + "\n")
    rc = run("score", "--draws", pipeline["fit"], "--data", tampered,
             "--out", tmp_path / "s1")
    assert rc == 1
    rc = run("score", "--draws", pipeline["fit"], "--data", tampered,
             "--force", "--out", tmp_path / "s2")
    assert rc == 0


def test_score_applies_the_fit_transform_constants(pipeline, tmp_path, monkeypatch):
    # shift one covariate: --force scores the edited file, but standardizes
    # it with the centers and scales the fit recorded, not the file's own
    header, rows = read_csv(pipeline["sim"] / "dataset.csv")
    col = header.index("x2")
    raw = np.array([float(r[col]) + 5.0 for r in rows])
    for r, v in zip(rows, raw):
        r[col] = repr(float(v))
    edited = tmp_path / "edited.csv"
    with open(edited, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)

    seen = []
    real = cli.score_locations
    monkeypatch.setattr(cli, "score_locations",
                        lambda p, d, **kw: seen.append(d) or real(p, d, **kw))
    assert run("score", "--draws", pipeline["fit"], "--data", edited, "--force",
               "--out", tmp_path / "s") == 0
    meta = json.loads((pipeline["fit"] / "meta.json").read_text())
    covariates = meta["covariate_names"][1:]
    j = covariates.index("x2")
    center = meta["transform_constants"]["centers"][j]
    scale = meta["transform_constants"]["scales"][j]
    np.testing.assert_array_equal(seen[0].X[:, j + 1], (raw - center) / scale)


def test_score_needs_draws_npz(pipeline, tmp_path, capsys):
    old = tmp_path / "old_fit"
    old.mkdir()
    for name in ("draws.csv", "meta.json"):
        (old / name).write_bytes((pipeline["fit"] / name).read_bytes())
    capsys.readouterr()
    rc = run("score", "--draws", old, "--data", pipeline["sim"] / "dataset.csv",
             "--out", tmp_path / "s")
    assert rc == 1
    assert "draws.npz" in capsys.readouterr().err


def _score_and_tree(fit, data, out):
    """score and tree as the pipeline fixture runs them, into out/scores
    and out/tree; the data_source each manifest records."""
    assert run("score", "--draws", fit, "--data", data,
               "--measure", "det", "--measure", "trace",
               "--measure", "cmvpv:y1", "--out", out / "scores") == 0
    assert run("tree", "--scores", out / "scores", "--data", data,
               "--label", "e_q95", "--min-leaf", 10, "--out", out / "tree") == 0
    return [json.loads((out / d / "manifest.json").read_text())["data_source"]
            for d in ("scores", "tree")]


def test_fit_record_and_csv_give_the_same_outputs(pipeline, tmp_path):
    # the record fit wrote, no record, and a stale record from a fit of
    # another dataset (ignored: its hash is not that of --data)
    data = pipeline["sim"] / "dataset.csv"
    other = tmp_path / "other"
    assert run("simulate", "--spec", pipeline["spec"], "--seed", 12,
               "--out", other / "sim") == 0
    assert run("fit", "--data", other / "sim" / "dataset.csv",
               "--config", other / "sim" / "config.json", "--iters", 20, "--burnin", 5,
               "--out", other / "fit") in (0, 2)
    sources = {}
    for case in ("record", "none", "stale"):
        fit = tmp_path / case / "fit"
        fit.mkdir(parents=True)
        for name in ("draws.npz", "meta.json"):
            (fit / name).write_bytes((pipeline["fit"] / name).read_bytes())
        record = {"record": pipeline["fit"], "stale": other / "fit"}.get(case)
        if record:
            (fit / "dataset.npz").write_bytes((record / "dataset.npz").read_bytes())
        sources[case] = _score_and_tree(fit, data, tmp_path / case)
        for name in ("scores/scores.csv", "tree/tree.json"):
            key, rest = name.split("/")
            assert (tmp_path / case / name).read_bytes() == \
                (pipeline[key] / rest).read_bytes(), (case, name)
    assert sources == {"record": ["fit record"] * 2, "none": ["csv"] * 2,
                       "stale": ["csv"] * 2}


def test_tree_finds_the_fit_record_of_a_relative_draws_path(pipeline, tmp_path, monkeypatch):
    # score records where its --draws lies, so tree run from another
    # working directory still reads the fit record, not dataset.csv
    shutil.copytree(pipeline["fit"], tmp_path / "fit")
    data = pipeline["sim"] / "dataset.csv"
    monkeypatch.chdir(tmp_path)
    assert run("score", "--draws", "fit", "--data", data, "--out", tmp_path / "scores") == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert run("tree", "--scores", tmp_path / "scores", "--data", data,
               "--out", tmp_path / "tree") == 0
    manifest = json.loads((tmp_path / "tree" / "manifest.json").read_text())
    assert manifest["data_source"] == "fit record"


def test_pipeline_parses_the_csv_once(tmp_path, monkeypatch):
    # fit reads the table simulate recorded, so no command parses
    # dataset.csv; without that record fit parses it, and score and tree
    # read the table fit recorded
    calls = []
    real = cli.load_csv
    monkeypatch.setattr(cli, "load_csv", lambda *a: calls.append(a) or real(*a))
    recorded, parsed = tmp_path / "recorded", tmp_path / "parsed"
    recorded.mkdir()
    parsed.mkdir()
    _run_pipeline(recorded)
    assert len(calls) == 0
    pipe = _run_pipeline(parsed, keep_record=False)
    assert len(calls) == 1
    assert [json.loads((pipe[d] / "manifest.json").read_text())["data_source"]
            for d in ("fit", "scores", "tree")] == ["csv", "fit record", "fit record"]


def _fit(sim, out, config=None):
    """A short fit of sim/dataset.csv; its exit code and data_source."""
    rc = run("fit", "--data", sim / "dataset.csv", "--config", config or sim / "config.json",
             "--iters", 20, "--burnin", 5, "--seed", 5, "--out", out)
    return rc, json.loads((out / "manifest.json").read_text())["data_source"]


@pytest.mark.parametrize("case", ["absent", "foreign", "not_zip", "edited_csv",
                                  "other_config"])
def test_fit_parses_the_csv_when_the_record_beside_it_misses(pipeline, tmp_path, case):
    # simulate's record is read only when it holds --data for this config;
    # any other dataset.npz beside the CSV is no error, and fit writes what
    # it writes when it parses the CSV with no record beside it
    sim, bare = tmp_path / "sim", tmp_path / "bare"
    shutil.copytree(pipeline["sim"], sim)
    config = None
    if case == "absent":
        (sim / "dataset.npz").unlink()
    elif case == "foreign":
        np.savez(sim / "dataset.npz", a=np.arange(3))
    elif case == "not_zip":
        (sim / "dataset.npz").write_bytes(b"not a zip archive\n")
    elif case == "edited_csv":  # the last row dropped
        lines = (sim / "dataset.csv").read_bytes().splitlines(keepends=True)
        (sim / "dataset.csv").write_bytes(b"".join(lines[:-1]))
    else:  # the covariates reversed: a table of the record's shape, but not its table
        cfg = json.loads((sim / "config.json").read_text())
        cfg["covariates"] = cfg["covariates"][::-1]
        config = tmp_path / "other_config.json"
        config.write_text(json.dumps(cfg))
    bare.mkdir()
    for name in ("dataset.csv", "config.json"):
        (bare / name).write_bytes((sim / name).read_bytes())
    rc, source = _fit(sim, tmp_path / "fit", config)
    assert (rc, source) == (_fit(bare, tmp_path / "parsed", config)[0], "csv")
    if case in ("absent", "foreign", "not_zip"):  # --data is simulate's: as a hit
        assert _fit(pipeline["sim"], tmp_path / "hit") == (rc, "record")
    for name in ("draws.npz", "dataset.npz", "meta.json"):
        want = (tmp_path / "parsed" / name).read_bytes()
        assert (tmp_path / "fit" / name).read_bytes() == want, name
        if case in ("absent", "foreign", "not_zip"):
            assert (tmp_path / "hit" / name).read_bytes() == want, name


def test_fit_record_is_byte_deterministic(pipeline, tmp_path):
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv",
               "--config", pipeline["sim"] / "config.json", "--iters", 20, "--burnin", 5,
               "--seed", 5, "--out", tmp_path / "fit") in (0, 2)
    assert (tmp_path / "fit" / "dataset.npz").read_bytes() == \
        (pipeline["fit"] / "dataset.npz").read_bytes()


@pytest.mark.parametrize("case", ["without_X", "Y_wrong_shape", "mask_not_bool",
                                  "duplicate_ids", "truncated", "npy", "tree_without_X",
                                  "tree_truncated"])
def test_malformed_fit_record_is_one_error_line(pipeline, tmp_path, capsys, case):
    # the hashes match, so the record is meant for --data, but its arrays are
    # bad; or the record is cut short, and must leave no file open
    fit = tmp_path / "fit"
    fit.mkdir()
    for name in ("draws.npz", "meta.json"):
        (fit / name).write_bytes((pipeline["fit"] / name).read_bytes())
    with np.load(pipeline["fit"] / "dataset.npz") as npz:
        arrays = dict(npz)
    if case.endswith("without_X"):
        del arrays["X"]
    elif case == "Y_wrong_shape":
        arrays["Y"] = arrays["Y"][:, 1:]
    elif case == "mask_not_bool":
        arrays["mask"] = arrays["mask"].astype(float)
    elif case == "duplicate_ids":
        arrays["ids"] = np.frombuffer("\n".join(["a"] * len(arrays["X"])).encode(), np.uint8)
    if case.endswith("truncated"):  # an archive cut short: not a zip file
        record = (pipeline["fit"] / "dataset.npz").read_bytes()
        (fit / "dataset.npz").write_bytes(record[:len(record) // 2])
    elif case == "npy":  # one array saved under the archive's name
        with open(fit / "dataset.npz", "wb") as fh:
            np.save(fh, arrays["X"])
    else:
        np.savez(fit / "dataset.npz", **arrays)
    data = pipeline["sim"] / "dataset.csv"
    if case.startswith("tree_"):
        scores = tmp_path / "scores"
        scores.mkdir()
        (scores / "scores.csv").write_bytes((pipeline["scores"] / "scores.csv").read_bytes())
        manifest = json.loads((pipeline["scores"] / "manifest.json").read_text())
        manifest["params"]["draws"] = str(fit)
        (scores / "manifest.json").write_text(json.dumps(manifest))
        argv = ["tree", "--scores", scores, "--data", data]
    else:
        argv = ["score", "--draws", fit, "--data", data]
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(fit / "dataset.npz") in line, line
    assert "re-run fit" in line, line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["B_axis_dropped", "Sigma_axis_dropped", "B_4_of_6_covariates",
                                  "without_B", "float_fit_rows", "truncated", "npy"])
def test_malformed_draws_npz_is_one_error_line(pipeline, tmp_path, capsys, case):
    # meta.json is sound; draws.npz is not the archive save_fit writes for it
    fit = tmp_path / "fit"
    shutil.copytree(pipeline["fit"], fit)
    with np.load(fit / "draws.npz") as npz:
        arrays = dict(npz)
    if case == "B_axis_dropped":
        arrays["B_draws"] = arrays["B_draws"][:, 0]
    elif case == "Sigma_axis_dropped":
        arrays["Sigma_draws"] = arrays["Sigma_draws"][:, 0]
    elif case == "B_4_of_6_covariates":
        arrays["B_draws"] = arrays["B_draws"][:, :, :4]
    elif case == "without_B":
        del arrays["B_draws"]
    elif case == "float_fit_rows":
        arrays["fit_rows"] = arrays["fit_rows"].astype(float)
    if case == "truncated":  # an archive cut short: not a zip file
        (fit / "draws.npz").write_bytes((fit / "draws.npz").read_bytes()[:5000])
    elif case == "npy":  # one array saved under the archive's name
        with open(fit / "draws.npz", "wb") as fh:
            np.save(fh, arrays["B_draws"])
    else:
        np.savez(fit / "draws.npz", **arrays)
    capsys.readouterr()
    assert run("score", "--draws", fit, "--data", pipeline["sim"] / "dataset.csv",
               "--out", tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(fit / "draws.npz") in line, line
    assert "re-run fit" in line, line
    assert not (tmp_path / "out").exists()


def test_tree_warns_when_data_is_not_the_scored_file(pipeline, tmp_path, capsys):
    # same ids, other covariates: the labels would be joined onto them silently
    header, rows = read_csv(pipeline["sim"] / "dataset.csv")
    col = header.index("x2")
    for r in rows:
        r[col] = repr(float(r[col]) + 5.0)
    edited = tmp_path / "edited.csv"
    with open(edited, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    capsys.readouterr()
    assert run("tree", "--scores", pipeline["scores"], "--data", edited,
               "--out", tmp_path / "t") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: "), line
    assert str(edited) in line and str(pipeline["sim"] / "dataset.csv") in line, line
    assert (tmp_path / "t" / "tree.json").exists()


def test_cmvpv_rescore_is_byte_identical(pipeline, tmp_path):
    # scoring the same fit again on the CMVPV path writes the same bytes
    argv = ["score", "--draws", pipeline["fit"], "--data", pipeline["sim"] / "dataset.csv",
            "--measure", "cmvpv:y1", "--measure", "cmvpv:y2"]
    assert run(*argv, "--out", tmp_path / "a") == 0
    assert run(*argv, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a" / "scores.csv").read_bytes() == \
        (tmp_path / "b" / "scores.csv").read_bytes()


def test_unknown_measure_response_is_error(pipeline, tmp_path):
    rc = run("score", "--draws", pipeline["fit"],
             "--data", pipeline["sim"] / "dataset.csv",
             "--measure", "cmvpv:bogus", "--out", tmp_path / "s")
    assert rc == 1


@pytest.mark.parametrize("measure", ["det", "cmvpv:y1"])
def test_repeated_measure_is_one_error_line(pipeline, tmp_path, capsys, measure):
    # a repeated measure would write its column twice, which tree refuses
    capsys.readouterr()
    assert run("score", "--draws", pipeline["fit"], "--data", pipeline["sim"] / "dataset.csv",
               "--measure", measure, "--measure", "trace", "--measure", measure,
               "--out", tmp_path / "s") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and repr(measure) in line, line
    assert not (tmp_path / "s" / "scores.csv").exists()


def test_tree_uses_raw_covariate_units(pipeline):
    doc = json.loads((pipeline["tree"] / "tree.json").read_text())
    header, rows = read_csv(pipeline["sim"] / "dataset.csv")

    def thresholds(node, out):
        if "feature" in node:
            out.append((node["feature"], node["threshold"]))
            thresholds(node["left"], out)
            thresholds(node["right"], out)
        return out

    for feature, threshold in thresholds(doc, []):
        i = header.index(feature)
        vals = [float(r[i]) for r in rows]
        assert min(vals) < threshold < max(vals)


def test_constant_label_gives_single_leaf(pipeline, tmp_path, capsys):
    # a copy of the score directory whose e_q95 column is all zeros
    scores = tmp_path / "scores"
    shutil.copytree(pipeline["scores"], scores)
    header, rows = read_csv(scores / "scores.csv")
    i = header.index("e_q95")
    for r in rows:
        r[i] = "0"
    with open(scores / "scores.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    capsys.readouterr()
    treedir = tmp_path / "flat"
    rc = run("tree", "--scores", scores, "--data", pipeline["sim"] / "dataset.csv",
             "--label", "e_q95", "--out", treedir)
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("warning: ") and "'e_q95' is constant" in line, line
    doc = json.loads((treedir / "tree.json").read_text())
    assert "feature" not in doc
    assert run("report", "--scores", pipeline["scores"], "--tree", treedir,
               "--out", tmp_path / "rep") == 0
    report = (tmp_path / "rep" / "report.md").read_text(encoding="utf-8")
    assert report.endswith("## Top tree splits\n\n- single leaf (no splits)\n")


def test_data_id_missing_from_scores_is_one_error_line(pipeline, tmp_path, capsys):
    # the dataset gains a row the score run never saw: no label to give it
    header, rows = read_csv(pipeline["sim"] / "dataset.csv")
    extra = tmp_path / "extra.csv"
    with open(extra, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows, ["extra01", *rows[0][1:]]])
    capsys.readouterr()
    assert run("tree", "--scores", pipeline["scores"], "--data", extra,
               "--label", "e_q95", "--out", tmp_path / "t") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: scores file has no row for id 'extra01'"
    assert not (tmp_path / "t").exists()


def test_missing_label_column_is_error(pipeline, tmp_path):
    rc = run("tree", "--scores", pipeline["scores"],
             "--data", pipeline["sim"] / "dataset.csv",
             "--label", "e_nope", "--out", tmp_path / "t")
    assert rc == 1


@pytest.mark.parametrize("label", ["mvpv_tr", "r_max", "k_q95"])
def test_non_binary_label_column_is_error(pipeline, tmp_path, capsys, label):
    # a trace or a ratio must not be truncated into 0/1 labels
    rc = run("tree", "--scores", pipeline["scores"],
             "--data", pipeline["sim"] / "dataset.csv",
             "--label", label, "--out", tmp_path / "t")
    assert rc == 1
    assert f"label column {label!r}" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("fault", ["short_line", "blank_label", "label_two", "label_nan",
                                   "not_utf8"])
def test_a_faulty_scores_file_is_one_error_line(pipeline, tmp_path, capsys, fault):
    # tree reads scores.csv through the table parser: a faulty line is named
    scores = tmp_path / "scores"
    shutil.copytree(pipeline["scores"], scores)
    path = scores / "scores.csv"
    header, rows = read_csv(path)
    line, label = 30, header.index("e_q95")
    row = rows[line - 2]
    if fault == "short_line":
        row.pop()
    elif fault == "blank_label":
        row[label] = ""
    elif fault == "label_two":
        row[label] = "2"
    elif fault == "label_nan":
        row[label] = "nan"
    else:  # the byte 0xff after the id, written through surrogateescape
        row[0] += "\udcff"
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        csv.writer(fh).writerows([header] + rows)
    capsys.readouterr()
    assert run("tree", "--scores", scores, "--data", pipeline["sim"] / "dataset.csv",
               "--label", "e_q95", "--out", tmp_path / "t") == 1
    [err] = capsys.readouterr().err.splitlines()
    assert err == "error: " + {
        "short_line": f"{path}:{line}: expected {len(header)} fields, got {len(header) - 1}",
        "blank_label": f"{path}:{line}: missing label 'e_q95'",
        "label_two": f"{path}:{line}: label column 'e_q95' holds 2.0; "
                     "a tree label must be 0 or 1",
        "label_nan": f"{path}:{line}: non-finite label 'e_q95': 'nan'",
        "not_utf8": f"{path}:{line}: not UTF-8 text: byte 0xff at column {len(row[0])}",
    }[fault]
    assert not (tmp_path / "t").exists()


def test_repeated_id_in_scores_is_one_error_line(pipeline, tmp_path, capsys):
    # a copy of the first row with e_q95 flipped: neither row may win silently
    scores = tmp_path / "scores"
    shutil.copytree(pipeline["scores"], scores)
    header, rows = read_csv(scores / "scores.csv")
    row = list(rows[0])
    row[header.index("e_q95")] = "1" if row[header.index("e_q95")] == "0" else "0"
    with open(scores / "scores.csv", "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(row)
    capsys.readouterr()
    assert run("tree", "--scores", scores, "--data", pipeline["sim"] / "dataset.csv",
               "--label", "e_q95", "--out", tmp_path / "t") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: id {row[0]!r} appears more than once in {scores / 'scores.csv'}"
    assert not (tmp_path / "t").exists()


def _tree(scores, data, out, label="e_q95"):
    """tree as the pipeline fixture runs it; its exit code and the
    label_source its manifest records."""
    rc = run("tree", "--scores", scores, "--data", data, "--label", label,
             "--min-leaf", 10, "--out", out)
    return rc, json.loads((out / "manifest.json").read_text())["label_source"]


def test_flags_record_holds_the_flag_columns_of_scores_csv(pipeline):
    header, rows = read_csv(pipeline["scores"] / "scores.csv")
    with np.load(pipeline["scores"] / "flags.npz") as npz:
        flags = dict(npz)
    assert str(flags.pop("scores_sha256")) == cli._sha256_file(pipeline["scores"] / "scores.csv")
    # simulate records the hash of the CSV it wrote, as score does of scores.csv
    with np.load(pipeline["sim"] / "dataset.npz") as npz:
        assert str(npz["source_sha256"]) == cli._sha256_file(pipeline["sim"] / "dataset.csv")
    assert list(flags) == [name for name in header if name.startswith("e_")]
    assert len(flags) == 4
    for name, column in flags.items():
        assert column.dtype == bool
        assert column.tolist() == [r[header.index(name)] == "1" for r in rows], name


@pytest.mark.parametrize("label", ["e_max", "e_lev", "e_q99", "e_q95"])
def test_flags_record_and_scores_csv_give_the_same_tree(pipeline, tmp_path, label):
    # the CSV path is forced by a score directory without flags.npz
    data = pipeline["sim"] / "dataset.csv"
    bare = tmp_path / "bare"
    shutil.copytree(pipeline["scores"], bare)
    (bare / "flags.npz").unlink()
    record = _tree(pipeline["scores"], data, tmp_path / "record", label)
    parsed = _tree(bare, data, tmp_path / "parsed", label)
    assert record[1] == "flags record" and parsed[1] == "scores.csv"
    assert record[0] == parsed[0]
    for name in ("tree.json", "tree.txt"):
        assert (tmp_path / "record" / name).read_bytes() == \
            (tmp_path / "parsed" / name).read_bytes(), name


def test_tree_reads_an_edited_scores_csv(pipeline, tmp_path):
    # one flipped label: scores.csv no longer has the hash flags.npz
    # records, so tree parses it, and the root counts the edited label
    data = pipeline["sim"] / "dataset.csv"
    scores = tmp_path / "scores"
    shutil.copytree(pipeline["scores"], scores)
    header, rows = read_csv(scores / "scores.csv")
    i = header.index("e_q95")
    j = next(k for k, r in enumerate(rows) if r[i] == "0")
    rows[j][i] = "1"
    with open(scores / "scores.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    assert _tree(pipeline["scores"], data, tmp_path / "before") == (0, "flags record")
    assert _tree(scores, data, tmp_path / "after") == (0, "scores.csv")
    before, after = (json.loads((tmp_path / d / "tree.json").read_text())
                     for d in ("before", "after"))
    assert (after["n0"], after["n1"]) == (before["n0"] - 1, before["n1"] + 1)


@pytest.mark.parametrize("case", ["truncated", "foreign", "npy", "short_e_q95", "int_e_max",
                                  "without_hash"])
def test_malformed_flags_record_is_one_error_line(pipeline, tmp_path, capsys, case):
    # --data and scores.csv are the scored ones, so flags.npz is meant for
    # them, but it is cut short, not score's, or not one bool per row
    scores = tmp_path / "scores"
    shutil.copytree(pipeline["scores"], scores)
    path = scores / "flags.npz"
    with np.load(path) as npz:
        arrays = dict(npz)
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:300])
    elif case == "foreign":
        np.savez(path, a=np.arange(3))
    elif case == "npy":
        with open(path, "wb") as fh:
            np.save(fh, arrays["e_q95"])
    else:
        if case == "short_e_q95":
            arrays["e_q95"] = arrays["e_q95"][:-1]
        elif case == "int_e_max":
            arrays["e_max"] = arrays["e_max"].astype(int)
        else:
            del arrays["scores_sha256"]
        np.savez(path, **arrays)
    capsys.readouterr()
    assert run("tree", "--scores", scores, "--data", pipeline["sim"] / "dataset.csv",
               "--out", tmp_path / "t") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: "), line
    assert "; re-run score" in line, line
    assert not (tmp_path / "t").exists()


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_tree_refuses_its_scores_directory_as_out(pipeline, tmp_path, capsys):
    scores = tmp_path / "scores"
    shutil.copytree(pipeline["scores"], scores)
    before = _snapshot(scores)
    same = scores / ".." / "scores"
    capsys.readouterr()
    assert run("tree", "--scores", scores, "--data", pipeline["sim"] / "dataset.csv",
               "--out", same) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: --out {same} is the --scores directory {scores}; "
                    "choose another output directory")
    assert _snapshot(scores) == before


def test_score_refuses_its_draws_directory_as_out(pipeline, tmp_path, capsys):
    fit = tmp_path / "fit"
    shutil.copytree(pipeline["fit"], fit)
    before = _snapshot(fit)
    same = fit / ".." / "fit"
    capsys.readouterr()
    assert run("score", "--draws", fit, "--data", pipeline["sim"] / "dataset.csv",
               "--out", same) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: --out {same} is the --draws directory {fit}; "
                    "choose another output directory")
    assert _snapshot(fit) == before


@pytest.mark.parametrize("option", ["--scores", "--tree"])
def test_report_refuses_an_input_directory_as_out(pipeline, tmp_path, capsys, option):
    inputs = {"--scores": tmp_path / "scores", "--tree": tmp_path / "tree"}
    shutil.copytree(pipeline["scores"], inputs["--scores"])
    shutil.copytree(pipeline["tree"], inputs["--tree"])
    before = {o: _snapshot(p) for o, p in inputs.items()}
    same = inputs[option] / ".." / inputs[option].name
    capsys.readouterr()
    assert run("report", "--scores", inputs["--scores"], "--tree", inputs["--tree"],
               "--out", same) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (f"error: --out {same} is the {option} directory {inputs[option]}; "
                    "choose another output directory")
    assert {o: _snapshot(p) for o, p in inputs.items()} == before


@pytest.mark.parametrize("option", [["--min-leaf", 0], ["--max-depth", 0],
                                    ["--min-gain", -1], ["--min-gain", "nan"]],
                         ids=["min_leaf_zero", "max_depth_zero", "min_gain_negative",
                              "min_gain_nan"])
def test_bad_tree_option_is_one_error_line(pipeline, tmp_path, capsys, option):
    # refused before any file is read or made: no empty --out is left behind
    capsys.readouterr()
    assert run("tree", "--scores", pipeline["scores"], "--data", pipeline["sim"] / "dataset.csv",
               *option, "--out", tmp_path / "t") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: "), line
    assert not (tmp_path / "t").exists()


def test_report_counts_match_scores(pipeline):
    # report reads the score manifest's summary; each figure must be the
    # one scores.csv holds
    header, rows = read_csv(pipeline["scores"] / "scores.csv")
    text = (pipeline["rep"] / "report.md").read_text()
    assert f"Locations scored: {len(rows)}" in text.splitlines()
    out_of_sample = [r[header.index("status")] != "full" for r in rows]
    assert 0 < sum(out_of_sample) < len(rows)
    for name in ("max", "lev", "q99", "q95"):
        i = header.index(f"e_{name}")
        line = next(l for l in text.splitlines()
                    if l.startswith(f"| {name} |"))
        _, _, k, total, oos, _ = line.split("|")
        assert k.strip() == rows[0][header.index(f"k_{name}")]
        assert int(total) == sum(int(r[i]) for r in rows)
        assert int(oos) == sum(int(r[i]) for r, o in zip(rows, out_of_sample) if o)
    assert "## Top tree splits" in text


def test_report_without_tree_omits_section(pipeline, tmp_path):
    out = tmp_path / "notree"
    assert run("report", "--scores", pipeline["scores"], "--out", out) == 0
    text = (out / "report.md").read_text()
    assert "Top tree splits" not in text


def test_report_tree_that_names_no_tree_is_an_error(pipeline, tmp_path, capsys):
    capsys.readouterr()
    for absent in (tmp_path / "absent.json", pipeline["scores"]):  # a dir without tree.json
        rc = run("report", "--scores", pipeline["scores"], "--tree", absent,
                 "--out", tmp_path / "out")
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(absent) in line, line
    assert not (tmp_path / "out").exists()


def test_missing_transforms_key_is_error(pipeline, tmp_path):
    cfg = json.loads((pipeline["sim"] / "config.json").read_text())
    del cfg["transforms"]
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps(cfg))
    rc = run("fit", "--data", pipeline["sim"] / "dataset.csv",
             "--config", bad, "--iters", 20, "--burnin", 5,
             "--out", tmp_path / "f")
    assert rc == 1


def _bad_json_input(case, pipeline, tmp_path):
    """argv of a command given one malformed JSON input, the file its
    error must name and the words (keys, hint) it must hold besides."""
    data = pipeline["sim"] / "dataset.csv"
    cfg = json.loads((pipeline["sim"] / "config.json").read_text())
    meta = json.loads((pipeline["fit"] / "meta.json").read_text())
    if case == "synth_spec_misspelled_key":
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"l": 60, "n": 2, "q": 3, "missing_prb": 0.1}))
        return ["simulate", "--spec", path], path, ["missing_prb"]
    if case.startswith("ingest_config_"):
        if case == "ingest_config_without_responses":
            del cfg["responses"]
            words = ["responses"]
        elif case == "ingest_config_covariates_string":  # was read character by character
            cfg["covariates"] = cfg["covariates"][0]
            words = ["covariates", "list of strings"]
        elif case == "ingest_config_missing_token_int":  # was never matched
            cfg["missing_token"] = 5
            words = ["missing_token", "string"]
        elif case == "ingest_config_lon_without_lat":  # fitted with blank coordinates
            cfg["lat_col"] = None
            words = ["lon_col", "lat_col"]
        else:  # ingest_config_repeated_response, which was fitted twice
            cfg["responses"].insert(1, cfg["responses"][0])
            words = ["responses", repr(cfg["responses"][0])]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return ["fit", "--data", data, "--config", path, "--iters", 20, "--burnin", 5], \
            path, words
    if case.startswith("score_manifest_"):  # a score output whose manifest.json is bad
        manifest = json.loads((pipeline["scores"] / "manifest.json").read_text())
        scores = tmp_path / "scores"
        scores.mkdir()
        (scores / "scores.csv").write_bytes((pipeline["scores"] / "scores.csv").read_bytes())
        words = []
        if case == "score_manifest_params_list":
            manifest["params"] = list(manifest["params"])
            words = ["params"]
        elif case.startswith("score_manifest_measures_"):
            manifest["params"]["measures"] = {"string": "trace", "int": [5],
                                              "unknown": ["bogus"]}[case.split("_")[-1]]
            words = ["measures"]
        elif case == "score_manifest_without_cutoffs_report":  # written before the summary
            del manifest["cutoff_summary"]
            words = ["cutoff_summary", "re-run score"]
        elif case == "score_manifest_cutoff_k_string_report":
            manifest["cutoff_summary"]["cutoffs"][0]["k"] = "0.5"
            words = ["cutoff_summary", "re-run score"]
        else:
            manifest = ["ingest_config"]
        if not case.startswith("score_manifest_absent_"):
            (scores / "manifest.json").write_text(json.dumps(manifest))
        argv = ["tree", "--scores", scores, "--data", data] if case.endswith("_tree") \
            else ["report", "--scores", scores]
        return argv, scores / "manifest.json", words
    if case.startswith("tree_json_"):
        doc = json.loads((pipeline["tree"] / "tree.json").read_text())
        words = []
        if case == "tree_json_node_without_n1":
            del doc.get("left", doc)["n1"]
            words = ["n1"]
        else:
            doc = [doc]
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(doc))
        return ["report", "--scores", pipeline["scores"], "--tree", path], path, words
    text = None
    if case == "meta_spec_unknown_key":
        meta["spec"]["bogus"] = 1
        words = ["bogus"]
    elif case == "meta_spec_with_snapshot_keys":  # written before Z was dropped
        meta["spec"].update(store_z=True, z_thin=50)
        words = ["store_z", "z_thin", "re-run fit"]
    elif case == "meta_spec_thin_string":  # a field of the wrong type, not a traceback
        meta["spec"]["thin"] = "2"
        words = ["thin", "re-run fit"]
    elif case == "meta_transform_constants_list":
        meta["transform_constants"] = list(meta["transform_constants"].values())
        words = ["transform_constants", "re-run fit"]
    elif case == "meta_centers_too_short":
        meta["transform_constants"]["centers"].pop()
        words = ["transform_constants centers", "re-run fit"]
    elif case == "meta_dataset_hash_integer":
        meta["dataset_hash"] = 12345
        words = ["dataset_hash", "re-run fit"]
    elif case == "meta_response_names_integer":
        meta["response_names"] = 3
        words = ["response_names", "re-run fit"]
    elif case == "meta_not_json":
        text = json.dumps(meta)[:-1]
        words = ["not valid JSON"]
    elif case == "meta_without_ingest_config":
        del meta["ingest_config"]
        words = ["ingest_config"]
    else:  # meta_without_<key>
        key = case[len("meta_without_"):]
        del meta[key]
        words = [key, "re-run fit"]
    fit = tmp_path / "fit"
    fit.mkdir()
    (fit / "draws.npz").write_bytes((pipeline["fit"] / "draws.npz").read_bytes())
    (fit / "meta.json").write_text(text or json.dumps(meta))
    return ["score", "--draws", fit, "--data", data], fit / "meta.json", words


@pytest.mark.parametrize("case", ["synth_spec_misspelled_key",
                                  "ingest_config_without_responses",
                                  "ingest_config_covariates_string",
                                  "ingest_config_missing_token_int",
                                  "ingest_config_lon_without_lat",
                                  "ingest_config_repeated_response",
                                  "meta_spec_unknown_key", "meta_without_spec",
                                  "meta_spec_with_snapshot_keys", "meta_spec_thin_string",
                                  "meta_without_response_names",
                                  "meta_without_covariate_names",
                                  "meta_without_transform_constants",
                                  "meta_without_dataset_hash",
                                  "meta_without_ingest_config",
                                  "meta_transform_constants_list",
                                  "meta_centers_too_short",
                                  "meta_dataset_hash_integer", "meta_response_names_integer",
                                  "meta_not_json",
                                  "score_manifest_list_tree", "score_manifest_list_report",
                                  "score_manifest_params_list",
                                  "score_manifest_measures_string",
                                  "score_manifest_measures_int",
                                  "score_manifest_measures_unknown",
                                  "score_manifest_absent_tree", "score_manifest_absent_report",
                                  "score_manifest_without_cutoffs_report",
                                  "score_manifest_cutoff_k_string_report",
                                  "tree_json_list", "tree_json_node_without_n1"])
def test_bad_json_input_is_one_error_line(pipeline, tmp_path, capsys, case):
    argv, path, words = _bad_json_input(case, pipeline, tmp_path)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(path) in line, line
    assert all(word in line.replace(str(path), "") for word in words), line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [
    ("l", "40"), ("l", 40.5), ("n", 0), ("leverage_scale", "x"), ("with_coords", "no"),
    ("missing_prob", "x"), ("missing_prob", "0.5"), ("missing_prob", [True, 0.5]),
    ("Sigma", [[1, "x"], ["x", 1]]), ("Sigma", [[1, "0.1"], ["0.1", True]]),
    ("Sigma", [[True, 0], [0, 1]]),
    ("Sigma", [[1, float("nan")], [float("nan"), 1]]), ("Sigma", [[1, 0.5], [0, 1]]),
    ("Sigma", [[1, 2], [2, 1]]), ("B", [[1, 2], [3, 4]]),
], ids=["l_string", "l_fraction", "n_zero", "leverage_scale_string", "with_coords_string",
        "missing_prob_string", "missing_prob_number_string", "missing_prob_bool",
        "sigma_string", "sigma_number_string_and_bool", "sigma_bool", "sigma_nan",
        "sigma_asymmetric", "sigma_indefinite", "b_shape"])
def test_bad_synth_spec_field_is_one_error_line(tmp_path, capsys, field, value):
    # a value of the wrong type or range fails in simulate, naming its
    # field, rather than deep in the generator, silently ("no" is truthy,
    # an asymmetric Sigma was read by one triangle, "0.5" and true were
    # read as numbers) or not at all (n = 0 wrote a dataset without
    # responses, a NaN Sigma failed later as non-finite response cells)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"l": 40, "n": 2, "q": 3, field: value}))
    capsys.readouterr()
    assert run("simulate", "--spec", path, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    [line] = err.splitlines()
    assert line.startswith(f"error: {field} ") and "Traceback" not in err, line
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("transforms, key", [
    ({"responses": "none", "standardise": False}, "standardise"),
    ({"responses": {"y1": "log", "y4": "log"}}, "y4"),
    ({"standardize": {"x1": False, "x9": False}}, "x9"),
    ("log", "transforms"),
    ({"responses": ["log"]}, "responses"),
    ({"standardize": "false"}, "standardize"),
    ({"standardize": {"x1": "no"}}, "standardize"),
], ids=["unknown_key", "unknown_response", "unknown_covariate", "not_an_object",
        "responses_list", "standardize_string", "standardize_map_string"])
def test_unknown_transforms_entry_is_one_error_line(pipeline, tmp_path, capsys,
                                                    transforms, key):
    # a key or name the transforms entry would otherwise drop without a
    # word, or a value of a type it would misread ("false" is truthy)
    cfg = json.loads((pipeline["sim"] / "config.json").read_text())
    cfg["transforms"] = transforms
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv", "--config", path,
               "--iters", 20, "--burnin", 5, "--out", tmp_path / "out") == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: transforms") and key in line, line
    assert not (tmp_path / "out").exists()


def test_fit_npz_written_and_loadable(pipeline, tmp_path):
    out = tmp_path / "short"
    # 40 draws per chain: max split-R-hat may exceed 1.1, which exits 2
    assert run("fit", "--data", pipeline["sim"] / "dataset.csv",
               "--config", pipeline["sim"] / "config.json",
               "--iters", 60, "--burnin", 20, "--seed", 5,
               "--out", out) in (0, 2)
    assert (out / "draws.npz").exists()
    from extrapolmv.sampler import load_fit
    p, _ = load_fit(out)
    assert p.B_draws.shape[0] == 2 * 40


def test_parser_defaults_match_documentation():
    from extrapolmv.cli import build_parser
    parser = build_parser()
    fit = parser.parse_args(["fit", "--data", "d", "--config", "c", "--out", "o"])
    assert fit.iters == 20000 and fit.burnin == 10000
    assert fit.thin == 1 and fit.chains == 2
    score = parser.parse_args(["score", "--draws", "f", "--data", "d",
                               "--out", "o"])
    assert score.cutoffs == "max,lev,q99,q95"
    tree = parser.parse_args(["tree", "--scores", "s", "--data", "d",
                              "--out", "o"])
    assert tree.label == "e_q95"
    assert tree.max_depth == 5 and tree.min_leaf == 20


def test_score_and_tree_take_no_config():
    # the ingestion config enters at fit only; score and tree read the
    # one the upstream output recorded
    from extrapolmv.cli import build_parser
    for command in (["score", "--draws", "f"], ["tree", "--scores", "s"]):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--data", "d", "--config", "c", "--out", "o"])
        assert exc.value.code == 1


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # simulate -> fit -> score in fresh interpreters with one and with two
    # BLAS threads; the batched LAPACK calls of the sweep must not change
    # a byte
    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps({"l": 3000, "n": 4, "q": 8,
                                "missing_prob": [0.6, 0.4, 0.2, 0.1]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import json, sys\n"
              "from extrapolmv.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        commands = [
            ["simulate", "--spec", str(spec), "--seed", "4", "--out", str(out / "sim")],
            ["fit", "--data", str(out / "sim" / "dataset.csv"),
             "--config", str(out / "sim" / "config.json"), "--iters", "150",
             "--burnin", "50", "--seed", "6", "--out", str(out / "fit")],
            ["score", "--draws", str(out / "fit"), "--data", str(out / "sim" / "dataset.csv"),
             "--out", str(out / "scores")],
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 2), proc.stderr
        outputs.append([(out / name).read_bytes() for name in
                        ("fit/draws.npz", "fit/draws.csv", "scores/scores.csv")])
    assert outputs[0] == outputs[1]


def quick_start_commands() -> list[list[str]]:
    """The arguments of each extrapolmv command in the sh block of the
    README's "## Quick start", with the fit shortened to QUICK_FIT[1],
    after writing the block's heredoc files into the working directory.
    A line that is not a comment, a heredoc or an extrapolmv command
    fails."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    assert QUICK_FIT[0] in block, f"the quick start no longer runs fit {QUICK_FIT[0]}"
    lines = iter(block.replace(*QUICK_FIT).replace("\\\n", " ").splitlines())
    commands = []
    for line in lines:
        words = shlex.split(line, comments=True)
        if len(words) == 4 and words[:2] == ["cat", ">"] and words[3] == "<<EOF":
            body = itertools.takewhile(lambda text: text != "EOF", lines)
            Path(words[2]).write_text("".join(f"{text}\n" for text in body))
        elif words:
            assert words[0] == "extrapolmv", f"not an extrapolmv command: {line}"
            commands.append(words[1:])
    return commands


def run_quick_start(run_command) -> None:
    """Run the README's quick start through ``run_command(argv) -> exit
    code`` in the working directory: fit exits 0 or 2 (a split-R-hat
    above 1.1 is likely in a short run), every other command 0."""
    for argv in quick_start_commands():
        code = run_command(argv)
        assert code in ((0, 2) if argv[0] == "fit" else (0,)), (argv, code)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    def run_main(argv):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            return exc.code
    monkeypatch.chdir(tmp_path)
    run_quick_start(run_main)
    assert (tmp_path / "report" / "report.md").stat().st_size > 0
    manifest = json.loads((tmp_path / "tree" / "manifest.json").read_text())
    assert manifest["label_source"] == "flags record"
