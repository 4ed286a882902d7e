"""Command-line pipeline: simulate, fit, score, tree, report.

The pipeline is file-mediated so one expensive fit can back many
measure/cutoff experiments. Every command writes a manifest.json
(resolved parameters, input hashes, library versions, cores and BLAS
thread variables, and the seconds each stage took)
alongside its outputs, and all file writes go through a temp-file rename
so partial outputs never appear. ``score`` writes one table,
scores.csv, which holds every per-location figure, map columns included.
Exit codes: 0 success, 1 error, 2 success with warnings.

Only ``fit`` takes an ingestion config. ``score`` reads the config the
fit recorded in meta.json; ``tree`` and ``report`` read the config and
measures the score recorded in its manifest.json. ``report`` reads
nothing else of a score: the manifest's cutoff_summary holds the
location count and each primary cutoff's value and flag counts, so
scores.csv is not parsed again. Neither writes into the score
directory it reads, nor ``report`` into the tree directory it reads.

``tree`` has two sources for its labels. ``score`` writes each primary
cutoff's flags, in dataset row order, to flags.npz beside scores.csv,
with the hash of the scores.csv it wrote. ``tree`` reads the flags from
there when ``--data`` is the file the score manifest names by its hash,
the record holds ``--label`` and scores.csv still has the recorded
hash: both commands read the same table, so no id join is needed. Else
(an edited scores.csv, another ``--data``, a label that is not a flag
column, a score directory without flags.npz) it parses ``id`` and the
label column of scores.csv and joins the labels by id. A flags.npz that
cannot be read, or whose arrays are not one bool per row, is an error.
The tree manifest's label_source says which source ran.

A dataset CSV is parsed at most once. ``simulate`` records the table it
writes to dataset.csv in dataset.npz beside it, and ``fit`` reads that
record instead of parsing ``--data`` when both its hashes are those of
``--data`` and the config; any other file of that name is a miss, and
``fit`` parses the CSV. ``fit`` writes the table to dataset.npz in its
output directory, and ``score`` (from ``--draws``) and ``tree`` (from the
fit directory the score manifest names by its absolute path) read that
record instead whenever ``--data`` has the hash it was written for; a
fit record that cannot be read is an error. Any other ``--data`` is
parsed from CSV. The fit, score and tree manifests say which source ran.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import sys
import time

import numpy as np
import scipy

import extrapolmv
from extrapolmv.cart import TreeParams, export_tree, grow_tree, import_tree, tree_splits
from extrapolmv.dataset import (
    IngestConfig,
    SynthSpec,
    TransformSpec,
    _atomic_open,
    _check_arrays,
    _cores,
    _from_json,
    _load_json,
    _open_table,
    _parse_rows,
    _read_archive,
    _to_json,
    _write_json,
    apply_transforms,
    load_csv,
    load_record,
    synthesize,
    write_csv,
    write_record,
)
from extrapolmv.extrapolation import (
    DEFAULT_CUTOFFS,
    DEFAULT_MEASURES,
    cutoff_summary,
    k_text,
    measure_column,
    score_locations,
    value_order,
    write_scores_csv,
)
from extrapolmv.sampler import (
    META_FILE,
    ModelSpec,
    check_draw_counts,
    convergence_summary,
    gibbs_fit,
    load_fit,
    save_fit,
)

RECORD_FILE = "dataset.npz"  # a parsed table: beside simulate's CSV, in a fit directory
FLAGS_FILE = "flags.npz"  # a score's flags, which tree reads in place of scores.csv
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RHAT_WARN = 1.1


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; 2 means
    # success-with-warnings here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sha256_json(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _write_manifest(outdir, command: str, params: dict, timings: dict, **hashes) -> None:
    """Write manifest.json: parameters, versions, environment and hashes.

    The manifest is the one output that is not byte-deterministic: it
    records the machine (cores, BLAS thread variables) and the seconds
    each stage of the command took."""
    manifest = {
        "command": command,
        "params": params,
        "seed": params.get("seed"),
        "versions": {
            "extrapolmv": extrapolmv.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "environment": {
            "cores": _cores(),
            "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        },
        "timings": {stage: round(float(s), 6) for stage, s in timings.items()},
    }
    manifest.update(hashes)
    _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _load_raw(data_path, config: IngestConfig, record=None, data_hash=None):
    """The untransformed table of ``data_path`` and where it came from:
    the fit record ``record`` when it was written for a file with hash
    ``data_hash`` and for this config ("fit record"), else the parsed
    CSV ("csv")."""
    if record is not None:
        d = load_record(record, config, data_hash, _sha256_json(_to_json(config)))
        if d is not None:
            return d, "fit record"
    return load_csv(data_path, config), "csv"


def _refuse_input_dir(out, inputs: dict) -> None:
    """CliError when the output directory ``out`` exists and is one of the
    input directories ``inputs`` (option -> path or None): writing there
    would overwrite that input's manifest.json."""
    for option, path in inputs.items():
        if path is not None and os.path.isdir(out) and os.path.isdir(path) \
                and os.path.samefile(out, path):
            raise CliError(f"--out {out} is the {option} directory {path}; "
                           "choose another output directory")


def _check_transforms(config: IngestConfig) -> None:
    if config.transforms is None:
        raise CliError(
            "ingestion config must set 'transforms' explicitly (for example "
            '{"responses": "none", "standardize": true}); silent defaults are '
            "not applied")


def _transformed(raw, config: IngestConfig, constants: dict | None = None):
    """``raw`` with the transforms the config names applied, standardizing
    with a fit's checked ``transform_constants`` if given, and the
    transform spec."""
    t = TransformSpec.from_config(config.transforms, raw.response_names,
                                  raw.covariate_names)
    if constants is not None:
        t.centers = np.asarray(constants["centers"], dtype=float)
        t.scales = np.asarray(constants["scales"], dtype=float)
    return apply_transforms(raw, t), t


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _simulated_record(data_path, config: IngestConfig, data_hash, config_hash):
    """The table simulate recorded beside ``data_path``, when it is the
    one load_csv would parse from it with this config; else None. A file
    of that name that cannot be read as such a record is no error: the
    directory of a user's CSV may hold a dataset.npz of its own."""
    try:
        return load_record(os.path.join(os.path.dirname(data_path), RECORD_FILE),
                           config, data_hash, config_hash)
    except ValueError:
        return None


def _cmd_fit(args) -> int:
    marks = [time.perf_counter()]
    spec = ModelSpec(iterations=args.iters, burn_in=args.burnin, thin=args.thin,
                     chains=args.chains, seed=args.seed,
                     coef_prior_var=args.prior_var)
    check_draw_counts(spec.chains, spec.kept_per_chain)  # refuse before sweeping, not after
    config = IngestConfig.from_json(args.config)
    _check_transforms(config)
    dataset_hash = _sha256_file(args.data)
    config_hash = _sha256_json(_to_json(config))
    raw, source = _simulated_record(args.data, config, dataset_hash, config_hash), "record"
    if raw is None:
        raw, source = load_csv(args.data, config), "csv"
    d, t = _transformed(raw, config)
    marks.append(time.perf_counter())
    draws = gibbs_fit(d, spec)
    marks.append(time.perf_counter())
    conv = convergence_summary(draws)
    marks.append(time.perf_counter())

    save_fit(draws, args.out, extra_meta={
        "dataset_hash": dataset_hash,
        "ingest_config": _to_json(config),
        "transform_constants": {"centers": t.centers.tolist(), "scales": t.scales.tolist()},
        "convergence": conv.to_jsonable(),
    })
    write_record(raw, os.path.join(args.out, RECORD_FILE), dataset_hash, config_hash)
    marks.append(time.perf_counter())
    timings = dict(zip(("ingest", "sweep", "diagnostics", "write"), np.diff(marks)))
    params = {"data": str(args.data), "config": str(args.config),
              "iters": args.iters, "burnin": args.burnin, "thin": args.thin,
              "chains": args.chains, "seed": args.seed,
              "prior_var": args.prior_var, "threads": 1}
    _write_manifest(args.out, "fit", params, timings=timings,
                    dataset_hash=dataset_hash, config_hash=config_hash, data_source=source)
    if conv.max_rhat > RHAT_WARN:
        print(f"warning: max split-R-hat {conv.max_rhat:.3f} exceeds "
              f"{RHAT_WARN}; chains may not have converged", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def _fit_record(fitdir):
    """The draws in a fit directory and the dataset hash, ingestion config
    and transform constants its meta.json records: a string, a config, and
    centers and scales of one number per non-intercept covariate."""
    draws, meta = load_fit(fitdir)
    path = os.path.join(fitdir, META_FILE)
    n_scaled = draws.B_draws.shape[2] - 1
    def bad(key, want):
        return CliError(f"{path}: {key} must be {want}; re-run fit to rewrite it")
    if not isinstance(meta.get("dataset_hash"), str):
        raise bad("dataset_hash", "a string")
    constants = meta.get("transform_constants")
    if not isinstance(constants, dict):
        raise bad("transform_constants", "an object")
    for key in ("centers", "scales"):
        values = constants.get(key)
        if not (isinstance(values, list) and len(values) == n_scaled
                and all(type(v) in (int, float) for v in values)):
            raise bad(f"transform_constants {key}", f"a list of {n_scaled} numbers")
    config = _from_json(IngestConfig, meta.get("ingest_config"), f"{path} ingest_config")
    return draws, meta["dataset_hash"], config, constants


def _write_flags(report, outdir, scores_sha256: str) -> None:
    """Write flags.npz: each primary cutoff's flags as a bool array named by
    its scores.csv column, in dataset row order, and ``scores_sha256``, the
    hash of the scores.csv they were written with."""
    flags = {f"e_{c.name}": c.e.astype(bool) for c in report.primary.cutoffs}
    with _atomic_open(os.path.join(outdir, FLAGS_FILE), binary=True) as fh:
        np.savez(fh, **flags, scores_sha256=np.array(scores_sha256))


def _cmd_score(args) -> int:
    start = time.perf_counter()
    draws, recorded, config, constants = _fit_record(args.draws)
    dataset_hash = _sha256_file(args.data)
    if recorded != dataset_hash and not args.force:
        raise CliError(
            f"dataset hash {dataset_hash[:12]} does not match the hash the "
            f"draws were fitted on ({recorded[:12]}); pass --force to override")
    _check_transforms(config)
    raw, source = _load_raw(args.data, config, os.path.join(args.draws, RECORD_FILE),
                            dataset_hash)
    d, _ = _transformed(raw, config, constants)

    measures = args.measure or DEFAULT_MEASURES
    cutoffs = [tok.strip() for tok in args.cutoffs.split(",") if tok.strip()]
    timings = {"load": time.perf_counter() - start}
    report = score_locations(draws, d, measures=measures, cutoffs=cutoffs, timings=timings)

    start = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    scores_path = os.path.join(args.out, "scores.csv")
    write_scores_csv(report, scores_path)
    _write_flags(report, args.out, _sha256_file(scores_path))
    timings["write"] = time.perf_counter() - start

    params = {"draws": os.path.abspath(args.draws), "data": str(args.data),
              "measures": list(measures), "cutoffs": cutoffs,
              "force": bool(args.force)}
    _write_manifest(args.out, "score", params, timings=timings,
                    dataset_hash=dataset_hash,
                    config_hash=_sha256_json(_to_json(config)),
                    ingest_config=_to_json(config), data_source=source,
                    cutoff_summary=cutoff_summary(report))
    return 0


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


def _read_score_manifest(scores) -> tuple[dict, IngestConfig, str]:
    """The manifest.json of a score output directory, whose params and
    params.measures are checked, the ingestion config it records and its
    path."""
    manifest_path = os.path.join(scores, "manifest.json")
    manifest = _load_json(manifest_path)
    params = manifest.get("params") if isinstance(manifest, dict) else None
    if not isinstance(params, dict):
        raise CliError(f"{manifest_path}: expected a JSON object whose params is an "
                       f"object, got {json.dumps(manifest)[:40]}")
    measures = params.get("measures")
    try:
        known = isinstance(measures, list) and all(map(measure_column, measures))
    except ValueError:
        known = False
    if not (known and measures):
        raise CliError(f"{manifest_path}: params measures must be a non-empty list of "
                       f"measure keys, got {json.dumps(measures)[:40]}; re-run score")
    config = _from_json(IngestConfig, manifest.get("ingest_config"),
                        f"{manifest_path} ingest_config")
    return manifest, config, manifest_path


def _read_flags(scores, label: str, rows: int) -> np.ndarray | None:
    """The flags in column ``label`` of a score output directory's
    scores.csv, from the flags.npz beside it: None when there is none, it
    holds no ``label`` or scores.csv is not the file it was written with.
    A flags.npz that cannot be read, or that holds anything but the hash
    and arrays of ``rows`` bools, raises ValueError naming it."""
    path = os.path.join(scores, FLAGS_FILE)
    if not os.path.exists(path):
        return None
    a = _read_archive(path, writer="score")
    try:
        _check_arrays(a, {"scores_sha256": (np.str_, ()),
                          **{key: (np.bool_, (rows,)) for key in a if key != "scores_sha256"}})
    except ValueError as exc:
        raise ValueError(f"{path}: malformed flags record ({exc}); "
                         "re-run score to rewrite it") from None
    recorded = str(a.pop("scores_sha256"))
    if label not in a or recorded != _sha256_file(os.path.join(scores, "scores.csv")):
        return None
    return a[label]


def _read_scores(scores, label: str, ids: list[str]) -> np.ndarray:
    """The 0/1 labels in column ``label`` of a score output directory's
    scores.csv, read by the table parser (a blank label is a missing one),
    joined by id onto ``ids``."""
    path = os.path.join(scores, "scores.csv")
    with _open_table(path, ["id", label]) as (fh, header):
        keys, values, _ = _parse_rows(fh, 2, path, len(header), header.index("id"),
                                      [header.index(label)], [f"label {label!r}"], "",
                                      required=1, numeric=0)
    bad = np.flatnonzero((values != 0) & (values != 1))
    if bad.size:  # the first such row, named by its line as the parser names one
        i = int(bad[0])
        raise CliError(f"{path}:{i + 2}: label column {label!r} holds {float(values[i, 0])!r}; "
                       "a tree label must be 0 or 1")
    labels_by_id = dict(zip(keys, values[:, 0].astype(int).tolist()))
    if len(labels_by_id) < len(keys):
        repeated = next(i for i, k in collections.Counter(keys).items() if k > 1)
        raise CliError(f"id {repeated!r} appears more than once in {path}")
    try:
        return np.array([labels_by_id[i] for i in ids], dtype=int)
    except KeyError as exc:
        raise CliError(f"scores file has no row for id {exc.args[0]!r}") from None


def _cmd_tree(args) -> int:
    marks = [time.perf_counter()]
    params = TreeParams(max_depth=args.max_depth, min_leaf=args.min_leaf,
                        min_split_gain=args.min_gain)
    _refuse_input_dir(args.out, {"--scores": args.scores})
    manifest, config, _ = _read_score_manifest(args.scores)

    # raw covariates: thresholds stay in original units
    dataset_hash = _sha256_file(args.data)
    fitdir = manifest["params"].get("draws")
    record = os.path.join(fitdir, RECORD_FILE) if isinstance(fitdir, str) else None
    d, source = _load_raw(args.data, config, record, dataset_hash)
    flags = None
    if dataset_hash == manifest.get("dataset_hash"):  # score's rows are d's rows
        flags = _read_flags(args.scores, args.label, d.n_rows)
    if flags is not None:
        labels, label_source = flags.astype(int), "flags record"
    else:
        labels, label_source = _read_scores(args.scores, args.label, d.ids), "scores.csv"

    os.makedirs(args.out, exist_ok=True)
    constant = labels.min() == labels.max()
    if constant:
        print(f"warning: label column {args.label!r} is constant; "
              "emitting a single-leaf tree", file=sys.stderr)
    marks.append(time.perf_counter())
    tree = grow_tree(d.X[:, 1:], labels, params,
                     feature_names=d.covariate_names[1:])
    marks.append(time.perf_counter())
    for name, fmt in (("tree.json", "json"), ("tree.txt", "text")):
        with _atomic_open(os.path.join(args.out, name)) as fh:
            fh.write(export_tree(tree, fmt))
    marks.append(time.perf_counter())
    _write_manifest(args.out, "tree",
                    {"scores": str(args.scores), "data": str(args.data),
                     "label": args.label, "max_depth": args.max_depth,
                     "min_leaf": args.min_leaf, "min_gain": args.min_gain},
                    timings=dict(zip(("load", "grow", "write"), np.diff(marks))),
                    dataset_hash=dataset_hash,
                    config_hash=_sha256_json(_to_json(config)), data_source=source,
                    label_source=label_source)
    if dataset_hash != manifest.get("dataset_hash"):
        print(f"warning: --data {args.data} is not the file the scores in {args.scores} "
              f"were computed from ({manifest['params'].get('data')}); labels were "
              "joined by id onto its covariates", file=sys.stderr)
        return 2
    return 2 if constant else 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    marks = [time.perf_counter()]
    gen = SynthSpec.from_json(args.spec)
    d, truth = synthesize(gen, args.seed)
    marks.append(time.perf_counter())
    os.makedirs(args.out, exist_ok=True)

    config = IngestConfig(
        id_col="id",
        covariates=d.covariate_names[1:],
        responses=d.response_names,
        lon_col="lon" if d.coords is not None else None,
        lat_col="lat" if d.coords is not None else None,
        transforms={"responses": "none", "standardize": True},
    )
    data_path = os.path.join(args.out, "dataset.csv")
    write_csv(d, data_path, config)
    _write_json(os.path.join(args.out, "truth.json"), truth)
    config_json = _to_json(config)
    _write_json(os.path.join(args.out, "config.json"), config_json)
    # the table fit would parse from dataset.csv, so that fit reads it instead
    dataset_hash = _sha256_file(data_path)
    write_record(d, os.path.join(args.out, RECORD_FILE), dataset_hash,
                 _sha256_json(config_json))
    marks.append(time.perf_counter())
    _write_manifest(args.out, "simulate",
                    {"spec": str(args.spec), "seed": args.seed},
                    timings=dict(zip(("synthesize", "write"), np.diff(marks))),
                    dataset_hash=dataset_hash)
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _read_cutoff_summary(manifest: dict, path) -> tuple[int, list[dict]]:
    """The location count and per-cutoff entries of a score manifest's
    cutoff_summary, checked."""
    summary = manifest.get("cutoff_summary")
    def count(value):
        return type(value) is int and value >= 0
    def entry(c):
        return (isinstance(c, dict) and isinstance(c.get("name"), str)
                and type(c.get("k")) in (int, float)
                and count(c.get("flagged")) and count(c.get("flagged_out_of_sample")))
    if not (isinstance(summary, dict) and count(summary.get("locations"))
            and isinstance(summary.get("cutoffs"), list) and summary["cutoffs"]
            and all(map(entry, summary["cutoffs"]))):
        raise CliError(f"{path}: cutoff_summary must hold a location count and a list of "
                       "cutoffs with name, k, flagged and flagged_out_of_sample, got "
                       f"{json.dumps(summary)[:40]}; re-run score")
    return summary["locations"], summary["cutoffs"]


def _cmd_report(args) -> int:
    marks = [time.perf_counter()]
    tree_dir = args.tree if args.tree and os.path.isdir(args.tree) else None
    _refuse_input_dir(args.out, {"--scores": args.scores, "--tree": tree_dir})
    manifest, _config, path = _read_score_manifest(args.scores)
    measures = manifest["params"]["measures"]
    locations, cutoffs = _read_cutoff_summary(manifest, path)

    lines = ["# Extrapolation report", ""]
    lines.append(f"Locations scored: {locations}")
    lines.append(f"Measures: {', '.join(map(measure_column, value_order(measures)))}")
    lines.append(f"Cutoff columns follow the primary measure: {measure_column(measures[0])}")
    lines += ["", "## Flag counts per cutoff", "",
              "| cutoff | cutoff value | flagged | flagged out-of-sample |",
              "|---|---|---|---|"]
    for c in cutoffs:
        lines.append(f"| {c['name']} | {k_text(c['k'])} | {c['flagged']} "
                     f"| {c['flagged_out_of_sample']} |")

    if args.tree:
        tree_path = args.tree
        if os.path.isdir(tree_path):
            tree_path = os.path.join(tree_path, "tree.json")
        with open(tree_path, encoding="utf-8") as fh:
            try:
                tree = import_tree(fh.read())
            except (ValueError, TypeError) as exc:
                raise CliError(f"{tree_path}: {exc}") from None
        lines += ["", "## Top tree splits", ""]
        splits = tree_splits(tree, max_depth=2)
        if splits:
            for feature, threshold, depth in splits:
                lines.append(f"- level {depth}: `{feature}` at threshold {threshold!r}")
        else:
            lines.append("- single leaf (no splits)")

    marks.append(time.perf_counter())
    os.makedirs(args.out, exist_ok=True)
    with _atomic_open(os.path.join(args.out, "report.md")) as fh:
        fh.write("\n".join(lines) + "\n")
    marks.append(time.perf_counter())
    _write_manifest(args.out, "report",
                    {"scores": str(args.scores), "tree": args.tree and str(args.tree)},
                    timings=dict(zip(("read", "write"), np.diff(marks))))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="extrapolmv",
                     description="Predictive-variance extrapolation detection "
                                 "for multivariate-response regression")
    sub = parser.add_subparsers(dest="command", required=True)
    model, tree = ModelSpec(), TreeParams()

    p = sub.add_parser("fit", parents=[], help="fit the joint model by Gibbs sampling")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True, help="ingestion config JSON")
    p.add_argument("--iters", type=int, default=model.iterations)
    p.add_argument("--burnin", type=int, default=model.burn_in)
    p.add_argument("--thin", type=int, default=model.thin)
    p.add_argument("--chains", type=int, default=model.chains)
    p.add_argument("--seed", type=int, default=model.seed)
    p.add_argument("--prior-var", type=float, default=model.coef_prior_var)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="compute measures, cutoffs and flags")
    p.add_argument("--draws", required=True, help="fit output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--measure", action="append",
                   help="trace, det or cmvpv:<response>; repeatable "
                        f"(default: {' '.join(DEFAULT_MEASURES)}; the first is primary)")
    p.add_argument("--cutoffs", default=",".join(DEFAULT_CUTOFFS),
                   help="comma list of max, lev, q99, q95 or q:<r>")
    p.add_argument("--force", action="store_true",
                   help="score even if the dataset hash does not match the fit")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("tree", help="characterize flags with a classification tree")
    p.add_argument("--scores", required=True, help="score output directory")
    p.add_argument("--data", required=True)
    p.add_argument("--label", default="e_q95")
    p.add_argument("--max-depth", type=int, default=tree.max_depth)
    p.add_argument("--min-leaf", type=int, default=tree.min_leaf)
    p.add_argument("--min-gain", type=float, default=tree.min_split_gain)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="summarize scores (and tree) as markdown")
    p.add_argument("--scores", required=True, help="score output directory")
    p.add_argument("--tree", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, np.linalg.LinAlgError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
