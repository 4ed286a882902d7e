"""Command-line pipeline: simulate, fit, score, tree, report.

The pipeline is file-mediated so one expensive fit can back many
measure/cutoff experiments. Every command writes a manifest.json
(resolved parameters, input hashes, library versions, cores and BLAS
thread variables; for ``fit`` and ``score`` also per-stage seconds)
alongside its outputs, and all file writes go through a temp-file rename
so partial outputs never appear. ``score`` writes one table,
scores.csv, which holds every per-location figure, map columns included.
Exit codes: 0 success, 1 error, 2 success with warnings.

Only ``fit`` takes an ingestion config. ``score`` reads the config the
fit recorded in meta.json; ``tree`` and ``report`` read the config and
measures the score recorded in its manifest.json. ``report`` reads
nothing else of a score: the manifest's cutoff_summary holds the
location count and each primary cutoff's value and flag counts, so
scores.csv is not parsed again.

Only ``fit`` needs to parse the dataset CSV. It writes the parsed table
to dataset.npz in its output directory, and ``score`` (from ``--draws``)
and ``tree`` (from the fit directory the score manifest names by its
absolute path) read that record instead whenever ``--data`` has the hash
it was written for. Any other ``--data`` is parsed from CSV. Their
manifests say which source ran.
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
    _cores,
    _from_json,
    _load_json,
    _read_table,
    _text_columns,
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

RECORD_FILE = "dataset.npz"  # the parsed --data table, written by fit
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


def _write_manifest(outdir, command: str, params: dict,
                    timings: dict | None = None, **hashes) -> None:
    """Write manifest.json: parameters, versions, environment and hashes.

    The manifest is the one output that is not byte-deterministic: it
    records the machine (cores, BLAS thread variables) and, for ``fit``
    and ``score``, the seconds each stage took.
    """
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
    }
    if timings is not None:
        manifest["timings"] = {stage: round(float(s), 6) for stage, s in timings.items()}
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


def _load_transformed(data_path, config: IngestConfig, constants: dict | None = None,
                      record=None, data_hash=None):
    """Load a table as _load_raw does and apply the transforms the config
    explicitly names, standardizing with a fit's checked
    ``transform_constants`` if given. Returns the raw and transformed
    tables, the transform spec and the table's source."""
    if config.transforms is None:
        raise CliError(
            "ingestion config must set 'transforms' explicitly (for example "
            '{"responses": "none", "standardize": true}); silent defaults are '
            "not applied")
    raw, source = _load_raw(data_path, config, record, data_hash)
    t = TransformSpec.from_config(config.transforms, raw.response_names,
                                  raw.covariate_names)
    if constants is not None:
        t.centers = np.asarray(constants["centers"], dtype=float)
        t.scales = np.asarray(constants["scales"], dtype=float)
    return raw, apply_transforms(raw, t), t, source


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    marks = [time.perf_counter()]
    spec = ModelSpec(iterations=args.iters, burn_in=args.burnin, thin=args.thin,
                     chains=args.chains, seed=args.seed,
                     coef_prior_var=args.prior_var)
    check_draw_counts(spec.chains, spec.kept_per_chain)  # refuse before sweeping, not after
    config = IngestConfig.from_json(args.config)
    raw, d, t, _ = _load_transformed(args.data, config)
    dataset_hash = _sha256_file(args.data)
    config_hash = _sha256_json(_to_json(config))
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
                    dataset_hash=dataset_hash, config_hash=config_hash)
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


def _cmd_score(args) -> int:
    start = time.perf_counter()
    draws, recorded, config, constants = _fit_record(args.draws)
    dataset_hash = _sha256_file(args.data)
    if recorded != dataset_hash and not args.force:
        raise CliError(
            f"dataset hash {dataset_hash[:12]} does not match the hash the "
            f"draws were fitted on ({recorded[:12]}); pass --force to override")
    _, d, _, source = _load_transformed(args.data, config, constants,
                                        os.path.join(args.draws, RECORD_FILE), dataset_hash)

    measures = args.measure or DEFAULT_MEASURES
    cutoffs = [tok.strip() for tok in args.cutoffs.split(",") if tok.strip()]
    timings = {"load": time.perf_counter() - start}
    report = score_locations(draws, d, measures=measures, cutoffs=cutoffs, timings=timings)

    start = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    write_scores_csv(report, os.path.join(args.out, "scores.csv"))
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


def _read_scores(scores, names: list[str]) -> tuple[dict, IngestConfig, dict]:
    """The columns ``names`` of a score output directory's scores.csv, each
    a list of cells, and its checked manifest and ingestion config."""
    manifest, config, _ = _read_score_manifest(scores)
    path = os.path.join(scores, "scores.csv")
    table = _read_table(path)
    header = next(table)
    absent = [name for name in names if name not in header]
    if absent:
        raise CliError(f"column {absent[0]!r} not present in {path}")
    cols = [header.index(name) for name in names]
    kept = {name: [] for name in names}
    for _line, lines in table:
        for name, cells in zip(names, _text_columns(lines, cols)):
            kept[name] += cells.tolist()
    return kept, config, manifest


def _cmd_tree(args) -> int:
    params = TreeParams(max_depth=args.max_depth, min_leaf=args.min_leaf,
                        min_split_gain=args.min_gain)
    cols, config, manifest = _read_scores(args.scores, ["id", args.label])
    bad = set(cols[args.label]) - {"0", "1"}
    if bad:
        raise CliError(f"label column {args.label!r} holds {min(bad)!r}; "
                       "a tree label must be 0 or 1")
    labels_by_id = dict(zip(cols["id"], map(int, cols[args.label])))
    if len(labels_by_id) < len(cols["id"]):
        repeated = next(i for i, k in collections.Counter(cols["id"]).items() if k > 1)
        raise CliError(f"id {repeated!r} appears more than once in "
                       f"{os.path.join(args.scores, 'scores.csv')}")

    # raw covariates: thresholds stay in original units
    dataset_hash = _sha256_file(args.data)
    fitdir = manifest["params"].get("draws")
    record = os.path.join(fitdir, RECORD_FILE) if isinstance(fitdir, str) else None
    d, source = _load_raw(args.data, config, record, dataset_hash)
    try:
        labels = np.array([labels_by_id[i] for i in d.ids], dtype=int)
    except KeyError as exc:
        raise CliError(f"scores file has no row for id {exc.args[0]!r}") from None

    os.makedirs(args.out, exist_ok=True)
    constant = labels.min() == labels.max()
    if constant:
        print(f"warning: label column {args.label!r} is constant; "
              "emitting a single-leaf tree", file=sys.stderr)
    tree = grow_tree(d.X[:, 1:], labels, params,
                     feature_names=d.covariate_names[1:])
    for name, fmt in (("tree.json", "json"), ("tree.txt", "text")):
        with _atomic_open(os.path.join(args.out, name)) as fh:
            fh.write(export_tree(tree, fmt))
    _write_manifest(args.out, "tree",
                    {"scores": str(args.scores), "data": str(args.data),
                     "label": args.label, "max_depth": args.max_depth,
                     "min_leaf": args.min_leaf, "min_gain": args.min_gain},
                    dataset_hash=dataset_hash,
                    config_hash=_sha256_json(_to_json(config)), data_source=source)
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
    gen = SynthSpec.from_json(args.spec)
    d, truth = synthesize(gen, args.seed)
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
    _write_json(os.path.join(args.out, "config.json"), _to_json(config))
    _write_manifest(args.out, "simulate",
                    {"spec": str(args.spec), "seed": args.seed},
                    dataset_hash=_sha256_file(data_path))
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

    os.makedirs(args.out, exist_ok=True)
    with _atomic_open(os.path.join(args.out, "report.md")) as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(args.out, "report",
                    {"scores": str(args.scores), "tree": args.tree and str(args.tree)})
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
