"""Tabular multivariate-response data: ingestion, transforms, synthesis.

A Dataset couples a full-rank design matrix (intercept first) with a
response matrix that may be only partially observed. Covariates are never
missing; responses carry an observation mask. All structures are plain
numpy arrays and are treated as immutable after construction.

Every pipeline table goes through one reader and one writer. The reader,
_parse_rows, reads dataset CSVs for load_csv and scores.csv for tree,
block by block, by one fast path (numpy's C tokenizer: covariates and
coordinates straight to floats, the id and the responses as text, so
that the missing-token test sees each response cell before float() does)
or, for a block the fast path rejects, one exact path (_parse_exact:
csv.reader and float(), line by line). A faulty line raises ValueError
naming path:line, the file's first faulty one whatever the fault: a byte
that is not UTF-8 (read by surrogateescape), the wrong field count, a
missing covariate or coordinate, a cell that is not a number, a literal
nan or inf. Duplicate ids are found after the parse. _write_table
formats a block with one %-format row string (_format_rows) and quotes
text as csv.writer does, so the bytes are csv.writer's. It knows no missing token: it writes an
object array's cells as they are, and write_csv passes each response
column as its floats and the quoted token. Neither holds a whole file as
strings.
Every file the pipeline writes goes through _atomic_open, a temp file
renamed over its final name.

Formatting floats with repr is most of a large write, so _write_table
runs on two cores where _may_fork: os.fork exists, and the process runs
one thread and may run on two cores or more. From _SPLIT_CELLS cells
(rows x columns) it forks a worker, before it opens the temp file, that
formats rows n//2..n and sends their bytes back through a pipe, while
it formats and writes rows 0..n//2 itself, then copies the worker's
bytes. Rows are formatted independently, so the file is the same bytes
either way. The worker holds its half as encoded text (about half the
file) until it is all formatted. Below _SPLIT_CELLS the fork and the
pages both processes then copy on write cost more than the second core
saves: inside score (20 columns) on a shared 2-core machine the split
lost at 10k rows and won from 25k. _write_table hashes each block as it
writes it, its own as it formats them and the worker's as it copies
them, and returns the file's sha256, which write_csv and
write_scores_csv return: simulate records it as the CSV's hash in
dataset.npz, and score as scores.csv's in flags.npz, so neither reads
back a file it has just written. Every table is read on one core.

write_record stores a table as an uncompressed .npz beside the CSV's
and the config's hashes: the table write_csv wrote (simulate's record)
or the one load_csv parsed (a fit's), which are the same bytes.
load_record gives the same Dataset back when both hashes match, so a
CSV the package wrote is never parsed, and any other is parsed once and
read from its record after that. _read_archive reads every .npz (a record, a
fit's draws.npz, a score's flags.npz) and opens the file itself: np.load leaves the file it
opens open when the archive is cut short. _check_arrays checks the arrays
against the dtypes and shapes they were written with.

The JSON records (ingestion config, synthesis spec, a fit's model spec)
go through one codec, _to_json and _from_json: a record must have every
required field and no other key, or ValueError names the source and keys;
a field value its dataclass refuses names the field, then the source. A
numeric field takes real numbers only, never a string or a bool
(_check_types for scalars, _real_array for arrays). _load_json reads a
JSON file, byte-order mark or not, and names it when the text is not
JSON; _write_json writes every JSON file the pipeline makes but tree.json.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import numbers
import os
import signal
import threading
import zipfile
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

MISSING_TOKEN = "NA"
INTERCEPT_NAME = "intercept"
# Rows per block read or written by _parse_rows and _write_table. Each
# np.loadtxt call has a fixed cost, and 512-row blocks made the survey
# benchmark 0.1 s slower without lowering its peak RSS.
_BLOCK_ROWS = 2048
# Cells (rows x columns) from which _write_table formats the second half of
# a table's rows in a forked worker. Forking, and the pages both processes
# then copy on write, cost a roughly fixed time, and on a shared 2-core
# machine the worker did not always get the second core at once: inside
# `score` (20 columns) the split lost at 10k rows (1.10-1.13x the serial
# time) and was mixed at 20k-22.5k (0.60-1.06x); from 25k rows it won in
# every measurement (0.55-0.65x).
_SPLIT_CELLS = 500_000
# np.loadtxt splitting a line as csv.reader does, into str (not bytes) cells
_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "encoding": None}
# Characters that make csv.writer (QUOTE_MINIMAL) quote a cell.
_QUOTED = ',"\r\n'


def _to_json(record) -> dict:
    """The fields of a config dataclass as JSON values; arrays and numpy
    scalars go through .tolist()."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        out[f.name] = value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value
    return out


def _load_json(path):
    """The JSON value in the file ``path``; text that is not JSON raises
    ValueError naming the file."""
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is dropped
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


@contextlib.contextmanager
def _atomic_open(path, binary: bool = False):
    """``path``.tmp open for bytes, or for UTF-8 text with no newline
    translation; renamed to ``path`` when the block ends without raising,
    deleted when it raises."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def _write_json(path, value) -> None:
    """Write ``value`` as JSON: indent 1, sorted keys, a final line break."""
    with _atomic_open(path) as fh:
        fh.write(json.dumps(value, indent=1, sort_keys=True) + "\n")


def _from_json(cls, raw, where: str):
    """``cls(**raw)`` for a JSON object ``raw`` that has every required
    field of the dataclass ``cls`` and no other key. Anything else raises
    ValueError naming ``where`` and the keys; a field value the dataclass
    refuses raises its error with ``where`` appended."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where}: expected a JSON object, got {json.dumps(raw)[:40]}")
    unknown = sorted(raw.keys() - {f.name for f in fields(cls)})
    absent = [f.name for f in fields(cls) if f.name not in raw
              and f.default is MISSING and f.default_factory is MISSING]
    if unknown or absent:
        raise ValueError(f"{where}: unknown keys {unknown}, missing keys {absent}")
    try:
        return cls(**raw)
    except ValueError as exc:  # a field's own error, which starts with its name
        raise ValueError(f"{exc} (in {where})") from None


def _check_types(record, integers=(), reals=(), strings=()) -> None:
    """ValueError naming the first field of the dataclass ``record`` in
    ``integers`` that holds no integer, in ``reals`` no real number (a
    bool is neither) or in ``strings`` no string: a record read from JSON
    may hold any value."""
    for names, kind, what in ((integers, numbers.Integral, "an integer"),
                              (reals, numbers.Real, "a number"),
                              (strings, str, "a string")):
        for name in names:
            value = getattr(record, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, not {value!r}")


def _real_array(value) -> np.ndarray:
    """``value`` as a float array, or TypeError when an entry is not a
    real number or is a bool: np.asarray(value, dtype=float) would read
    the strings and booleans a JSON record may hold as numbers."""
    entries = np.asarray(value, dtype=object)
    if not all(isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
               for v in entries.flat):
        raise TypeError(f"not an array of real numbers: {value!r}")
    return entries.astype(float)


def _finite_matrix(value, name: str, shape: tuple[int, int]) -> np.ndarray:
    """``value`` as a float array of ``shape`` with finite entries, or
    ValueError naming ``name``."""
    try:
        a = _real_array(value)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} must be a {shape[0]} x {shape[1]} matrix of finite numbers")
    return a


class RankDeficientError(ValueError):
    """Design matrix has linearly dependent columns."""


@dataclass
class Dataset:
    """Covariates, multivariate responses and their observation mask.

    X is l x q with a leading all-ones intercept column; Y is l x n with
    NaN wherever mask is False. Rows must outnumber covariates by at
    least two and X must have full column rank.
    """

    ids: list[str]
    X: np.ndarray
    Y: np.ndarray
    mask: np.ndarray
    response_names: list[str]
    covariate_names: list[str]
    coords: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        l, q = self.X.shape
        if len(self.ids) != l:
            raise ValueError(f"ids length {len(self.ids)} != {l} rows")
        if len(set(self.ids)) != l:
            raise ValueError("duplicate ids")
        if self.Y.shape[0] != l:
            raise ValueError("X and Y row counts differ")
        if self.mask.shape != self.Y.shape:
            raise ValueError(f"mask shape {self.mask.shape} != Y shape {self.Y.shape}")
        if len(self.covariate_names) != q:
            raise ValueError("covariate_names length != q")
        if len(self.response_names) != self.Y.shape[1]:
            raise ValueError("response_names length != n")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("covariates must be fully observed and finite")
        if not np.allclose(self.X[:, 0], 1.0):
            raise ValueError("first design column must be the all-ones intercept")
        if l < q + 2:
            raise ValueError(f"need at least q + 2 = {q + 2} rows, got {l}")
        if np.linalg.matrix_rank(self.X) < q:
            raise RankDeficientError("design matrix is rank deficient")
        if not np.all(np.isfinite(self.Y[self.mask])):
            raise ValueError("observed response cells must be finite")
        # Normalize: unobserved cells are always NaN.
        self.Y = self.Y.copy()
        self.Y[~self.mask] = np.nan
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=float)
            if self.coords.shape != (l, 2):
                raise ValueError("coords must be (l, 2) lon/lat pairs")
            if not np.all(np.isfinite(self.coords)):
                raise ValueError("coords must be finite")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.X.shape[1]

    @property
    def n_responses(self) -> int:
        return self.Y.shape[1]


_STATUS_LABELS = np.array(["full", "partial", "missing"])


def row_status(d: Dataset) -> list[str]:
    """Per-row status label: "full", "partial" or "missing"."""
    n_obs = d.mask.sum(axis=1)
    codes = np.where(n_obs == d.n_responses, 0, np.where(n_obs > 0, 1, 2))
    return _STATUS_LABELS[codes].tolist()


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

# response transform tag -> (forward, floor, wording); observed values
# must lie above floor. "none" is the identity.
_RESPONSE_TRANSFORMS = {
    "log": (np.log, 0.0, "positive values"),
    "log1p": (np.log1p, -1.0, "values > -1"),
}


def _per_name(value, names: list[str], default, key: str) -> list:
    """One value per name from a ``transforms`` entry: a single value for
    every name, or a name -> value mapping with ``default`` for the rest.
    A value not of the type of ``default`` or an unknown name raises
    ValueError naming ``key``."""
    given = list(value.values()) if isinstance(value, dict) else [value]
    bad = [v for v in given if type(v) is not type(default)]
    if bad:
        raise ValueError(f"transforms {key}: expected {type(default).__name__} values, "
                         f"got {bad[0]!r}")
    if not isinstance(value, dict):
        return [value] * len(names)
    unknown = sorted(value.keys() - set(names))
    if unknown:
        raise ValueError(f"transforms {key}: unknown names {unknown}")
    return [value.get(name, default) for name in names]


@dataclass
class TransformSpec:
    """Per-column response transforms plus covariate standardization.

    ``response`` holds one tag per response column ("none", "log" or
    "log1p"); ``standardize`` one flag per non-intercept covariate.
    Centering/scaling constants are recorded here when the transform
    is applied, so that scoring can reuse a fit's.
    """

    response: list[str]
    standardize: list[bool]
    centers: np.ndarray | None = field(default=None, compare=False)
    scales: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        for tag in self.response:
            if tag != "none" and tag not in _RESPONSE_TRANSFORMS:
                raise ValueError(f"unknown response transform {tag!r}")

    @classmethod
    def from_config(cls, cfg: dict, response_names: list[str],
                    covariate_names: list[str]) -> "TransformSpec":
        """Build a spec from the ingestion-config "transforms" entry.

        ``cfg["responses"]`` is either a single tag applied to every
        response or a name -> tag mapping (unlisted names get "none");
        ``cfg["standardize"]`` is a bool for all covariates or a
        name -> bool mapping (unlisted default True). ``cfg`` is a dict, as
        IngestConfig checks. Any other key, a value of another type, or a
        mapping name that is no response (no non-intercept covariate)
        raises ValueError naming it.
        """
        unknown = sorted(cfg.keys() - {"responses", "standardize"})
        if unknown:
            raise ValueError(f"transforms: unknown keys {unknown}")
        non_intercept = [c for c in covariate_names if c != INTERCEPT_NAME]
        response = _per_name(cfg.get("responses", "none"), response_names, "none",
                             "responses")
        standardize = _per_name(cfg.get("standardize", True), non_intercept, True,
                                "standardize")
        return cls(response=response, standardize=standardize)


def apply_transforms(d: Dataset, t: TransformSpec) -> Dataset:
    """Return a transformed copy of ``d``.

    Log transforms require strictly positive observed values and report
    the first offending cell. Standardization centers each flagged
    covariate and scales it to unit sample variance (intercept excluded).
    Centers and scales already on ``t`` (those a fit recorded) are applied
    as given; otherwise they are computed from ``d`` and stored on ``t``.
    """
    if len(t.response) != d.n_responses:
        raise ValueError("transform spec does not match response count")
    if len(t.standardize) != d.n_covariates - 1:
        raise ValueError("transform spec does not match covariate count")

    Y = d.Y.copy()
    for j, tag in enumerate(t.response):
        if tag == "none":
            continue
        forward, floor, wording = _RESPONSE_TRANSFORMS[tag]
        col = Y[:, j]
        obs = d.mask[:, j]
        bad = obs & (col <= floor)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"{tag} transform needs {wording}; row {d.ids[i]!r} "
                f"column {d.response_names[j]!r} has {col[i]!r}")
        col[obs] = forward(col[obs])

    X = d.X.copy()
    given = t.centers is not None and t.scales is not None
    if given and not len(t.centers) == len(t.scales) == d.n_covariates - 1:
        raise ValueError("transform constants do not match covariate count")
    centers = t.centers if given else np.zeros(d.n_covariates - 1)
    scales = t.scales if given else np.ones(d.n_covariates - 1)
    for j, do_std in enumerate(t.standardize):
        if not do_std:
            continue
        col = X[:, j + 1]
        if not given:
            centers[j] = col.mean()
            scales[j] = col.std(ddof=1)
            if scales[j] == 0:
                raise ValueError(
                    f"cannot standardize constant covariate {d.covariate_names[j + 1]!r}")
        X[:, j + 1] = (col - centers[j]) / scales[j]
    t.centers = centers
    t.scales = scales

    return Dataset(ids=list(d.ids), X=X, Y=Y, mask=d.mask.copy(),
                   response_names=list(d.response_names),
                   covariate_names=list(d.covariate_names),
                   coords=None if d.coords is None else d.coords.copy())


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass
class IngestConfig:
    """Names the columns of an input CSV and the missing-value token.

    ``covariates`` and ``responses`` are lists of strings in which no name
    appears twice, in one list or across both; the other columns are
    strings (``lon_col`` and ``lat_col`` may be None, but only together),
    ``transforms`` an object or None. Anything else raises ValueError
    naming the field.
    """

    id_col: str
    covariates: list[str]
    responses: list[str]
    lon_col: str | None = None
    lat_col: str | None = None
    missing_token: str = MISSING_TOKEN
    transforms: dict | None = None

    def __post_init__(self):
        _check_types(self, strings=("id_col", "missing_token") + tuple(
            name for name in ("lon_col", "lat_col") if getattr(self, name) is not None))
        for name in ("covariates", "responses"):
            names = getattr(self, name)
            if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
                raise ValueError(f"{name} must be a list of strings, not {names!r}")
            repeated = [v for i, v in enumerate(names) if v in names[:i]]
            if repeated:
                raise ValueError(f"{name} names {repeated[0]!r} more than once")
        both = [v for v in self.responses if v in self.covariates]
        if both:
            raise ValueError(f"covariates and responses both name {both[0]!r}")
        if bool(self.lon_col) != bool(self.lat_col):
            raise ValueError(f"lon_col and lat_col must be set together, not "
                             f"{self.lon_col!r} and {self.lat_col!r}")
        if not isinstance(self.transforms, (dict, type(None))):
            raise ValueError(f"transforms must be an object or null, not {self.transforms!r}")

    @classmethod
    def from_json(cls, path) -> "IngestConfig":
        return _from_json(cls, _load_json(path), str(path))


@contextlib.contextmanager
def _open_table(path, names):
    """The CSV file ``path`` open as text, and its header. A UTF-8 byte-order
    mark is dropped; surrogateescape reads a byte that is not UTF-8, for its
    line to be named. An empty file, a header with such a byte or repeated
    names, or a name of ``names`` not in it raises ValueError."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty file")
        _check_utf8(first, f"{path}:1")
        header = next(csv.reader([first]))
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names in header")
        for name in names:
            if name not in header:
                raise ValueError(f"{path}: column {name!r} not in header")
        yield fh, header


def _check_utf8(text: str, where: str) -> None:
    """ValueError naming ``where`` (path:line) and the first byte of the
    line ``text`` that surrogateescape read, with its column."""
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        raise ValueError(f"{where}: not UTF-8 text: byte 0x{ord(text[exc.start]) - 0xDC00:02x}"
                         f" at column {exc.start + 1}") from None


def _parse_exact(block: list[str], line: int, path, fields: int, id_col: int, cols: list[int],
                 labels: list[str], token: str, required: int):
    """_parse_rows of the text lines ``block``, read line by line with
    csv.reader and float(). The first faulty line raises, whatever its
    fault; on one line a byte that is not UTF-8 is found first, then the
    wrong field count, then the first missing, non-numeric or non-finite
    cell."""
    ids = []
    values = np.full((len(block), len(cols)), np.nan)
    missing = np.zeros(values.shape, dtype=bool)
    for i, text in enumerate(block):
        where = f"{path}:{line + i}"
        _check_utf8(text, where)
        cells = next(csv.reader([text]))
        if len(cells) != fields:
            raise ValueError(f"{where}: expected {fields} fields, got {len(cells)}")
        ids.append(cells[id_col])
        for k, j in enumerate(cols):
            if cells[j] == token or not cells[j].strip():
                if k < required:
                    raise ValueError(f"{where}: missing {labels[k]}")
                missing[i, k] = True
                continue
            try:
                values[i, k] = float(cells[j])
            except ValueError:
                raise ValueError(f"{where}: non-numeric {labels[k]}: {cells[j]!r}") from None
            if not math.isfinite(values[i, k]):
                raise ValueError(f"{where}: non-finite {labels[k]}: {cells[j]!r}")
    return ids, values, missing


def _parse_rows(lines, line: int, path, fields: int, id_col: int, cols: list[int],
                labels: list[str], token: str, required: int,
                numeric: int) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ids, values (NaN where missing) and missing mask of the text
    lines ``lines`` of the CSV ``path``, the first being line ``line``:
    the id from column ``id_col`` and the values from columns ``cols``,
    which ``labels`` name in errors ("covariate 'a'"). A cell is missing
    when it equals ``token`` or is blank; the first ``required`` of
    ``cols`` may not be. A faulty line raises ValueError naming
    path:line, the first such line whatever its fault.

    Blocks of _BLOCK_ROWS lines take the fast path, numpy's C tokenizer:
    the first ``numeric`` of ``cols`` (at most ``required``) as floats, the
    id and the rest as text for the token/blank test, then float() (so a
    literal "nan" is a value, not a missing cell). A block it rejects, or
    whose values are not all finite, goes to _parse_exact."""
    ids = []  # the empty arrays let a file with no data lines concatenate
    values = [np.empty((0, len(cols)))]
    missing = [np.empty((0, len(cols)), dtype=bool)]
    lines = iter(lines)
    while block := list(itertools.islice(lines, _BLOCK_ROWS)):
        try:
            joined = "".join(block)
            if not joined.isascii():  # O(1): str keeps an ASCII flag
                joined.encode()  # a byte that surrogateescape read raises UnicodeEncodeError
            # fields - 1 commas on each line, none quoted and none blank, is that many fields
            commas = list(map(str.count, block, itertools.repeat(",")))
            if (commas.count(fields - 1) != len(block) or '"' in joined or "\n" in block) \
                    and any(len(next(csv.reader([ln]))) != fields for ln in block):
                raise ValueError("a line holds the wrong number of fields")
            text = np.loadtxt(block, dtype=object, usecols=[id_col] + cols[numeric:], ndmin=2,
                              **_LOADTXT)
            absent = (text[:, 1:] == token) | (text[:, 1:] == "")
            if absent[:, :required - numeric].any():
                raise ValueError("a required cell is missing")
            # a cell of spaces fails here and is read as missing by _parse_exact
            floats = np.full(absent.shape, np.nan)
            floats[~absent] = text[:, 1:][~absent].astype(float)
            # with no numeric columns loadtxt would still tokenize the block
            head = np.loadtxt(block, usecols=cols[:numeric], ndmin=2, **_LOADTXT) if numeric \
                else np.empty((len(block), 0))
            block_ids, V = text[:, 0].tolist(), np.column_stack([head, floats])
            M = np.column_stack([np.zeros(head.shape, dtype=bool), absent])
            if not (np.isfinite(V) | M).all():
                raise ValueError("a value is not finite")
        except ValueError:
            block_ids, V, M = _parse_exact(block, line, path, fields, id_col, cols, labels,
                                           token, required)
        ids += block_ids
        values.append(V)
        missing.append(M)
        line += len(block)
    return ids, np.concatenate(values), np.concatenate(missing)


def load_csv(path, config: IngestConfig) -> Dataset:
    """Load a dataset from a headered CSV file.

    Response cells equal to the missing token (or blank) become
    unobserved; missing covariate and coordinate cells are rejected, and
    so is a literal non-finite cell in any column. An intercept column is
    prepended to the covariates.

    _parse_rows names the file's first faulty line, whatever the fault; a
    repeated id is named after the parse.
    """
    want_coords = bool(config.lon_col and config.lat_col)
    # responses last: the columns before them may not be missing
    names = list(config.covariates)
    names += [config.lon_col, config.lat_col] if want_coords else []
    q, r = len(config.covariates), len(names)
    names += config.responses
    kinds = ["covariate"] * q + ["coordinate"] * (r - q) + ["response"] * (len(names) - r)
    labels = [f"{kind} {name!r}" for kind, name in zip(kinds, names)]
    with _open_table(path, [config.id_col] + names) as (fh, header):
        token = config.missing_token
        # The C tokenizer parses the columns before the responses as floats,
        # unless it would read the token as a number.
        try:
            float(token)
            numeric = 0
        except (TypeError, ValueError):
            numeric = r
        ids, V, M = _parse_rows(fh, 2, path, len(header), header.index(config.id_col),
                                [header.index(name) for name in names], labels, token,
                                required=r, numeric=numeric)
    if not ids:
        raise ValueError(f"{path}: no data rows")

    if len(set(ids)) != len(ids):
        _, first = np.unique(ids, return_index=True)
        i = int(np.setdiff1d(np.arange(len(ids)), first)[0])
        raise ValueError(f"{path}:{i + 2}: duplicate id {ids[i]!r}")
    return Dataset(
        ids=ids,
        X=np.column_stack([np.ones(len(ids)), V[:, :q]]),
        Y=V[:, r:],
        mask=~M[:, r:],
        response_names=list(config.responses),
        covariate_names=[INTERCEPT_NAME] + list(config.covariates),
        coords=V[:, q:r].copy() if want_coords else None,
    )


def write_record(d: Dataset, path, source_sha256: str, config_sha256: str) -> None:
    """Write the parsed table ``d`` of a CSV as an uncompressed .npz that
    load_record reads back instead of the CSV: X (intercept included), Y
    (NaN where missing), mask, coords if any, the ids as UTF-8 bytes
    joined by line breaks, and the hashes of the CSV and of the ingestion
    config. Same inputs give the same bytes."""
    ids = "\n".join(d.ids)
    if ids.count("\n") != len(d.ids) - 1:
        raise ValueError("an id holds a line break; the table cannot be recorded")
    arrays = {"X": d.X, "Y": d.Y, "mask": d.mask,
              "ids": np.frombuffer(ids.encode("utf-8"), dtype=np.uint8),
              "source_sha256": np.array(source_sha256),
              "config_sha256": np.array(config_sha256)}
    if d.coords is not None:
        arrays["coords"] = d.coords
    with _atomic_open(path, binary=True) as fh:
        np.savez(fh, **arrays)


def _read_archive(path, keys=None, writer: str = "fit") -> dict:
    """The arrays of the .npz archive ``path`` (those in ``keys``, when
    given); ValueError naming ``path``, and the command ``writer`` that
    rewrites it, when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # np.load reads a .npy file too
                raise ValueError("one .npy array, not an .npz archive")
            with npz:
                return {key: npz[key] for key in npz.files if keys is None or key in keys}
    # what np.load and reading an array raise for a cut or corrupt archive
    except (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: unreadable archive ({exc}); "
                         f"re-run {writer} to rewrite it") from None


def _check_arrays(arrays: dict, want: dict) -> None:
    """Check that ``arrays`` holds each key of ``want`` with its (dtype,
    shape): a dtype np.issubdtype accepts, and a shape whose numbers are
    exact and whose names each stand for one length. Else ValueError."""
    absent = [key for key in want if key not in arrays]
    if absent:
        raise ValueError(f"has no {', '.join(absent)}")
    sizes = {}
    for key, (dtype, shape) in want.items():
        a = arrays[key]
        expect = tuple(sizes.setdefault(s, k) if isinstance(s, str) else s
                       for s, k in zip(shape, a.shape))
        if not np.issubdtype(a.dtype, dtype) or a.ndim != len(shape) or a.shape != expect:
            raise ValueError(f"holds {key} as {a.dtype} {a.shape}")


def load_record(path, config: IngestConfig, source_sha256: str,
                config_sha256: str) -> Dataset | None:
    """The Dataset load_csv(csv, config) gives, read from the write_record
    file ``path``; None when there is no such file or it was written for
    another CSV or config (a hash differs). An unreadable record, or one
    whose hashes match but whose arrays are not the ones write_record
    writes for ``config``, raises ValueError naming ``path``."""
    if not os.path.exists(path):
        return None
    a = _read_archive(path)
    try:
        if (str(a["source_sha256"]), str(a["config_sha256"])) != (source_sha256, config_sha256):
            return None
        q, n = len(config.covariates) + 1, len(config.responses)
        coords = bool(config.lon_col and config.lat_col)
        _check_arrays(a, {"X": ("f8", ("l", q)), "Y": ("f8", ("l", n)),
                          "mask": ("?", ("l", n)), "ids": ("u1", ("bytes",)),
                          **({"coords": ("f8", ("l", 2))} if coords else {})})
        return Dataset(ids=a["ids"].tobytes().decode("utf-8").split("\n"),
                       X=a["X"], Y=a["Y"], mask=a["mask"],
                       response_names=list(config.responses),
                       covariate_names=[INTERCEPT_NAME] + list(config.covariates),
                       coords=a["coords"] if coords else None)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed dataset record ({exc}); "
                         "re-run fit to rewrite it") from None


def _quote(cell: str) -> str:
    """``cell`` as csv.writer writes it: quoted, with quotes doubled, when
    it holds a comma, a quote or a line break."""
    if any(ch in cell for ch in _QUOTED):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _text(column) -> list:
    """One column block as %s arguments: a numpy array's cells as they are
    (numbers, whose str is their repr, NaN's nan; or an object array's
    cells), and a list's text, quoted by _quote."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return list(map(_quote, column)) if any(ch in "".join(column) for ch in _QUOTED) else column


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _may_fork() -> bool:
    """Whether a table may be split with a forked worker: os.fork exists, this
    process may run on two cores or more, and it runs one thread (the
    child of a fork has only the forking thread: a lock another thread
    held then would never be released in it)."""
    return hasattr(os, "fork") and _cores() > 1 and threading.active_count() == 1


def _format_rows(columns, lo: int, hi: int):
    """Rows lo..hi of equal-length columns as csv.writer's UTF-8 bytes, one
    block of _BLOCK_ROWS rows at a time: a "%s,...,%s" CRLF row format
    applied per row."""
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    for a in range(lo, hi, _BLOCK_ROWS):
        block = [_text(c[a:min(a + _BLOCK_ROWS, hi)]) for c in columns]
        yield "".join([row % cells for cells in zip(*block)]).encode()


def _write_table(path, header: list[str], columns: list) -> str:
    """Write equal-length columns (at least two) under ``header`` with the
    bytes csv.writer would write, one _format_rows block per write, and
    return the sha256 hex of those bytes.

    A table of at least _SPLIT_CELLS cells, where _may_fork, has rows
    n//2..n formatted by a forked worker. The worker formats its half to
    the end before it sends anything, so a full pipe never stalls the
    work, then sends b"\\0" and the bytes, or b"\\1" and the error that
    stopped it; it leaves only through os._exit, so it runs no atexit
    handler and flushes no buffer it inherited. ChildProcessError names
    ``path`` unless it sent every byte and exited with status 0. On any
    failure the worker is killed and reaped, and no file is left."""
    n = len(columns[0])
    split = n * len(columns) >= _SPLIT_CELLS and _may_fork()
    mid = n // 2 if split else n
    if split:  # forked before the temp file is opened, so the worker holds no copy of it
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(r)
                with open(w, "wb") as out:
                    try:
                        blocks = list(_format_rows(columns, mid, n))
                    except Exception as exc:
                        out.write(b"\1" + f"{type(exc).__name__}: {exc}".encode())
                    else:
                        out.write(b"\0")
                        out.writelines(blocks)
                        status = 0
            finally:
                os._exit(status)
        os.close(w)
        pipe = open(r, "rb")
    digest = hashlib.sha256()
    try:
        with _atomic_open(path, binary=True) as fh:
            head = [(",".join(_text(header)) + "\r\n").encode()]
            for block in itertools.chain(head, _format_rows(columns, 0, mid)):
                digest.update(block)
                fh.write(block)
                del block  # not held while the next block is formatted
            if split:
                sent = pipe.read(1) == b"\0"
                while sent and (block := pipe.read(1 << 20)):
                    digest.update(block)
                    fh.write(block)
                error = pipe.read().decode(errors="replace")
                _, status = os.waitpid(pid, 0)
                pid = None
                code = os.waitstatus_to_exitcode(status)
                if not sent or code:
                    why = error or (f"exit status {code}" if code > 0 else f"signal {-code}")
                    raise ChildProcessError(
                        f"{path}: the worker writing rows {mid}..{n} failed: {why}")
    finally:
        if split:
            pipe.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return digest.hexdigest()


def write_csv(d: Dataset, path, config: IngestConfig) -> str:
    """Write a dataset back to CSV, mirroring the ingestion schema, and
    return the file's sha256 hex; a missing response is the config's
    token, quoted where csv.writer would quote it."""
    header = [config.id_col]
    columns = [list(d.ids)]
    if d.coords is not None:
        header += [config.lon_col or "lon", config.lat_col or "lat"]
        columns += [d.coords[:, 0], d.coords[:, 1]]
    header += d.covariate_names[1:] + d.response_names
    columns += list(d.X[:, 1:].T)
    for y, observed in zip(d.Y.T, d.mask.T):  # object arrays: the floats and the token
        columns.append(y.astype(object))
        columns[-1][~observed] = _quote(config.missing_token)
    return _write_table(path, header, columns)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass
class SynthSpec:
    """Generator configuration for synthetic datasets.

    B defaults to standard-normal coefficients and Sigma to the identity.
    ``missing_prob`` is one probability for all responses or one per
    response. ``planted_high_leverage`` rows get their non-intercept
    covariates multiplied by ``leverage_scale``. A field of the wrong type
    or out of range raises ValueError naming it; B must be n x q and Sigma
    n x n, both finite, and Sigma symmetric positive definite.
    """

    l: int
    n: int
    q: int
    B: np.ndarray | None = None
    Sigma: np.ndarray | None = None
    missing_prob: float | list[float] = 0.0
    planted_high_leverage: int = 0
    leverage_scale: float = 8.0
    with_coords: bool = True

    def __post_init__(self):
        _check_types(self, integers=("l", "n", "q", "planted_high_leverage"),
                     reals=("leverage_scale",))
        for name, low in (("n", 1), ("q", 1), ("planted_high_leverage", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, not {getattr(self, name)}")
        if self.l < self.q + 2:
            raise ValueError(f"l must be at least q + 2 = {self.q + 2}, not {self.l}")
        if not math.isfinite(self.leverage_scale):
            raise ValueError(f"leverage_scale must be a finite number, not {self.leverage_scale!r}")
        if not isinstance(self.with_coords, bool):
            raise ValueError(f"with_coords must be true or false, not {self.with_coords!r}")
        try:
            probs = np.broadcast_to(_real_array(self.missing_prob), (self.n,))
            valid = np.all((probs >= 0) & (probs <= 1))  # NaN is not
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ValueError(f"missing_prob must be one probability in [0, 1] or {self.n} such "
                             f"probabilities, not {self.missing_prob!r}")
        if self.B is not None:
            self.B = _finite_matrix(self.B, "B", (self.n, self.q))
        if self.Sigma is not None:
            self.Sigma = _finite_matrix(self.Sigma, "Sigma", (self.n, self.n))
            try:  # a Cholesky factor reads one triangle
                if not np.array_equal(self.Sigma, self.Sigma.T):
                    raise np.linalg.LinAlgError
                np.linalg.cholesky(self.Sigma)
            except np.linalg.LinAlgError:
                raise ValueError("Sigma must be symmetric positive definite") from None

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        return _from_json(cls, _load_json(path), str(path))


def synthesize(gen: SynthSpec, seed: int) -> tuple[Dataset, dict]:
    """Generate a dataset from the joint linear model, plus its truth record.

    Deterministic for a fixed seed. The truth record carries the
    generating parameters (B, Sigma, seed and the generator fields) for oracle
    comparisons.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    rng = np.random.default_rng(seed)

    B = rng.standard_normal((gen.n, gen.q)) if gen.B is None else gen.B
    Sigma = np.eye(gen.n) if gen.Sigma is None else gen.Sigma
    L = np.linalg.cholesky(Sigma)
    probs = np.broadcast_to(np.asarray(gen.missing_prob, dtype=float), (gen.n,)).copy()

    C = rng.standard_normal((gen.l, gen.q - 1))
    if gen.planted_high_leverage > 0:
        k = min(gen.planted_high_leverage, gen.l)
        C[-k:, :] *= gen.leverage_scale
    X = np.column_stack([np.ones(gen.l), C])
    E = rng.standard_normal((gen.l, gen.n)) @ L.T
    Y = X @ B.T + E
    mask = rng.random((gen.l, gen.n)) >= probs
    coords = rng.uniform([-95.0, 36.0], [-70.0, 48.0], size=(gen.l, 2)) \
        if gen.with_coords else None

    ids = [f"loc{i:05d}" for i in range(gen.l)]
    d = Dataset(ids=ids, X=X, Y=Y, mask=mask,
                response_names=[f"y{j + 1}" for j in range(gen.n)],
                covariate_names=[INTERCEPT_NAME] + [f"x{j + 1}" for j in range(gen.q - 1)],
                coords=coords)
    truth = {
        "seed": int(seed),
        "B": B.tolist(),
        "Sigma": Sigma.tolist(),
        "missing_prob": probs.tolist(),
        "l": gen.l, "n": gen.n, "q": gen.q,
        "planted_high_leverage": int(gen.planted_high_leverage),
        "leverage_scale": float(gen.leverage_scale),
    }
    return d, truth
