"""Benchmark of the extrapolmv pipeline: simulate -> fit -> score -> tree -> report.

Run from the root of a checkout:

    python3 bench/run.py --workload reference --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's ``src/`` and driven in-process
through ``extrapolmv.cli.main``, on files made by ``extrapolmv simulate``.
BLAS is pinned to one thread and ``EXTRAPOLMV_THREADS`` is cleared before
numpy loads, so the CLI runs with its own defaults.

A run sets up ``SETUPS`` times (a fresh interpreter that imports the
package and simulates the inputs, plus the fit on ``rescore``), then
repeats the workload's timed commands for ``--seconds`` (at least
``MIN_REPS`` times) and reports medians. End-to-end times are nominal
seconds: wall time scaled by the machine's speed during it, which a
probe samples on the same thread (see ``speed.py``). With ``--trace 1``
it alternates untraced and traced repetitions and reports per-layer
figures, in wall seconds, from spans recorded around the package's
functions (see ``tracer.py``). Every repetition's outputs are checked.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A readable
summary goes to standard error; the full record, with the environment
and, for traced runs, the spans, goes to ``bench/out/``. ``NOTES.md``
says why each workload exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from collections.abc import Callable
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CLI_THREADS_ENV = "EXTRAPOLMV_THREADS"
OK_CODES = (0, 2)       # 2 is success with warnings, e.g. fit's R-hat warning
CHAINS = 2
SETUPS = 3              # set-ups in an untraced run; setup_s is their median
MIN_REPS = 2            # timed repetitions in an untraced run, at least
HARD_LIMIT_S = 140.0    # past the minimum, start no repetition that could end later
# A short stage repeats until it has run this long per repetition, in
# nominal seconds, or EXTRA_MAX times.
EXTRA_MIN_S = {"score_s": 0.5, "characterize_s": 1.0}
EXTRA_MAX = 80

END_TO_END = [
    ("pipeline_s", "s", "lower"),
    ("fit_iters_per_s", "1/s", "higher"),
    ("score_locs_per_s", "1/s", "higher"),
    ("characterize_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Layer figures that only the fit command produces. On a workload that fits
# during set-up they come from a traced repeat of that fit.
FIT_LAYER = ("cli.fit.self_s", "sampler.gibbs_fit_s", "sampler.iter_ms",
             "sampler.draw_coefficients_s", "sampler.draw_coefficients_calls",
             "sampler.invwishart_rvs_s", "sampler.invwishart_rvs_calls",
             "sampler.conditional_gain_s", "sampler.conditional_gain_calls",
             "sampler.sweep_rest_s", "sampler.save_fit_s", "sampler.convergence_summary_s")

# Names ending in _s, _calls and .self_s are read from the span of the same
# stem (wall time, call count, self time); the rest are computed in
# layer_figures.
PER_LAYER = [
    ("cli.fit.self_s", "s", "lower"),
    ("cli.score.self_s", "s", "lower"),
    ("cli.tree.self_s", "s", "lower"),
    ("dataset.load_csv_s", "s", "lower"),
    ("dataset.load_csv_calls", "count", "lower"),
    ("dataset.apply_transforms_s", "s", "lower"),
    ("sampler.gibbs_fit_s", "s", "lower"),
    ("sampler.iter_ms", "ms", "lower"),
    ("sampler.draw_coefficients_s", "s", "lower"),
    ("sampler.draw_coefficients_calls", "count", "lower"),
    ("sampler.invwishart_rvs_s", "s", "lower"),
    ("sampler.invwishart_rvs_calls", "count", "lower"),
    ("sampler.conditional_gain_s", "s", "lower"),
    ("sampler.conditional_gain_calls", "count", "lower"),
    ("sampler.sweep_rest_s", "s", "lower"),
    ("sampler.save_fit_s", "s", "lower"),
    ("sampler.load_fit_s", "s", "lower"),
    ("sampler.load_fit_calls", "count", "lower"),
    ("sampler.fit_dir_bytes", "bytes", "lower"),
    ("sampler.convergence_summary_s", "s", "lower"),
    ("sampler.max_rhat", "ratio", "lower"),
    ("sampler.min_ess", "draws", "higher"),
    ("extrapolation.score_locations_s", "s", "lower"),
    ("extrapolation.mvpv_s", "s", "lower"),
    ("extrapolation.cmvpv_s", "s", "lower"),
    ("extrapolation.write_scores_csv_s", "s", "lower"),
    ("extrapolation.write_plotdata_csv_s", "s", "lower"),
    ("extrapolation.scores_bytes", "bytes", "lower"),
    ("diagnostics.ivh_values_s", "s", "lower"),
    ("cart.grow_tree_s", "s", "lower"),
    ("cart.export_tree_s", "s", "lower"),
    ("cart.tree_nodes", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# (module, attribute, span name, wrap every binding in the package).
# _conditional_gain is wrapped only where the sampler binds it, so the
# span counts the sweep's calls and not the scoring code's.
WRAPS = [
    ("extrapolmv.dataset", "load_csv", "dataset.load_csv", True),
    ("extrapolmv.dataset", "apply_transforms", "dataset.apply_transforms", True),
    ("extrapolmv.sampler", "gibbs_fit", "sampler.gibbs_fit", True),
    ("extrapolmv.sampler", "draw_coefficients", "sampler.draw_coefficients", True),
    ("extrapolmv.sampler", "invwishart_rvs", "sampler.invwishart_rvs", True),
    ("extrapolmv.sampler", "_conditional_gain", "sampler.conditional_gain", False),
    ("extrapolmv.sampler", "save_fit", "sampler.save_fit", True),
    ("extrapolmv.sampler", "load_fit", "sampler.load_fit", True),
    ("extrapolmv.sampler", "convergence_summary", "sampler.convergence_summary", True),
    ("extrapolmv.extrapolation", "score_locations", "extrapolation.score_locations", True),
    ("extrapolmv.extrapolation", "write_scores_csv", "extrapolation.write_scores_csv", True),
    ("extrapolmv.extrapolation", "write_plotdata_csv",
     "extrapolation.write_plotdata_csv", True),
    ("extrapolmv.diagnostics", "ivh_values", "diagnostics.ivh_values", True),
    ("extrapolmv.cart", "grow_tree", "cart.grow_tree", True),
    ("extrapolmv.cart", "export_tree", "cart.export_tree", True),
]


@dataclass(frozen=True)
class Score:
    measures: tuple[str, ...]
    cutoffs: str = "max,lev,q99,q95"


@dataclass(frozen=True)
class Workload:
    synth: dict                     # SynthSpec fields for `simulate`
    iters: int                      # per chain
    burnin: int
    fit_in_setup: bool              # the timed part only scores a set-up fit
    scores: tuple[Score, ...]       # tree and report follow the first
    cmvpv_probe: tuple[str, ...]    # measures of the traced-only CMVPV call
    min_spearman: float             # mvpv vs the analytic scores
    reason: str                     # checked on traced figures by reason_holds
    reason_holds: Callable[[dict], bool]


SIGMA_REF = [[0.6 if r == c else 0.1 for c in range(4)] for r in range(4)]  # 0.5 I + 0.1
MISSING_REF = [0.3, 0.15, 0.05, 0.0]
ALL_CMVPV = ("cmvpv:y1", "cmvpv:y2", "cmvpv:y3", "cmvpv:y4")

WORKLOADS = {
    "reference": Workload(
        synth={"l": 500, "n": 4, "q": 6, "Sigma": SIGMA_REF,
               "missing_prob": MISSING_REF},
        iters=1000, burnin=200, fit_in_setup=False,
        scores=(Score(("det", "trace")),),
        cmvpv_probe=("cmvpv:y1",), min_spearman=0.995,
        reason="sampler.gibbs_fit_s is most of the traced pipeline_s",
        reason_holds=lambda f: f["sampler.gibbs_fit_s"] > 0.5 * f["pipeline_s"]),
    "survey": Workload(
        synth={"l": 50000, "n": 4, "q": 10, "missing_prob": [0.9, 0.85, 0.8, 0.75]},
        iters=200, burnin=100, fit_in_setup=False,
        scores=(Score(("det", "trace", "cmvpv:y1")),),
        cmvpv_probe=("cmvpv:y1",), min_spearman=0.95,
        reason="load_csv + save_fit + load_fit + score_locations exceed gibbs_fit",
        reason_holds=lambda f: (f["dataset.load_csv_s"] + f["sampler.save_fit_s"]
                                + f["sampler.load_fit_s"]
                                + f["extrapolation.score_locations_s"]
                                > f["sampler.gibbs_fit_s"])),
    "rescore": Workload(
        synth={"l": 5000, "n": 4, "q": 6, "Sigma": SIGMA_REF,
               "missing_prob": MISSING_REF},
        iters=700, burnin=100, fit_in_setup=True,
        scores=(Score(("det", "trace")), Score(ALL_CMVPV),
                Score(("trace",), "q:0.9,q:0.8")),
        cmvpv_probe=ALL_CMVPV, min_spearman=0.995,
        reason="no gibbs_fit span falls in the timed part",
        reason_holds=lambda f: f["sampler.gibbs_fit_calls"] == 0),
}

# Sizes for the harness self-test: seconds, not minutes. Short chains rank
# locations less exactly, hence the lower Spearman bound.
TINY = {
    "reference": {"l": 200, "iters": 200, "burnin": 100},
    "survey": {"l": 3000, "iters": 60, "burnin": 30},
    "rescore": {"l": 400, "iters": 200, "burnin": 50},
}
TINY_MIN_SPEARMAN = 0.9


def wrap_all(tracer: Tracer) -> None:
    for module, attr, name, everywhere in WRAPS:
        tracer.wrap(module, attr, name, everywhere)


# The documented scores.csv layout, spelled out so a program change shows.
COLUMN = {"trace": "mvpv_tr", "det": "mvpv_logdet"}
CUTOFF_NAME = {"max": "max", "lev": "lev", "q99": "q99", "q95": "q95",
               "q:0.9": "q90", "q:0.8": "q80"}


def expected_header(score: Score) -> list[str]:
    mvpv = [COLUMN[m] for m in ("trace", "det") if m in score.measures]
    cmvpv = ["cmvpv_" + m.split(":", 1)[1] for m in score.measures
             if m.startswith("cmvpv:")]
    header = ["id", "lon", "lat", "status"] + mvpv + cmvpv
    for token in score.cutoffs.split(","):
        name = CUTOFF_NAME[token]
        header += [f"k_{name}", f"e_{name}", f"r_{name}"]
    return header + ["first_flagging_cutoff"]


# Runs in a fresh interpreter: import the package, run the set-up commands
# under a speed probe, print [exit code, nominal seconds] per command and
# the probe's own time and mean speed.
SETUP_CODE = """\
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[3]]
from speed import SpeedProbe
probe = SpeedProbe()
probe.start()
from extrapolmv.cli import main
out = []
for argv in json.loads(sys.argv[2]):
    t0 = time.perf_counter()
    rc = main(argv)
    out.append([rc, probe.nominal_s(t0, time.perf_counter())])
    if rc not in (0, 2):
        break
probe.stop()
print(json.dumps({"commands": out, "probe_s": sum(d for _t, d in probe.samples),
                  "speed": probe.mean_speed()}))
"""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "extrapolmv").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tree_nodes(node: dict) -> int:
    return 1 + sum(tree_nodes(node[side]) for side in ("left", "right") if side in node)


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def os_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading
    return threading.active_count()


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for.

    ru_maxrss is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def pin_threads() -> None:
    """One BLAS thread and the CLI's own thread default, before numpy loads."""
    for key in BLAS_ENV:
        os.environ[key] = "1"
    os.environ.pop(CLI_THREADS_ENV, None)


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool, tiny: bool):
        self.name = name
        w = WORKLOADS[name]
        if tiny:
            t = TINY[name]
            w = replace(w, synth=dict(w.synth, l=t["l"]), iters=t["iters"],
                        burnin=t["burnin"], min_spearman=TINY_MIN_SPEARMAN)
        self.w = w
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.key = name + ("-tiny" if tiny else "")
        self.tag = f"{self.key}-seed{seed}-trace{int(trace)}"
        self.work = OUT / "work" / f"{self.tag}-{os.getpid()}"
        self.sim = self.work / "setup0" / "sim"
        self.attempted = 0
        self.bad: set[str] = set()      # ids of failed commands
        self.problems: list[str] = []
        self.hashes: dict[int, str] = {}
        self.spearman: list[float] = []
        self.max_threads = os_threads()
        self.rep_no = 0
        self.probe: SpeedProbe | None = None    # set while untraced repetitions run
        self.speeds: list[float] = []           # mean speed of each set-up and timed loop
        self.probe_record: dict | None = None   # the timed loop's probe samples, summarized

    def fail(self, command_id: str, message: str) -> None:
        self.bad.add(command_id)
        self.problems.append(f"{command_id}: {message}")

    # -- set-up ------------------------------------------------------------

    def fit_argv(self, sim: Path, out: Path) -> list[str]:
        return ["fit", "--data", str(sim / "dataset.csv"),
                "--config", str(sim / "config.json"),
                "--iters", str(self.w.iters), "--burnin", str(self.w.burnin),
                "--chains", str(CHAINS), "--seed", str(self.seed), "--out", str(out)]

    def setup(self, k: int) -> tuple[float, float | None]:
        """One set-up in a fresh interpreter; (set-up seconds, fit seconds), both nominal."""
        base = self.work / f"setup{k}"
        cmds = [["simulate", "--spec", str(self.work / "spec.json"),
                 "--seed", str(self.seed), "--out", str(base / "sim")]]
        if self.w.fit_in_setup:
            cmds.append(self.fit_argv(base / "sim", base / "fit"))
        self.attempted += len(cmds)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(cmds), str(BENCH_DIR)],
            stdout=subprocess.PIPE, text=True, timeout=120)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        child = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
        done = child.get("commands", [])
        if child:
            # The interpreter's start-up is scaled by the speed measured after it.
            self.speeds.append(child["speed"])
            wall = (wall - child["probe_s"]) * child["speed"]
        for i, argv in enumerate(cmds):
            if i >= len(done) or done[i][0] not in OK_CODES:
                rc = done[i][0] if i < len(done) else f"process exit {proc.returncode}"
                self.fail(f"setup{k}/{argv[0]}", f"returned {rc}")
        fit_s = done[1][1] if self.w.fit_in_setup and len(done) > 1 else None
        return wall, fit_s

    def check_setups(self, n: int) -> None:
        """Set-ups with one seed must write identical files."""
        names = ["sim/dataset.csv"] + (["fit/draws.csv"] if self.w.fit_in_setup else [])
        for name in names:
            paths = [self.work / f"setup{k}" / name for k in range(n)]
            if not all(p.is_file() for p in paths):
                continue
            if len({sha256(p) for p in paths}) != 1:
                self.fail(f"setup/{name}", "differs between set-ups with one seed")

    def prepare(self) -> None:
        """Load the inputs once, untimed, for the output checks and probes."""
        import numpy as np

        from extrapolmv.dataset import IngestConfig, TransformSpec, apply_transforms, load_csv
        from extrapolmv.extrapolation import score_locations_analytic

        config = IngestConfig.from_json(self.sim / "config.json")
        raw = load_csv(self.sim / "dataset.csv", config)
        spec = TransformSpec.from_config(config.transforms, raw.response_names,
                                         raw.covariate_names)
        self.data = apply_transforms(raw, spec)
        self.ids = list(self.data.ids)
        truth = json.loads((self.sim / "truth.json").read_text(encoding="utf-8"))
        analytic = score_locations_analytic(self.data, measures=("trace", "det"),
                                            cutoffs=("max",),
                                            sigma=np.asarray(truth["Sigma"]))
        self.analytic = {COLUMN[m.measure]: m.values for m in analytic.measures}

    # -- timed repetitions -------------------------------------------------

    def fitdir(self, rep: Path) -> Path:
        return self.work / "setup0" / "fit" if self.w.fit_in_setup else rep / "fit"

    def traced_setup_fit(self, tracer: Tracer) -> dict:
        """Layer figures of the set-up fit, repeated in-process under the tracer."""
        out = self.work / "traced-fit"
        wrap_all(tracer)
        lo = len(tracer.spans)
        self.call(self.fit_argv(self.sim, out), "setup/traced-fit", tracer)
        tracer.unwrap_all()
        if sha256(out / "draws.csv") != sha256(self.fitdir(out) / "draws.csv"):
            self.fail("setup/traced-fit", "draws.csv differs from the untraced set-up fit")
        return self.layer_figures(tracer, lo, len(tracer.spans), out, out)

    def rep_commands(self, rep: Path) -> list[list[str]]:
        data = str(self.sim / "dataset.csv")
        fit = str(self.fitdir(rep))
        cmds = [] if self.w.fit_in_setup else [self.fit_argv(self.sim, rep / "fit")]
        for k, score in enumerate(self.w.scores):
            argv = ["score", "--draws", fit, "--data", data]
            for m in score.measures:
                argv += ["--measure", m]
            cmds.append(argv + ["--cutoffs", score.cutoffs, "--out", str(rep / f"score{k}")])
        cmds.append(["tree", "--scores", str(rep / "score0"), "--data", data,
                     "--out", str(rep / "tree")])
        cmds.append(["report", "--scores", str(rep / "score0"), "--tree", str(rep / "tree"),
                     "--out", str(rep / "report")])
        return cmds

    def elapsed(self, a: float, b: float) -> float:
        """Nominal seconds from a to b while the probe runs, else wall seconds."""
        return self.probe.nominal_s(a, b) if self.probe else b - a

    def call(self, argv: list[str], command_id: str, tracer: Tracer | None) -> float:
        """Run one CLI command in-process; its seconds, as ``elapsed`` gives them."""
        from extrapolmv import cli

        span = tracer.span(f"cli.{argv[0]}") if tracer else nullcontext()
        self.attempted += 1
        start = time.perf_counter()
        with span, redirect_stdout(sys.stderr):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is one failed command; the run goes on
                traceback.print_exc()
                rc = "exception"
        seconds = self.elapsed(start, time.perf_counter())
        if rc not in OK_CODES:
            self.fail(command_id, f"returned {rc}")
        return seconds

    def run_rep(self, tracer: Tracer | None) -> tuple[Path, dict]:
        self.rep_no += 1
        rep = self.work / "rep"
        shutil.rmtree(rep, ignore_errors=True)
        rep.mkdir(parents=True)
        cmds = self.rep_commands(rep)
        by_kind = defaultdict(float)
        start = time.perf_counter()
        for i, argv in enumerate(cmds):
            by_kind[argv[0]] += self.call(argv, f"rep{self.rep_no}/{i}-{argv[0]}", tracer)
        fig = {"pipeline_s": self.elapsed(start, time.perf_counter()),
               "score_s": by_kind["score"],
               "characterize_s": by_kind["tree"] + by_kind["report"]}
        if "fit" in by_kind:
            fig["fit_iters_per_s"] = CHAINS * self.w.iters / by_kind["fit"]

        # On small inputs the score calls, and tree + report, take well under
        # a second. Repeat them, untraced and outside pipeline_s, and time the
        # repeats as one batch, so that each figure rests on at least
        # EXTRA_MIN_S of work: a speed from the probe is only good over
        # intervals that hold a dozen of its samples, and the machine's speed
        # flickers within a second.
        if tracer is None:
            n = len(self.w.scores)
            for key, group in (("score_s", cmds[-2 - n:-2]), ("characterize_s", cmds[-2:])):
                times = min(EXTRA_MAX, math.ceil(EXTRA_MIN_S[key] / fig[key])) - 1
                if times < 1:
                    continue
                a = time.perf_counter()
                for _ in range(times):
                    for argv in group:
                        self.call(argv, f"rep{self.rep_no}/extra-{argv[0]}", None)
                fig[key] = (fig[key] + self.elapsed(a, time.perf_counter())) / (1 + times)
        self.check_rep(rep)
        return rep, fig

    # -- output checks -----------------------------------------------------

    def check_rep(self, rep: Path) -> None:
        offset = 0 if self.w.fit_in_setup else 1
        for k, score in enumerate(self.w.scores):
            self.check_scores(rep / f"score{k}" / "scores.csv", score, k,
                              f"rep{self.rep_no}/{offset + k}-score")
        n = offset + len(self.w.scores)
        for i, path in ((n, rep / "tree" / "tree.json"), (n + 1, rep / "report" / "report.md")):
            if not path.is_file():
                self.fail(f"rep{self.rep_no}/{i}-{path.parent.name}", f"no {path.name}")
        self.check_threads(self.fitdir(rep))

    def check_scores(self, path: Path, score: Score, k: int, command_id: str) -> None:
        import numpy as np
        from scipy.stats import spearmanr

        try:
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            self.fail(command_id, f"cannot read scores.csv: {exc}")
            return
        header, body = (rows[0], rows[1:]) if rows else ([], [])
        if header != expected_header(score):
            self.fail(command_id, f"scores.csv header {header} is not {expected_header(score)}")
            return
        if [r[0] for r in body] != self.ids:
            self.fail(command_id, f"scores.csv has {len(body)} rows, not one per "
                                  f"location in order ({len(self.ids)})")
            return
        column = next((c for c in ("mvpv_logdet", "mvpv_tr") if c in header), None)
        if column:
            j = header.index(column)
            values = np.array([float(r[j]) for r in body])
            rho = float(spearmanr(values, self.analytic[column]).statistic)
            self.spearman.append(rho)
            if not rho >= self.w.min_spearman:
                self.fail(command_id, f"Spearman({column}, analytic) = {rho:.5f} "
                                      f"< {self.w.min_spearman}")
        digest = sha256(path)
        if self.hashes.setdefault(k, digest) != digest:
            self.fail(command_id, "scores.csv differs from the first repetition")

    def check_threads(self, fitdir: Path) -> None:
        """No workload may run more threads than cores."""
        self.max_threads = max(self.max_threads, os_threads())
        try:
            manifest = json.loads((fitdir / "manifest.json").read_text(encoding="utf-8"))
            chain_threads = int(manifest["params"]["threads"])
        except (OSError, KeyError, ValueError) as exc:
            self.fail("threads", f"cannot read the fit's thread count: {exc}")
            return
        planned = chain_threads * max(int(os.environ[k]) for k in BLAS_ENV)
        if max(planned, self.max_threads) > cores():
            self.fail("threads", f"{max(planned, self.max_threads)} threads on {cores()} cores")

    def check_across_runs(self) -> None:
        """scores.csv bytes agree across runs of one workload, seed and source.

        Traced runs count too: tracing must not change the outputs.
        """
        path = OUT / "scores_sha256.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = {}
        src = source_sha256()[:16]
        inputs = json.dumps([self.w.synth, self.w.iters, self.w.burnin,
                             [[sc.measures, sc.cutoffs] for sc in self.w.scores]])
        sizes = hashlib.sha256(inputs.encode()).hexdigest()[:16]
        for k, digest in sorted(self.hashes.items()):
            key = f"{self.key}/seed{self.seed}/src-{src}/workload-{sizes}/score{k}"
            if record.setdefault(key, digest) != digest:
                self.fail(f"across-runs/score{k}",
                          "scores.csv differs from an earlier run with this seed and source")
        atomic_write(path, json.dumps(record, indent=1, sort_keys=True) + "\n")

    # -- traced-only figures ------------------------------------------------

    def layer_figures(self, tracer: Tracer, lo: int, hi: int, rep: Path,
                      fitdir: Path) -> dict:
        wall, own, calls = tracer.totals(lo, hi)
        fig = {}
        for name, _unit, _better in PER_LAYER:
            if name.endswith(".self_s"):
                fig[name] = own[name[:-len(".self_s")]]
            elif name.endswith("_calls"):
                fig[name] = calls[name[:-len("_calls")]]
            elif name.endswith("_s"):
                fig[name] = wall[name[:-len("_s")]]
        gibbs = wall["sampler.gibbs_fit"]
        n_fits = calls["sampler.gibbs_fit"]
        fig["sampler.gibbs_fit_calls"] = n_fits
        fig["sampler.iter_ms"] = 1000.0 * gibbs / (n_fits * CHAINS * self.w.iters) \
            if n_fits else 0.0
        fig["sampler.sweep_rest_s"] = gibbs - sum(
            wall[s] for s in ("sampler.draw_coefficients", "sampler.invwishart_rvs",
                              "sampler.conditional_gain")) if n_fits else 0.0
        fig["sampler.fit_dir_bytes"] = dir_bytes(fitdir)
        try:
            conv = json.loads((fitdir / "meta.json").read_text(encoding="utf-8"))["convergence"]
            fig["sampler.max_rhat"] = float(conv["max_rhat"])
            fig["sampler.min_ess"] = float(conv["min_ess"])
        except (OSError, KeyError, ValueError) as exc:
            self.problems.append(f"no convergence summary in {fitdir}: {exc}")
            fig["sampler.max_rhat"] = fig["sampler.min_ess"] = 0.0
        fig["extrapolation.scores_bytes"] = sum(
            (rep / f"score{k}" / "scores.csv").stat().st_size
            for k in range(len(self.w.scores)) if (rep / f"score{k}" / "scores.csv").is_file())
        try:
            fig["cart.tree_nodes"] = tree_nodes(
                json.loads((rep / "tree" / "tree.json").read_text(encoding="utf-8")))
        except (OSError, ValueError):
            fig["cart.tree_nodes"] = 0
        return fig

    def probe_measures(self, fitdir: Path) -> dict:
        """Time score_locations once per measure family on one set of draws."""
        from extrapolmv.extrapolation import score_locations
        from extrapolmv.sampler import load_fit

        draws, _meta = load_fit(fitdir)
        cutoffs = self.w.scores[0].cutoffs.split(",")
        out = {}
        for metric, measures in (("extrapolation.mvpv_s", ("det", "trace")),
                                 ("extrapolation.cmvpv_s", self.w.cmvpv_probe)):
            self.attempted += 1
            start = time.perf_counter()
            try:
                score_locations(draws, self.data, measures=measures, cutoffs=cutoffs)
            except Exception:  # a crash is one failed call; the run goes on
                traceback.print_exc()
                self.fail(f"probe/{metric}", "score_locations raised")
            out[metric] = time.perf_counter() - start
        return out

    # -- the run -------------------------------------------------------------

    def timed_loop(self, t0: float, tracer: Tracer | None):
        """Repeat the timed commands for --seconds; traced runs alternate.

        Untraced runs time under the speed probe and report nominal
        seconds. Traced runs report wall seconds, on both sides of
        trace.overhead_s, since the probe would add its samples to the spans.
        """
        if tracer is None:
            self.probe = SpeedProbe()
            self.probe.start()
            try:
                return self._timed_loop(t0, None)
            finally:
                self.probe.stop()
                self.speeds.append(self.probe.mean_speed())
                durations = [d for _t, d in self.probe.samples]
                self.probe_record = {"samples": len(durations), "kernel_s_median":
                                     statistics.median(durations) if durations else None}
                self.probe = None
        return self._timed_loop(t0, tracer)

    def _timed_loop(self, t0: float, tracer: Tracer | None):
        plain, traced = [], []
        start = time.perf_counter()
        last = 0.0
        while True:
            now = time.perf_counter()
            enough = (plain and traced) if tracer else len(plain) >= MIN_REPS
            if enough and (now - start >= self.seconds
                           or now - t0 + 1.5 * last > HARD_LIMIT_S):
                break
            use_trace = tracer is not None and len(traced) < len(plain)
            if use_trace:
                wrap_all(tracer)
                lo = len(tracer.spans)
            rep, fig = self.run_rep(tracer if use_trace else None)
            if use_trace:
                tracer.unwrap_all()
                fig.update(self.layer_figures(tracer, lo, len(tracer.spans), rep,
                                              self.fitdir(rep)))
                traced.append(fig)
            else:
                plain.append(fig)
            last = time.perf_counter() - now
        return plain, traced

    def run(self, t0: float) -> dict:
        import numpy as np
        import scipy

        load_before = os.getloadavg()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        atomic_write(self.work / "spec.json", json.dumps(self.w.synth) + "\n")

        n_setups = 1 if self.trace else SETUPS
        setups = [self.setup(k) for k in range(n_setups)]
        self.check_setups(n_setups)
        if self.bad:
            raise RuntimeError("set-up failed: " + "; ".join(self.problems))
        self.prepare()

        tracer = Tracer() if self.trace else None
        plain, traced = self.timed_loop(t0, tracer)
        self.check_across_runs()

        median = statistics.median
        if self.trace:
            metrics = {name: median(f[name] for f in traced)
                       for name, _unit, _better in PER_LAYER}
            metrics.update(self.probe_measures(self.fitdir(self.work / "rep")))
            if self.w.fit_in_setup:
                fit_fig = self.traced_setup_fit(tracer)
                metrics.update({name: fit_fig[name] for name in FIT_LAYER})
            traced_pipeline = median(f["pipeline_s"] for f in traced)
            metrics["trace.overhead_s"] = traced_pipeline - median(f["pipeline_s"] for f in plain)
            reason = self.w.reason_holds({
                **metrics, "pipeline_s": traced_pipeline,
                "sampler.gibbs_fit_calls": max(f["sampler.gibbs_fit_calls"] for f in traced)})
            units = {name: unit for name, unit, _better in PER_LAYER}
            absent = sorted(set(tracer.absent))
        else:
            fit_rates = ([f["fit_iters_per_s"] for f in plain] if not self.w.fit_in_setup
                         else [CHAINS * self.w.iters / fit_s for _w, fit_s in setups])
            metrics = {
                "pipeline_s": median(f["pipeline_s"] for f in plain),
                "fit_iters_per_s": median(fit_rates),
                "score_locs_per_s": median(len(self.ids) * len(self.w.scores) / f["score_s"]
                                           for f in plain),
                "characterize_s": median(f["characterize_s"] for f in plain),
                "setup_s": median(wall for wall, _fit in setups),
                "peak_rss_mb": peak_rss_mb(),
            }
            reason = None
            units = {name: unit for name, unit, _better in END_TO_END}
            absent = []

        environment = {
            "cores": cores(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: os.environ.get(k) for k in BLAS_ENV + (CLI_THREADS_ENV,)},
            "max_os_threads": self.max_threads,
            "git_revision": git_revision(),
            "source_sha256": source_sha256(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            # Mean speed of each set-up, then of the timed loop (untraced runs).
            "speeds": self.speeds,
            "probe": self.probe_record,
        }
        failed = len(self.bad)
        record = {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": self.trace, "sizes": {**self.w.synth, "iters": self.w.iters,
                                           "burnin": self.w.burnin, "chains": CHAINS},
            "correct": failed == 0, "attempted": self.attempted, "failed": failed,
            "error_rate": failed / self.attempted,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "reason": {"claim": self.w.reason, "holds": reason} if self.trace else None,
            "absent": absent,
            "problems": self.problems,
            "min_spearman": min(self.spearman) if self.spearman else None,
            "setups_s": [wall for wall, _fit in setups],
            "repetitions": {"untraced": plain, "traced": traced},
            "environment": environment,
        }
        atomic_write(OUT / "results" / f"{self.tag}.json",
                     json.dumps(record, indent=1, default=float) + "\n")
        if tracer:
            atomic_write(OUT / "spans" / f"{self.tag}.jsonl",
                         "".join(json.dumps(s) + "\n" for s in tracer.spans))
        self.summarize(record)
        return record

    def summarize(self, record: dict) -> None:
        env = record["environment"]
        lines = [
            f"workload {self.name}  seed {self.seed}  trace {int(self.trace)}  "
            f"repetitions {len(record['repetitions']['untraced'])} untraced, "
            f"{len(record['repetitions']['traced'])} traced",
            f"environment  cores {env['cores']}  python {env['python']}  numpy {env['numpy']}"
            f"  scipy {env['scipy']}  git {env['git_revision']}  "
            f"load {env['loadavg_before'][0]:.2f} -> {env['loadavg_after'][0]:.2f}",
            f"thread env   {env['thread_env']}  max OS threads {env['max_os_threads']}",
            "speed        " + "  ".join(f"{x:.3f}" for x in env["speeds"])
            + "  (set-ups, then timed loop; 1.0 = nominal)",
        ]
        for name, m in record["metrics"].items():
            lines.append(f"  {name:36s} {m['value']:.6g} {m['unit']}")
        lines.append(f"  {'error_rate':36s} {record['error_rate']:.6g} "
                     f"({record['failed']} of {record['attempted']} commands)")
        if record["min_spearman"] is not None:
            lines.append(f"  lowest Spearman vs analytic          {record['min_spearman']:.6f}")
        if record["reason"]:
            verdict = "holds" if record["reason"]["holds"] else "DOES NOT HOLD"
            lines.append(f"reason: {record['reason']['claim']}: {verdict}")
        for item in record["absent"]:
            lines.append(f"absent (reads 0): {item}")
        for item in record["problems"]:
            lines.append(f"problem: {item}")
        print("\n".join(lines), file=sys.stderr)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the harness self-test")
    args = parser.parse_args(argv)

    if not (SRC / "extrapolmv" / "__init__.py").is_file():
        print(f"error: no extrapolmv package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import extrapolmv

    if Path(extrapolmv.__file__).resolve().parent != (SRC / "extrapolmv").resolve():
        print(f"error: imported extrapolmv from {extrapolmv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    try:
        record = bench.run(t0)
    finally:
        bench.cleanup()
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
