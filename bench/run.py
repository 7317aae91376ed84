"""Closed-loop benchmark of the mortsurv command line.

One client runs the CLI subcommands in sequence through
``mortsurv.cli.main``, each call waiting for the one before it.  A round is
the pipeline ``ingest -> fit -> predict --curves -> diagnose``; rounds
repeat on the generated inputs until ``--seconds`` have passed, and every
end-to-end timing is the median over rounds, in reference seconds
(``calib.py``).  Workloads differ in which step carries the load (see
``SHAPES``).

    python3 bench/run.py --workload fit-continuous --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
plain rounds for half the time, then wraps each layer's public functions
(``spans.py``) and runs traced rounds; it prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it hold the full report (sample counts, percentiles, machine).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # this process's own import time counts from here

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# the imports main() makes, timed in a fresh interpreter
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import calib, checks, spans; "
    "print(time.perf_counter() - t)"
)
FIT_THREADS = 2
# The fit inputs do not follow --seed: the book and the sampler seed of
# each slice are fixed, so ESS is a property of the code alone and the ESS
# metrics vary between runs only through time.  ESS at these chain lengths
# differs between sampler seeds by up to 5x and between books by about
# 30%, which seed-dependent fits would carry into every run's figure.
BOOK_SEED = 20260819
FIT_SEED = 4001
GRID_POINTS = 120
# single-run figures from the ROADMAP baseline table, for the cross-check
ROADMAP_BASELINE = {
    "likelihood.coef_parts_us": 29.0,
    "likelihood.baseline_parts_us": 145.0,
    "mcmc.update_theta_us": 71.0,
    "mcmc.update_mu_us": 232.0,
    "mcmc.update_sigma2_us": 198.0,
    "ingest.performance_rows_per_s": 140_000.0,
}


@dataclass(frozen=True)
class FitShape:
    n_chains: int
    n_iters: int
    burn_in: int


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload.

    ``book_loans`` is the size of the simulated continuous book that
    ``fit`` samples on; 0 means ``fit`` samples on the ingest output of a
    fixed raw file pair of ``raw_loans`` loans, made in set-up.
    ``predict`` and ``diagnose`` give the (constant-path, step-path) loan
    counts of one slice of the scoring book.  Round r scores slice
    r mod ``SLICES`` and fits with sampler seed number r mod ``SLICES``, so
    a run's medians cover several loans and chains, not one draw of each.
    A plain run makes at least ``SLICES`` rounds, so its ESS figures cover
    every slice's fit.
    """

    book_loans: int
    fit: FitShape
    raw_loans: int
    predict: tuple[int, int]
    n_sims: int
    diagnose: tuple[int, int]
    draws: tuple[int, int]  # chains x draws per chain of the fixed draw file
    clear_effects: bool


SLICES = 8
# Each workload stresses one layer and keeps the other steps small, so that
# every end-to-end metric exists on every workload.
SHAPES = {
    # likelihood + mcmc: the criterion-4 book, every exit time distinct
    "fit-continuous": Shape(
        book_loans=2000, fit=FitShape(4, 500, 250), raw_loans=300, predict=(2, 0),
        n_sims=100, diagnose=(3, 0), draws=(4, 25), clear_effects=True,
    ),
    # ingest + fileio, and the likelihood at wide coef_parts with few distinct times
    "book-monthly": Shape(
        book_loans=0, fit=FitShape(4, 200, 100), raw_loans=3000, predict=(2, 0),
        n_sims=100, diagnose=(3, 0), draws=(4, 25), clear_effects=False,
    ),
    # predict + diagnostics on a 400-draw file, half the loans on step paths
    "score": Shape(
        book_loans=600, fit=FitShape(4, 200, 100), raw_loans=300, predict=(2, 2),
        n_sims=100, diagnose=(2, 2), draws=(4, 100), clear_effects=False,
    ),
}


def smoke_shape(shape: Shape) -> Shape:
    """Every step at a size that runs in about a second."""
    return replace(
        shape,
        book_loans=min(shape.book_loans, 150),
        fit=FitShape(2, 40, 20),
        raw_loans=min(shape.raw_loans, 150),
        predict=(1, 0),
        n_sims=50,
        diagnose=(1, 0),
        draws=(2, 10),
        clear_effects=False,  # 150 loans and 40 sweeps do not pin down signs
    )


def _percentile_summary(xs: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(xs), "n": len(xs)}
    for q in (99.9, 99, 95, 90, 75, 50):
        if len(xs) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = statistics.quantiles(xs, n=1000, method="inclusive")[round(q * 10) - 1]
            break
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    import mortsurv

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    blas = {}
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mortsurv": mortsurv.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


@dataclass
class Round:
    """Wall time of each subcommand of one round, and the machine speed
    measured before the first and after each call (``calib.speed``)."""

    speeds: list[float]
    wall: dict[str, float] = field(default_factory=dict)

    def reference_s(self) -> dict[str, float]:
        """Each call's wall time in reference seconds: scaled by the mean
        speed measured on either side of it."""
        return {
            op: t * 0.5 * (self.speeds[i] + self.speeds[i + 1])
            for i, (op, t) in enumerate(self.wall.items())
        }

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)


class Run:
    """One workload run: set-up, timed rounds, checks, report."""

    def __init__(self, shape: Shape, seed: int, work: Path):
        import numpy as np

        self.shape = shape
        self.seed = seed
        self.work = work
        raw_seed, score_seed, *predict_seeds = (
            int(x) for x in np.random.SeedSequence([seed, 20260819]).generate_state(2 + SLICES)
        )
        self.seeds = {"raw": raw_seed, "score": score_seed}
        # predict seeds each loan's stream from (--seed, index in the file),
        # so every slice gets its own --seed: with one seed for all, the
        # loans at the same index in different slices would share their
        # uniforms, and the pooled predict check assumes independent loans
        self.predict_seeds = predict_seeds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        # ESS of each slice's fit: lowest over all parameters, median over slopes
        self.ess: dict[int, tuple[float, float]] = {}
        self.predict_pool: dict[str, tuple] = {}  # loan id -> classify counts
        self.tracer = None

    # --- set-up -----------------------------------------------------------------

    def setup(self) -> None:
        """Generate every input file; the program sees only these files."""
        import gen
        from mortsurv import fileio

        shape, d = self.shape, self.work / "inputs"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        if shape.book_loans:
            gen.write_simulate_config(d / "simulate.json", shape.book_loans, BOOK_SEED)
            argv = ["simulate", "--config", str(d / "simulate.json"), "--out-dir", str(d / "book")]
        else:
            gen.write_raw_pair(d / "book_orig.txt", d / "book_perf.txt", shape.raw_loans, BOOK_SEED)
            argv = ["ingest", "--origination", str(d / "book_orig.txt"),
                    "--performance", str(d / "book_perf.txt"), "--data-end", gen.DATA_END,
                    "--out-dir", str(d / "book")]
        rc, output = self._cli(argv)
        if rc != 0:
            raise RuntimeError(f"{argv[0]} failed with exit code {rc}: {output}")
        self.raw = gen.write_raw_pair(
            d / "orig.txt", d / "perf.txt", shape.raw_loans, self.seeds["raw"]
        )
        n = 4 * SLICES * (sum(shape.predict) + sum(shape.diagnose)) + 16
        book = gen.scoring_book(n, self.seeds["score"])
        loans = book.loans
        # the book alternates constant and step paths; predict takes the first
        # half, diagnose the terminated loans of the second
        half = [loans[: n // 2], [x for x in loans[n // 2 :] if x.status.risk is not None]]
        for name, (n_const, n_step), pool in zip(("predict", "diagnose"), (shape.predict, shape.diagnose), half):
            const = [x for x in pool if x.covariates.m == 1]
            step = [x for x in pool if x.covariates.m > 1]
            for k in range(SLICES):
                picked = const[k * n_const : (k + 1) * n_const] + step[k * n_step : (k + 1) * n_step]
                fileio.write_dataset_csv(replace(book, loans=tuple(picked)), d / f"{name}{k}.csv")
        fileio.write_draws_csv(gen.fixed_draws(*shape.draws, self.seeds["score"]), d / "draws.csv")
        for k in range(SLICES):
            sampler = {**asdict(shape.fit), "thin": 1, "seed": FIT_SEED + k}
            (d / f"fit{k}.json").write_text(json.dumps({"sampler": sampler}, sort_keys=True) + "\n")

    # --- rounds -----------------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        """Run one subcommand in this process; returns (exit code, its output)."""
        from mortsurv import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        return rc, sink.getvalue()

    def ops(self, out: Path, k: int) -> list[tuple[str, list[str]]]:
        import gen

        d, s = self.work / "inputs", self.shape
        return [
            ("ingest", ["ingest", "--origination", str(d / "orig.txt"),
                        "--performance", str(d / "perf.txt"), "--data-end", gen.DATA_END,
                        "--out-dir", str(out / "ingest")]),
            ("fit", ["fit", "--dataset", str(d / "book" / "dataset.csv"), "--config", str(d / f"fit{k}.json"),
                     "--allow-nonconverged", "--threads", str(FIT_THREADS),
                     "--out-dir", str(out / "fit")]),
            ("predict", ["predict", "--dataset", str(d / f"predict{k}.csv"),
                         "--draws", str(d / "draws.csv"), "--n-sims", str(s.n_sims),
                         "--seed", str(self.predict_seeds[k]), "--curves", "--grid-points", str(GRID_POINTS),
                         "--out-dir", str(out / "predict")]),
            ("diagnose", ["diagnose", "--dataset", str(d / f"diagnose{k}.csv"),
                          "--draws", str(d / "draws.csv"), "--out-dir", str(out / "diagnose")]),
        ]

    def round(self, run_id: str, index: int) -> Round:
        """One closed-loop pass, with a speed calibration around each call."""
        import calib

        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        k = index % SLICES
        ops = self.ops(out, k)
        if self.tracer is not None:
            self.tracer.run_id = run_id
        result = Round(speeds=[calib.speed()])
        for op, argv in ops:
            # each subcommand is a fresh process in real use, so it should
            # not pay for collecting the garbage of the calls before it
            gc.collect()
            start = time.perf_counter()
            rc, output = self._cli(argv)
            result.wall[op] = time.perf_counter() - start
            result.speeds.append(calib.speed())
            self.attempted += 1
            if rc != 0:
                self._fail(f"{run_id} {op}: exit code {rc}: {output.strip()[-300:]}")
        if self.tracer is not None:
            self.tracer.run_id = f"{run_id}.check"
        for op, _ in ops:
            # traced round 0 checks in full again, so the trace times the checks' calls
            self.verify(op, out / op, k, again=run_id == "t0")
        return result

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def verify(self, op: str, out: Path, k: int, again: bool) -> None:
        """Check one subcommand's outputs in full the first time its inputs
        are seen; after that the outputs must repeat byte for byte."""
        import checks

        if not out.is_dir():
            return  # the call itself failed and is already counted
        key = (op, 0 if op == "ingest" else k)
        try:
            problems = self._check(op, out, k) if key not in self.reference or again else []
            self.reference.setdefault(key, checks.digest(out))
            if checks.digest(out) != self.reference[key]:
                problems.append("output differs from the first run of the same inputs")
        except Exception as exc:  # a crashing check is a failed operation
            problems = [f"check raised {exc!r}"]
        if problems:
            self._fail(f"{op}: " + "; ".join(problems))

    def _check(self, op: str, out: Path, k: int) -> list[str]:
        import checks

        d, s = self.work / "inputs", self.shape
        if op == "ingest":
            return checks.check_ingest(out, self.raw)
        if op == "fit":
            self.ess[k] = checks.fit_ess(out)
            return checks.check_fit(out, s.clear_effects)
        if op == "predict":
            return checks.check_predict(
                out, d / f"predict{k}.csv", d / "draws.csv", s.n_sims, GRID_POINTS,
                self.predict_seeds[k], self.predict_pool,
            )
        return checks.check_diagnose(
            out, d / f"diagnose{k}.csv", d / "draws.csv", probe_moments=self.tracer is not None
        )


def import_seconds() -> float:
    """Wall time of the benchmark's imports in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def rounds_until(run: Run, deadline: float, prefix: str, at_least: int = 1) -> list[Round]:
    """Rounds until the deadline passes and ``at_least`` rounds are done."""
    out = []
    while len(out) < at_least or time.perf_counter() < deadline:
        out.append(run.round(f"{prefix}{len(out)}", len(out)))
    return out


def end_to_end(run: Run, times: list[dict[str, float]], setup_s: float) -> dict:
    """The end-to-end metrics from each round's time per subcommand.

    ESS figures are means over the fits of every slice, each counted once,
    divided by the median fit time.
    """
    by_op = {op: statistics.median(t[op] for t in times) for op in times[0]}
    ess = list(run.ess.values()) or [(0.0, 0.0)]  # empty only if every fit failed
    min_ess, slope_ess = (statistics.fmean(e) for e in zip(*ess))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(t.values()) for t in times), "s"),
        "fit_s": (by_op["fit"], "s"),
        "min_ess_per_s": (min_ess / by_op["fit"], "1/s"),
        "slope_ess_per_s": (slope_ess / by_op["fit"], "1/s"),
        "ingest_rows_per_s": (run.raw.performance_rows / by_op["ingest"], "rows/s"),
        "predict_loans_per_s": (sum(run.shape.predict) / by_op["predict"], "loans/s"),
        "diagnose_loans_per_s": (sum(run.shape.diagnose) / by_op["diagnose"], "loans/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mortsurv" / "__init__.py").is_file():
        print(f"error: no mortsurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import calib  # imports numpy and scipy
    import checks  # imports mortsurv
    import spans

    # imports are mostly file reads and unmarshalling, whose time does not
    # follow the calibration kernels, so they stay in wall seconds.  The
    # import time of this one process varies by half between processes, so
    # set-up counts the median over fresh interpreters instead.
    own_import_s = time.perf_counter() - T_START
    import_s = statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))

    shape = SHAPES[args.workload]
    if args.smoke:
        shape = smoke_shape(shape)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run = Run(shape, args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    try:
        setups = []
        before = calib.speed()
        for k in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.install()
                tracer.run_id = f"setup{k}"
            start = time.perf_counter()
            run.setup()
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            after = calib.speed()
            setups.append(Round(speeds=[before, after], wall={"setup": wall}))
            before = after
        setup_s = import_s + statistics.median(r.reference_s()["setup"] for r in setups)

        start = time.perf_counter()
        deadline = start + (args.seconds / 2 if args.trace else args.seconds)
        plain = rounds_until(run, deadline, "r", 1 if args.trace else SLICES)
        traced = []
        if tracer is not None:
            tracer.install()
            run.tracer = tracer
            traced = rounds_until(run, start + args.seconds, "t")
            tracer.uninstall()
            run.tracer = None
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.csv")
        pooled = checks.check_pooled_predict(run.predict_pool.values())
        if pooled:
            run._fail("predict, pooled over the run: " + "; ".join(pooled))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    def summary(rounds: list[Round]) -> dict:
        ref = [r.reference_s() for r in rounds]
        return {
            "reference_s": {op: _percentile_summary([t[op] for t in ref]) for op in ref[0]}
            | {"round": _percentile_summary([sum(t.values()) for t in ref])},
            "wall_s": {op: _percentile_summary([r.wall[op] for r in rounds]) for op in ref[0]},
            "speed": _percentile_summary([r.speed for r in rounds]),
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "loop": "closed, one client, CLI subcommands in sequence",
        "shape": asdict(shape),
        "machine": machine_record(),
        "setup": {"import_s": import_s, "own_import_s": own_import_s, **summary(setups)},
        "rounds": summary(plain),
        "problems": run.problems,
    }
    if tracer is None:
        metrics = end_to_end(run, [r.reference_s() for r in plain], setup_s)
        # the same figures from raw wall seconds, to show what calibration buys
        wall_setup_s = import_s + statistics.median(r.wall["setup"] for r in setups)
        report["end_to_end_wall"] = {
            k: v for k, (v, _) in end_to_end(run, [r.wall for r in plain], wall_setup_s).items()
        }
        report["ess"] = {
            f"slice{k}": {"min": e[0], "slope_median": e[1]} for k, e in sorted(run.ess.items())
        }
    else:
        speeds = {f"t{i}": r.speed for i, r in enumerate(traced)}
        speeds |= {f"setup{k}": r.speed for k, r in enumerate(setups)}
        layers = spans.layer_metrics(
            tracer.spans(), [f"t{i}" for i in range(len(traced))],
            [f"setup{k}" for k in range(SETUP_REPEATS)], shape, speeds,
        )
        plain_wall = statistics.median(sum(r.reference_s().values()) for r in plain)
        traced_wall = statistics.median(sum(r.reference_s().values()) for r in traced)
        layers["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, len(traced), "ratio")
        metrics = {k: (v, unit) for k, (v, n, unit) in layers.items()}
        report["per_layer"] = {
            k: {"value": v, "n": n, "unit": u, "moves": spans.moves(k)} for k, (v, n, u) in layers.items()
        }
        report["tracing"] = {
            "plain_round_s": plain_wall, "traced_round_s": traced_wall,
            "plain_rounds": len(plain), "traced_rounds": len(traced),
            "spans": len(tracer.records), "missing_hooks": tracer.missing,
            "traced": summary(traced),
        }
        report["roadmap_baseline"] = {
            k: {"baseline": b, "measured": layers[k][0], "ratio": layers[k][0] / b}
            for k, b in ROADMAP_BASELINE.items()
        }
    print(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
