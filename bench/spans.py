"""Span tracing around the calls into each layer's public functions.

The traced run installs wrappers, from this file, on the public functions
the CLI subcommands call (and on the methods of ``PortfolioLikelihood``),
replacing every binding of the original function object inside the
``mortsurv`` package, so ``from .x import f`` bindings are covered too.
The program itself is unchanged: it makes the same calls in the same
order, and each call leaves one span.

A span records its name, start and end (``perf_counter_ns``), its busy
time (the calling thread's CPU time, which leaves out waits for the GIL),
the span that caused it, the run id (set-up, round or a round's checks)
and optional counts taken from the call's arguments or result.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field, replace

# layers in the order the pipeline reaches them; ``model`` holds the
# closed-form kernels and is timed through ``likelihood`` and ``predict``
LAYERS = ("cli", "synth", "fileio", "ingest", "likelihood", "mcmc", "predict", "diagnostics")


FIT_WORKLOADS = ("fit-continuous", "book-monthly")
# which end-to-end metric each per-layer metric should move, and on which
# workloads; the first matching name prefix wins
LAYER_MAP = (
    ("synth.", ("setup_s",), ("fit-continuous", "score")),
    ("fileio.read_dataset_s", ("fit_s",), FIT_WORKLOADS),
    ("fileio.write_draws_s", ("fit_s",), FIT_WORKLOADS),
    ("fileio.read_draws_s", ("predict_loans_per_s", "diagnose_loans_per_s"), ("score",)),
    ("fileio.write_dataset_s", ("ingest_rows_per_s",), ("book-monthly",)),
    ("ingest.", ("ingest_rows_per_s", "peak_rss_mb"), ("book-monthly",)),
    ("likelihood.", ("fit_s", "min_ess_per_s", "slope_ess_per_s"), FIT_WORKLOADS),
    ("mcmc.", ("fit_s", "min_ess_per_s", "slope_ess_per_s"), FIT_WORKLOADS),
    ("predict.", ("predict_loans_per_s",), ("score",)),
    ("diagnostics.", ("diagnose_loans_per_s",), ("score",)),
    ("trace.", ("wall_s",), ("fit-continuous", "book-monthly", "score")),
)


def moves(metric: str) -> dict:
    """The end-to-end metrics and workloads a per-layer metric should move."""
    if metric.endswith(".self_s"):
        return {"metrics": ["wall_s"], "workloads": ["fit-continuous", "book-monthly", "score"]}
    for prefix, e2e, workloads in LAYER_MAP:
        if metric.startswith(prefix):
            return {"metrics": list(e2e), "workloads": list(workloads)}
    raise KeyError(metric)


def _rows(args, result):
    records, rejects = result
    return {"rows": len(records) + len(rejects), "rejects": len(rejects)}


def _likelihood_shape(args, result):
    like = args[0]
    return {
        "n_segments": like.n_segments,
        "n_distinct_times": len({loan.time for loan in like.dataset.loans}),
    }


def _sampler_stats(args, result):
    return {f"accept.{b}": float(v.mean()) for b, v in result.acceptance.items()}


def _summary_stats(args, rows):
    def group(row):
        if row.name.startswith(("mu_", "sigma2_")):
            return row.name.split("_")[0]
        return "intercept" if row.name.endswith(":intercept") else "slope"

    out = {"min_ess": min(r.ess for r in rows), "max_rhat": max(r.rhat for r in rows)}
    for r in rows:
        key = f"ess_min.{group(r)}"
        out[key] = min(out.get(key, float("inf")), r.ess)
    return out


def _classify_stats(args, result):
    return {"n_sims": result.n_sims, "n_horizon_capped": result.n_horizon_capped}


# (module, attribute, observer); an observer maps a call's positional
# arguments and result to the counts its span records
HOOKS = (
    ("cli", "main", None),
    ("synth", "make_benchmark", None),
    ("fileio", "read_dataset_csv", None),
    ("fileio", "write_dataset_csv", None),
    ("fileio", "read_draws_csv", None),
    ("fileio", "write_draws_csv", None),
    ("fileio", "write_summary_csv", None),
    ("fileio", "write_acceptance_csv", None),
    ("ingest", "ingest_portfolio", None),
    ("ingest", "read_origination_file", _rows),
    ("ingest", "read_performance_file", _rows),
    ("likelihood", "PortfolioLikelihood.__init__", _likelihood_shape),
    ("likelihood", "PortfolioLikelihood.coef_parts", None),
    ("likelihood", "PortfolioLikelihood.baseline_parts", None),
    ("mcmc", "run_sampler", _sampler_stats),
    ("mcmc", "run_chain", None),
    ("mcmc", "update_theta", None),
    ("mcmc", "update_mu", None),
    ("mcmc", "update_sigma2", None),
    ("mcmc", "summarize", _summary_stats),
    ("predict", "classify", _classify_stats),
    ("predict", "predictive_reliability", None),
    ("predict", "predictive_density", None),
    ("diagnostics", "coverage_report", None),
    ("diagnostics", "loan_diagnostics", None),
    ("diagnostics", "predictive_moments", None),
    ("diagnostics", "observed_quantile", None),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    busy_ns: int  # CPU time of the calling thread, so waits for the GIL are left out
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9

    @property
    def busy(self) -> float:
        return self.busy_ns * 1e-9


class Tracer:
    """Records spans; ``install`` wraps the hooks, ``uninstall`` undoes it.

    Parents are tracked per thread.  A span opened on a worker thread with
    no open span of its own (a chain on the sampler's pool) takes the
    innermost open span of the main thread as its parent.  The wrapper
    stores plain tuples, which are cheap to make; ``spans`` turns them
    into ``Span`` records.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.run_id = "setup"
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observer=None):
        ids, stacks, records, main = self._ids, self._stacks, self.records, self._main
        get_ident, clock, cpu = threading.get_ident, time.perf_counter_ns, time.thread_time_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks.setdefault(get_ident(), [])
            outer = stack or stacks.get(main)
            parent = outer[-1] if outer else None
            span_id = next(ids)
            stack.append(span_id)
            start, busy = clock(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy, end = cpu() - busy, clock()
                stack.pop()
            counts = observer(args, result) if observer is not None else None
            records.append((span_id, parent, name, start, end, busy, tracer.run_id, counts))
            return result

        return traced

    def spans(self) -> list[Span]:
        return [Span(*r[:7], r[7] or {}) for r in sorted(self.records)]

    def install(self) -> None:
        for module_name, attr, observer in HOOKS:
            module = importlib.import_module(f"mortsurv.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, fn_name, None)
            name = f"{module_name}.{fn_name if fn_name != '__init__' else owner_name}"
            if original is None:
                self.missing.append(name)
                continue
            traced = self.wrap(name, original, observer)
            if owner_name:
                self._patch(owner, fn_name, traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("mortsurv") and getattr(mod, fn_name, None) is original:
                    self._patch(mod, fn_name, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """All spans as CSV: id, parent, name, start/end ns, busy ns, run id, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent,name,start_ns,end_ns,busy_ns,run_id,counts\n")
            for s in self.spans():
                counts = ";".join(f"{k}={v!r}" for k, v in s.counts.items())
                parent = "" if s.parent is None else s.parent
                fh.write(
                    f"{s.span_id},{parent},{s.name},{s.start_ns},{s.end_ns},{s.busy_ns},{s.run_id},{counts}\n"
                )


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        edge = s.start_ns
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, edge), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.span_id] = (s.end_ns - s.start_ns - covered) * 1e-9
    return out


def layer_metrics(spans: list[Span], rounds: list[str], setups: list[str], shape,
                  speeds: dict[str, float]) -> dict:
    """Per-layer numbers from the spans of traced rounds and set-ups.

    Per-call figures are medians over every call in the traced rounds and
    their output checks (run id ``<round>.check``, which is where
    ``predictive_moments`` and ``observed_quantile`` are called), taken
    over busy time.  Per-round figures are medians over rounds of a
    per-round wall-time total and leave the checks out.  All durations are
    in reference seconds: scaled by the machine speed ``speeds`` measured
    during their round.  Returns {metric: (value, sample count, unit)}.
    """
    checks = [f"{r}.check" for r in rounds]
    by_round: dict[str, list[Span]] = {r: [] for r in rounds + checks + setups}
    for s in spans:
        if s.run_id in by_round:
            # one factor per round keeps the spans of a round nested as recorded
            f = speeds[s.run_id.split(".")[0]]
            by_round[s.run_id].append(
                replace(s, start_ns=round(s.start_ns * f), end_ns=round(s.end_ns * f),
                        busy_ns=round(s.busy_ns * f))
            )
    traced = [s for r in rounds + checks for s in by_round[r]]

    def calls(name):
        return [s for s in traced if s.name == name]

    def median(xs):
        return (statistics.median(xs), len(xs)) if xs else (0.0, 0)

    def per_call(name, scale):
        return median([s.busy * scale for s in calls(name)])

    def per_round(names, of=lambda group: sum(s.seconds for s in group), runs=rounds):
        return median([of([s for s in by_round[r] if s.name in names]) for r in runs])

    def counted(name, key):
        return median([s.counts[key] for s in calls(name) if key in s.counts])

    def rate(name, key):
        return median([s.counts[key] / s.busy for s in calls(name)])

    m = {}
    m["synth.make_benchmark_s"] = (*per_round({"synth.make_benchmark"}, runs=setups), "s")
    for fn in ("read_dataset", "write_dataset", "read_draws", "write_draws"):
        m[f"fileio.{fn}_s"] = (*per_round({f"fileio.{fn}_csv"}), "s")

    m["ingest.origination_rows_per_s"] = (*rate("ingest.read_origination_file", "rows"), "rows/s")
    m["ingest.performance_rows_per_s"] = (*rate("ingest.read_performance_file", "rows"), "rows/s")
    m["ingest.portfolio_s"] = (*per_call("ingest.ingest_portfolio", 1.0), "s")
    reads = [s for s in traced if s.name.startswith("ingest.read_")]
    m["ingest.reject_frac"] = (
        sum(s.counts["rejects"] for s in reads) / max(1, sum(s.counts["rows"] for s in reads)),
        len(reads), "ratio",
    )

    m["likelihood.build_s"] = (*per_call("likelihood.PortfolioLikelihood", 1.0), "s")
    for key in ("n_segments", "n_distinct_times"):
        m[f"likelihood.{key}"] = (*counted("likelihood.PortfolioLikelihood", key), "count")
    for part in ("coef_parts", "baseline_parts"):
        m[f"likelihood.{part}_us"] = (*per_call(f"likelihood.{part}", 1e6), "us")

    for block in ("theta", "mu", "sigma2"):
        m[f"mcmc.update_{block}_us"] = (*per_call(f"mcmc.update_{block}", 1e6), "us")
    chain_s, n_chain = per_call("mcmc.run_chain", 1.0)
    m["mcmc.chain_s"] = (chain_s, n_chain, "s")
    m["mcmc.sweeps_per_s"] = (shape.fit.n_iters / chain_s if chain_s else 0.0, n_chain, "1/s")
    sampler_s, n_sampler = median([s.seconds for s in calls("mcmc.run_sampler")])
    m["mcmc.pool_speedup"] = (
        shape.fit.n_chains * chain_s / sampler_s if sampler_s else 0.0, n_sampler, "ratio"
    )
    for block in ("theta_default", "theta_prepay", "mu_default", "mu_prepay",
                  "sigma2_default", "sigma2_prepay"):
        m[f"mcmc.accept.{block}"] = (*counted("mcmc.run_sampler", f"accept.{block}"), "ratio")
    m["mcmc.min_ess"] = (*counted("mcmc.summarize", "min_ess"), "count")
    m["mcmc.max_rhat"] = (*counted("mcmc.summarize", "max_rhat"), "ratio")
    for group in ("mu", "sigma2", "intercept", "slope"):
        m[f"mcmc.ess_min.{group}"] = (*counted("mcmc.summarize", f"ess_min.{group}"), "count")
    m["mcmc.summarize_s"] = (*per_call("mcmc.summarize", 1.0), "s")

    m["predict.classify_ms"] = (*per_call("predict.classify", 1e3), "ms")
    m["predict.sims_per_s"] = (*rate("predict.classify", "n_sims"), "1/s")
    m["predict.curves_ms"] = (
        *per_round(
            {"predict.predictive_reliability", "predict.predictive_density"},
            of=lambda g: 1e3 * sum(s.busy for s in g) / sum(shape.predict),
        ),
        "ms",
    )
    classified = calls("predict.classify")
    m["predict.horizon_capped_frac"] = (
        sum(s.counts["n_horizon_capped"] for s in classified)
        / max(1, sum(2 * s.counts["n_sims"] for s in classified)),
        len(classified), "ratio",
    )

    m["diagnostics.loan_ms"] = (*per_call("diagnostics.loan_diagnostics", 1e3), "ms")
    m["diagnostics.moments_ms"] = (*per_call("diagnostics.predictive_moments", 1e3), "ms")
    m["diagnostics.quantile_us"] = (*per_call("diagnostics.observed_quantile", 1e6), "us")

    own = self_seconds([s for r in rounds for s in by_round[r]])
    for layer in LAYERS:
        if layer == "synth":
            continue  # runs only in set-up; make_benchmark_s covers it
        m[f"{layer}.self_s"] = (
            *per_round(
                {s.name for s in traced if s.name.split(".")[0] == layer},
                of=lambda g: sum(own[s.span_id] for s in g),
            ),
            "s",
        )
    return m
