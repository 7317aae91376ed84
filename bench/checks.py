"""Output checks, run outside the timed region.

Each check returns a list of problems (empty when the output is right).
A round gets every check the first time it sees its inputs; a later round
on the same inputs repeats the same commands with the same seeds, so its
outputs must be byte-identical, which ``digest`` checks cheaply.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from pathlib import Path

import numpy as np

from mortsurv import diagnostics, fileio, synth
from mortsurv.model import RiskKind
from mortsurv.predict import DEFAULT_HORIZON_FACTOR

import gen

# two-sided z bound on a Monte Carlo difference; a false alarm per check
# is about 6e-7
_Z = 5.0
_REFERENCE_SIMS = 2000


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def digest(out_dir: Path) -> str:
    """sha256 over every file under ``out_dir``, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_ingest(out_dir: Path, raw: gen.RawBook) -> list[str]:
    """Labels, times, reasons and reject count equal the generator's."""
    problems = []
    got = {
        r["loan_id"]: (r["status"], float(r["time"]) if r["time"] else None, r["reason"])
        for r in _rows(out_dir / "classified.csv")
    }
    if set(got) != set(raw.labels):
        problems.append(f"classified loans differ: {len(set(got) ^ set(raw.labels))} ids")
    wrong = [k for k in got.keys() & raw.labels.keys() if got[k] != raw.labels[k]]
    if wrong:
        k = sorted(wrong)[0]
        problems.append(f"{len(wrong)} labels differ, e.g. {k}: {got[k]} != {raw.labels[k]}")
    n_rejects = len(_rows(out_dir / "rejects.csv"))
    if n_rejects != raw.rejected_rows:
        problems.append(f"{n_rejects} rejected rows, generator wrote {raw.rejected_rows}")
    kept = sum(1 for v in raw.labels.values() if v[0] != "excluded")
    n_dataset = len({r["loan_id"] for r in _rows(out_dir / "dataset.csv")})
    if n_dataset != kept:
        problems.append(f"dataset holds {n_dataset} loans, generator labelled {kept}")
    return problems


def fit_summary(out_dir: Path) -> dict[str, dict[str, float]]:
    return {
        r["parameter"]: {k: float(v) for k, v in r.items() if k != "parameter"}
        for r in _rows(out_dir / "summary.csv")
    }


def fit_ess(out_dir: Path) -> tuple[float, float]:
    """Lowest ESS over all parameters, and the median ESS over the slopes
    (every ``theta`` coefficient but the intercepts)."""
    summary = fit_summary(out_dir)
    slopes = [
        row["ess"] for name, row in summary.items()
        if name.startswith("theta_") and not name.endswith(":intercept")
    ]
    return min(row["ess"] for row in summary.values()), statistics.median(slopes)


def check_fit(out_dir: Path, clear_effects: bool) -> list[str]:
    """Summaries are finite; with ``clear_effects`` the signs are right."""
    problems = []
    summary = fit_summary(out_dir)
    bad = [name for name, row in summary.items() if not all(map(math.isfinite, row.values()))]
    if bad:
        problems.append(f"non-finite summaries for {bad}")
    if clear_effects:
        for name, sign in gen.CLEAR_EFFECTS:
            if name not in summary or summary[name]["mean"] * sign <= 0.0:
                problems.append(f"{name} has the wrong sign")
    return problems


def reference_outcomes(path, samples, maturity: float, rng: np.random.Generator) -> np.ndarray:
    """Default/prepay/mature frequencies by exact per-draw inversion.

    ``classify`` draws each risk's latent time from that risk's own
    posterior predictive law, the draw-averaged survival, independently of
    the other risk.  The reference samples the same law without bisection:
    for each risk on its own it picks a draw uniformly and inverts that
    draw's survival in closed form (``synth.invert_survival``); then it
    races the two times to maturity.  The law in which one draw serves
    both risks differs from this one only through correlation between a
    draw's default and prepay parameters.  ``gen.fixed_draws`` jitters the
    two independently, as this model's posterior, which factorises over
    the risks, would; so on the benchmark's draw file the two laws agree
    and the check does not tell them apart.
    """
    counts = np.zeros(3)
    for _ in range(_REFERENCE_SIMS):
        t = []
        for risk in (RiskKind.DEFAULT, RiskKind.PREPAY):
            params = samples.params_at(int(rng.integers(0, samples.n_draws)))
            t.append(synth.invert_survival(path, params.theta(risk), params.baseline(risk), rng.uniform()))
        if min(t) >= maturity:
            counts[2] += 1
        else:
            counts[0 if t[0] <= t[1] else 1] += 1
    return counts / _REFERENCE_SIMS


def _outcome_z(observed, expected, variance) -> np.ndarray:
    return np.abs(observed - expected) / np.sqrt(np.maximum(variance, 1e-12))


def check_predict(out_dir: Path, dataset_path: Path, draws_path: Path, n_sims: int,
                  grid_points: int, seed: int, pool: dict) -> list[str]:
    """Probabilities sum to exactly 1 and agree with the exact reference.

    Each loan alone is tested at ``_Z`` Monte Carlo sigma, which at 100
    sims per loan allows about +-0.25 per probability.  Its counts and
    reference also go into ``pool``, keyed by loan id, for
    ``check_pooled_predict``.
    """
    problems = []
    dataset = fileio.read_dataset_csv(dataset_path)
    samples = fileio.read_draws_csv(draws_path)
    rows = {r["loan_id"]: r for r in _rows(out_dir / "classification.csv")}
    # predict keys each loan's stream by its index; this key is past any index
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1 << 20,)))
    for loan in dataset.loans:
        row = rows.get(loan.loan_id)
        if row is None:
            problems.append(f"{loan.loan_id}: not classified")
            continue
        p = np.array([float(row[k]) for k in ("p_default", "p_prepay", "p_mature")])
        if p[0] + p[1] + p[2] != 1.0 or int(row["n_sims"]) != n_sims:
            problems.append(f"{loan.loan_id}: probabilities {p} do not sum to 1 over {n_sims}")
        ref = reference_outcomes(loan.covariates, samples, loan.maturity, rng)
        counts = np.round(p * n_sims)
        pool[loan.loan_id] = (counts, n_sims, ref)
        z = _outcome_z(counts, n_sims * ref, _variance(counts, n_sims, ref))
        if np.any(z > _Z):
            problems.append(f"{loan.loan_id}: p {p} vs exact reference {ref} (z {z})")
        curve = _rows(out_dir / "curves" / f"{loan.loan_id}.csv")
        values = np.array([[float(v) for v in r.values()] for r in curve])
        if len(curve) != grid_points or not np.all(np.isfinite(values)):
            problems.append(f"{loan.loan_id}: curve file malformed")
    return problems


def _variance(counts, n_sims: int, ref) -> np.ndarray:
    """Variance of counts - n_sims * ref, from both samples' binomial noise,
    at the pooled frequency (plus one pseudo-count per outcome)."""
    q = (counts + ref * _REFERENCE_SIMS + 1.0) / (n_sims + _REFERENCE_SIMS + 2.0)
    return q * (1.0 - q) * (n_sims + n_sims**2 / _REFERENCE_SIMS)


def check_pooled_predict(pool) -> list[str]:
    """One test over every loan the run classified: summed counts against
    summed reference expectations, at ``_Z`` sigma.  The variance assumes
    that no two loans share random numbers, in ``predict`` or in the
    reference, so each slice must be classified and checked under its own
    seed.  With 16 loans at 100
    sims this resolves a shift of about 0.06 in the mean probability, with
    32 loans about 0.045."""
    pool = list(pool)
    if not pool:
        return []
    observed = sum(c for c, _, _ in pool)
    expected = sum(n * ref for _, n, ref in pool)
    z = _outcome_z(observed, expected, sum(_variance(c, n, ref) for c, n, ref in pool))
    if np.any(z > _Z):
        return [f"{len(pool)} loans: counts {observed} vs reference {expected} (z {z})"]
    return []


def check_diagnose(out_dir: Path, dataset_path: Path, draws_path: Path,
                   probe_moments: bool) -> list[str]:
    """Quantiles equal ``observed_quantile``; coverage adds up.

    With ``probe_moments`` also evaluates each loan's predictive moments
    through the public ``predictive_moments``, so a traced run times it.
    """
    problems = []
    dataset = fileio.read_dataset_csv(dataset_path)
    samples = fileio.read_draws_csv(draws_path)
    rows = {r["loan_id"]: r for r in _rows(out_dir / "residuals.csv")}
    terminated = [loan for loan in dataset.loans if loan.status.risk is not None]
    if set(rows) != {loan.loan_id for loan in terminated}:
        problems.append("residual rows do not match the terminated loans")
    for loan in terminated:
        row = rows.get(loan.loan_id)
        expected = diagnostics.observed_quantile(loan, samples)
        if row is not None and float(row["quantile"]) != expected:
            problems.append(f"{loan.loan_id}: quantile {row['quantile']} != {expected!r}")
        if probe_moments:
            diagnostics.predictive_moments(
                loan.covariates, samples, loan.status.risk, DEFAULT_HORIZON_FACTOR * loan.maturity
            )
    coverage = _rows(out_dir / "coverage.csv")
    hits = sum(int(r["in_interval"]) for r in rows.values())
    if sum(int(r["n_loans"]) for r in coverage) != len(rows) or sum(
        int(r["n_hits"]) for r in coverage
    ) != hits:
        problems.append("coverage counts do not add up to the residual rows")
    return problems
