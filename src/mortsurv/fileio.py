"""Readers and writers for every on-disk format the package speaks.

Every output file goes through ``write_csv`` or ``write_json``, so all
writers are deterministic: fields are emitted in fixed order, floats
use shortest round-trip repr, CSV rows end in a bare newline, and JSON
is sorted and indented.  Reading back what was written reproduces the
in-memory objects except where noted (posterior draw files do not carry
sampler statistics).
"""

from __future__ import annotations

import csv
import json
import typing

import numpy as np

from .mcmc import ParamSummary, PosteriorSamples, PriorSpec, SamplerConfig, param_names
from .model import (
    CovariatePath,
    Dataset,
    LognormalBaseline,
    LoanObservation,
    LoanStatus,
    ModelParams,
)
from .synth import BenchmarkConfig, TruthRecord

__all__ = [
    "write_csv",
    "write_json",
    "write_dataset_csv",
    "read_dataset_csv",
    "write_draws_csv",
    "read_draws_csv",
    "write_summary_csv",
    "write_acceptance_csv",
    "write_truth_json",
    "read_truth_json",
    "read_fit_config",
    "read_simulate_config",
    "params_to_json_dict",
    "params_from_json_dict",
]

_STATUS_BY_VALUE = {s.value: s for s in LoanStatus}


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` (any iterable, consumed
    as it is written) as one CSV line ending in a bare newline.

    The csv module writes a float, numpy float64 included, as
    ``repr(float(x))``, the shortest text that reads back as the same
    double; pass rows of scalars, not numpy arrays (``.tolist()`` first).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_json(obj, path) -> None:
    """``obj`` as JSON with sorted keys, two-space indent and a final newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- dataset ------------------------------------------------------------------


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Long-format dataset: one row per covariate observation.

    Loan-level fields (status, time, maturity) repeat on every row of the
    loan; single-observation loans take one row.
    """
    header = ["loan_id", "status", "time", "maturity", "obs_time", *dataset.schema]
    rows = (
        [loan.loan_id, loan.status.value, loan.time, loan.maturity, obs_time, *values]
        for loan in dataset.loans
        for obs_time, values in zip(
            loan.covariates.obs_times.tolist(), loan.covariates.values.tolist()
        )
    )
    write_csv(path, header, rows)


def _numbers(path, line_no: int, names: list[str], cells: list[str], parse=float) -> list:
    """``parse`` every cell; one that does not parse raises ValueError naming
    ``path:line``, its column and its text."""
    try:
        return [parse(v) for v in cells]
    except ValueError:
        for name, raw in zip(names, cells):
            try:
                parse(raw)
            except ValueError:
                kind = "an integer" if parse is int else "a number"
                raise ValueError(f"{path}:{line_no}: {name} {raw!r} is not {kind}") from None
        raise


def read_dataset_csv(path) -> Dataset:
    """Inverse of ``write_dataset_csv``.

    Rows of one loan must be consecutive and agree on the loan-level
    fields; covariate observation times must be strictly increasing.
    An error in a row names ``path:line``; one in a loan-level field names
    the line of the loan's first row.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty dataset file") from None
        fixed = ["loan_id", "status", "time", "maturity", "obs_time"]
        if header[: len(fixed)] != fixed:
            raise ValueError(f"{path}: expected columns {fixed}..., got {header[:5]}")
        schema = tuple(header[len(fixed) :])
        if not schema:
            raise ValueError(f"{path}: no covariate columns")

        heads: list[tuple] = []  # (loan_id, status, time, maturity) per loan
        starts: list[int] = []  # index of each loan's first row
        obs_times: list[float] = []
        values: list[list[float]] = []
        seen: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(fixed) + len(schema):
                raise ValueError(f"{path}:{line_no}: expected {len(fixed)+len(schema)} fields")
            loan_id, status_s = row[:2]
            if status_s not in _STATUS_BY_VALUE:
                raise ValueError(f"{path}:{line_no}: unknown status {status_s!r}")
            time, maturity, obs_time, *covariates = _numbers(path, line_no, header[2:], row[2:])
            head = (loan_id, _STATUS_BY_VALUE[status_s], time, maturity)
            if not heads or heads[-1][0] != loan_id:
                if loan_id in seen:
                    raise ValueError(f"{path}:{line_no}: rows of loan {loan_id} not consecutive")
                seen.add(loan_id)
                heads.append(head)
                starts.append(len(obs_times))
            elif heads[-1] != head:
                raise ValueError(f"{path}:{line_no}: loan {loan_id} rows disagree on loan fields")
            obs_times.append(obs_time)
            values.append(covariates)
    # row i of the file body is line i + 2 (the header is line 1)
    paths = CovariatePath._from_columns(
        obs_times, values, starts, schema, lambda row: f"{path}:{row + 2}"
    )
    loans = []
    for (loan_id, status, time, maturity), start, covariates in zip(heads, starts, paths):
        try:
            loans.append(LoanObservation(loan_id, status, time, covariates, maturity))
        except ValueError as exc:
            raise ValueError(f"{path}:{start + 2}: {exc}") from None
    return Dataset(loans=tuple(loans), schema=schema)


# --- posterior draws ----------------------------------------------------------


def write_draws_csv(samples: PosteriorSamples, path) -> None:
    """Kept draws, one row each: chain, iteration, then ``param_names``."""
    rows = (
        [c, i, *draw]
        for c, i, draw in zip(
            samples.chain.tolist(), samples.iteration.tolist(), samples.matrix().tolist()
        )
    )
    write_csv(path, ["chain", "iteration", *samples.param_names()], rows)


def read_draws_csv(path) -> PosteriorSamples:
    """Inverse of ``write_draws_csv``; sampler statistics come back empty."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty draws file") from None
        schema = tuple(n.split(":", 1)[1] for n in header if n.startswith("theta_default:"))
        names = param_names(schema)
        if header != ["chain", "iteration", *names]:
            raise ValueError(f"{path}: expected header chain,iteration,{','.join(names)}")
        rows = []
        meta = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{line_no}: wrong field count")
            meta.append(_numbers(path, line_no, header[:2], row[:2], int))
            rows.append(_numbers(path, line_no, names, row[2:]))
    if not rows:
        raise ValueError(f"{path}: no draws")
    mat = np.array(rows)
    variances = [j for j, name in enumerate(names) if name.startswith("sigma2_")]
    bad = ~np.isfinite(mat)
    bad[:, variances] |= mat[:, variances] <= 0.0
    if bad.any():
        i, j = np.argwhere(bad)[0]
        need = "positive and finite" if j in variances else "finite"
        raise ValueError(f"{path}:{i + 2}: {names[j]} must be {need}, got {float(mat[i, j])!r}")
    chain, iteration = np.array(meta, dtype=np.int64).T
    return PosteriorSamples.from_matrix(schema, chain, iteration, mat)


def write_summary_csv(rows: list[ParamSummary], path) -> None:
    header = ["parameter", "mean", "sd", "median", "q2.5", "q97.5", "rhat", "ess", "mcse"]
    write_csv(
        path,
        header,
        ([r.name, r.mean, r.sd, r.median, r.q2_5, r.q97_5, r.rhat, r.ess, r.mcse] for r in rows),
    )


def write_acceptance_csv(samples: PosteriorSamples, path) -> None:
    blocks = list(samples.acceptance)
    rows = ([c, *(samples.acceptance[b][c] for b in blocks)] for c in range(samples.n_chains))
    write_csv(path, ["chain", *blocks], rows)


# --- truth / params -----------------------------------------------------------


_PARAM_KEYS = (
    "mu_default", "sigma2_default", "mu_prepay", "sigma2_prepay", "theta_default", "theta_prepay",
)


def params_to_json_dict(params: ModelParams) -> dict:
    return {
        "mu_default": params.baseline_default.mu,
        "sigma2_default": params.baseline_default.sigma2,
        "mu_prepay": params.baseline_prepay.mu,
        "sigma2_prepay": params.baseline_prepay.sigma2,
        "theta_default": [float(v) for v in params.theta_default],
        "theta_prepay": [float(v) for v in params.theta_prepay],
    }


def _require(d, keys: tuple[str, ...], what: str) -> None:
    """Raise ValueError naming the first of ``keys`` missing from JSON object ``d``."""
    if not isinstance(d, dict):
        raise ValueError(f"{what}: expected a JSON object")
    for key in keys:
        if key not in d:
            raise ValueError(f'{what}: missing required key "{key}"')


def params_from_json_dict(d: dict, what: str = "model parameters") -> ModelParams:
    _require(d, _PARAM_KEYS, what)
    return ModelParams(
        baseline_default=LognormalBaseline(float(d["mu_default"]), float(d["sigma2_default"])),
        baseline_prepay=LognormalBaseline(float(d["mu_prepay"]), float(d["sigma2_prepay"])),
        theta_default=np.array(d["theta_default"], dtype=float),
        theta_prepay=np.array(d["theta_prepay"], dtype=float),
    )


def write_truth_json(truth: TruthRecord, path) -> None:
    write_json(
        {
            "params": params_to_json_dict(truth.params),
            "schema": list(truth.schema),
            "seed": truth.seed,
            "maturity": truth.maturity,
            "censor_time": truth.censor_time,
        },
        path,
    )


def read_truth_json(path) -> TruthRecord:
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    _require(d, ("params", "schema", "seed", "maturity", "censor_time"), "truth JSON")
    return TruthRecord(
        params=params_from_json_dict(d["params"], "truth JSON params"),
        schema=tuple(d["schema"]),
        seed=int(d["seed"]),
        maturity=float(d["maturity"]),
        censor_time=None if d["censor_time"] is None else float(d["censor_time"]),
    )


# --- run configs ----------------------------------------------------------------


# field annotation: (JSON value types it accepts, what the error says it must be);
# bool is never accepted, although Python counts it as an int
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    float | None: ((int, float, type(None)), "a number or null"),
}


def _build_from_dict(cls, d: dict, what: str):
    _require(d, (), what)
    valid = set(cls.__dataclass_fields__)
    unknown = set(d) - valid
    if unknown:
        raise ValueError(f"{what}: unknown keys {sorted(unknown)}; valid keys are {sorted(valid)}")
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        if hints[key] not in _JSON_TYPES:
            continue
        types, expected = _JSON_TYPES[hints[key]]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f'{what}: "{key}" must be {expected}, got {json.dumps(value)}')
    return cls(**d)


def read_fit_config(path) -> tuple[PriorSpec, SamplerConfig]:
    """Fit configuration JSON: {"prior": {...}, "sampler": {...}}, both optional."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    _require(d, (), "fit config")
    unknown = set(d) - {"prior", "sampler"}
    if unknown:
        raise ValueError(f"fit config: unknown top-level keys {sorted(unknown)}")
    prior = _build_from_dict(PriorSpec, d.get("prior", {}), "fit config prior")
    sampler = _build_from_dict(SamplerConfig, d.get("sampler", {}), "fit config sampler")
    return prior, sampler


def read_simulate_config(path) -> BenchmarkConfig:
    """Simulation configuration JSON with the ground truth under "true"."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    _require(d, ("true",), "simulate config")
    params = params_from_json_dict(d["true"], 'simulate config "true"')
    rest = {k: v for k, v in d.items() if k != "true"}
    rest["true_params"] = params
    return _build_from_dict(BenchmarkConfig, rest, "simulate config")
