"""Readers and writers for every on-disk format the package speaks.

Every output file goes through ``write_csv`` or ``write_json``, so all
writers are deterministic: fields are emitted in fixed order, floats
use shortest round-trip repr, CSV rows end in a bare newline, and JSON
is sorted and indented.  Reading back what was written reproduces the
in-memory objects except where noted (posterior draw files do not carry
sampler statistics).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

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
    "read_truth_json",
    "read_fit_config",
    "read_simulate_config",
    "from_json",
    "to_json",
    "read_json",
    "params_to_json_dict",
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


def utf8_error(path, exc: UnicodeDecodeError) -> ValueError:
    """The error for a file whose text is not UTF-8, naming ``path:line`` and
    the file offset of the first bad byte.

    A text reader decodes in chunks, so ``exc`` counts its position from
    the chunk; the file's bytes are read again to place it, which is why
    this is called on the error path only.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as bad:
        line = data.count(b"\n", 0, bad.start) + 1
        return ValueError(
            f"{path}:{line}: 'utf-8' codec can't decode byte 0x{data[bad.start]:02x} "
            f"at offset {bad.start}: {bad.reason}"
        )
    return ValueError(f"{path}: {exc}")  # the file changed since it was read


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


def _csv_rows(path, what: str):
    """The header, then (line number, cells) of each row, of a CSV file; a
    row's number is the file line it starts on, since a quoted cell may hold
    line breaks.  An empty file, text that is not UTF-8 (``utf8_error``) and
    a row the csv module refuses (a cell over its size limit) raise
    ValueError naming the file."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty {what} file")
            yield header
            end = reader.line_num
            for row in reader:
                yield end + 1, row
                end = reader.line_num
        except UnicodeDecodeError as exc:
            raise utf8_error(path, exc) from None
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def read_dataset_csv(path) -> Dataset:
    """Inverse of ``write_dataset_csv``.

    Rows of one loan must be consecutive and agree on the loan-level
    fields; covariate observation times must be strictly increasing.
    An error in a row names ``path:line``; one in a loan-level field names
    the line of the loan's first row.
    """
    rows = _csv_rows(path, "dataset")
    header = next(rows)
    fixed = ["loan_id", "status", "time", "maturity", "obs_time"]
    if header[: len(fixed)] != fixed:
        raise ValueError(f"{path}: expected columns {fixed}..., got {header[:5]}")
    schema = tuple(header[len(fixed) :])
    if not schema:
        raise ValueError(f"{path}: no covariate columns")

    heads: list[tuple] = []  # (loan_id, status, time, maturity) per loan
    starts: list[int] = []  # index of each loan's first row
    line_nos: list[int] = []  # file line of each row
    obs_times: list[float] = []
    values: list[list[float]] = []
    seen: set[str] = set()
    for line_no, row in rows:
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
        line_nos.append(line_no)
    paths = CovariatePath._from_columns(
        obs_times, values, starts, schema, lambda row: f"{path}:{line_nos[row]}"
    )
    loans = []
    for (loan_id, status, time, maturity), start, covariates in zip(heads, starts, paths):
        try:
            loans.append(LoanObservation(loan_id, status, time, covariates, maturity))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_nos[start]}: {exc}") from None
    try:
        return Dataset(loans=tuple(loans), schema=schema)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    lines = _csv_rows(path, "draws")
    header = next(lines)
    schema = tuple(n.split(":", 1)[1] for n in header if n.startswith("theta_default:"))
    names = param_names(schema)
    if header != ["chain", "iteration", *names]:
        raise ValueError(f"{path}: expected header chain,iteration,{','.join(names)}")
    rows = []
    meta = []
    line_nos = []
    for line_no, row in lines:
        if len(row) != len(header):
            raise ValueError(f"{path}:{line_no}: wrong field count")
        meta.append(_numbers(path, line_no, header[:2], row[:2], int))
        rows.append(_numbers(path, line_no, names, row[2:]))
        line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no draws")
    mat = np.array(rows)
    variances = [j for j, name in enumerate(names) if name.startswith("sigma2_")]
    bad = ~np.isfinite(mat)
    bad[:, variances] |= mat[:, variances] <= 0.0
    if bad.any():
        i, j = np.argwhere(bad)[0]
        need = "positive and finite" if j in variances else "finite"
        raise ValueError(
            f"{path}:{line_nos[i]}: {names[j]} must be {need}, got {float(mat[i, j])!r}"
        )
    try:
        chain, iteration = np.array(meta, dtype=np.int64).T
    except OverflowError:
        i, j = next((i, j) for i, m in enumerate(meta) for j, v in enumerate(m)
                    if not -(2**63) <= v < 2**63)
        raise ValueError(
            f"{path}:{line_nos[i]}: {header[j]} must fit in int64, got {meta[i][j]}"
        ) from None
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


# --- JSON inputs and outputs --------------------------------------------------


def params_to_json_dict(params: ModelParams) -> dict:
    return {
        "mu_default": params.baseline_default.mu,
        "sigma2_default": params.baseline_default.sigma2,
        "mu_prepay": params.baseline_prepay.mu,
        "sigma2_prepay": params.baseline_prepay.sigma2,
        "theta_default": [float(v) for v in params.theta_default],
        "theta_prepay": [float(v) for v in params.theta_prepay],
    }


@dataclass
class _ParamsJSON:
    """``ModelParams`` as JSON holds them (``params_to_json_dict``)."""

    mu_default: float
    sigma2_default: float
    mu_prepay: float
    sigma2_prepay: float
    theta_default: tuple[float, ...]
    theta_prepay: tuple[float, ...]
    params: ModelParams = field(init=False)

    def __post_init__(self) -> None:
        baselines = []
        for risk in ("default", "prepay"):
            mu, sigma2 = getattr(self, f"mu_{risk}"), getattr(self, f"sigma2_{risk}")
            try:
                baselines.append(LognormalBaseline(mu, sigma2))
            except ValueError as exc:  # the baseline cannot name the key
                key = f"sigma2_{risk}" if math.isfinite(mu) else f"mu_{risk}"
                raise ValueError(f'"{key}": {exc}') from None
        self.params = ModelParams(*baselines, self.theta_default, self.theta_prepay)


@dataclass(frozen=True)
class _FitConfig:
    prior: PriorSpec = PriorSpec()
    sampler: SamplerConfig = SamplerConfig()


# each scalar annotation: the JSON values it accepts (never true/false as a
# number, although Python counts bool an int) and what an error says it must be
_SCALARS = {int: (int, "an integer"), float: ((int, float), "a number"),
            bool: (bool, "true or false"), str: (str, "a string")}


class _JSONObject(dict):
    """``object_pairs_hook`` for ``json.load``: a parsed JSON object that
    keeps its first key given twice, if any, as ``repeated`` for
    ``from_json`` to refuse (the hook cannot say where the object lies in
    the document)."""

    def __init__(self, pairs: list) -> None:
        super().__init__(pairs)
        seen = set()
        self.repeated = next((k for k, _ in pairs if k in seen or seen.add(k)), None)


def _describe(tp) -> str:
    """What a JSON value must be to decode as annotation ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return " or ".join("null" if a is type(None) else _describe(a) for a in args)
    if origin is tuple and args[-1] is not Ellipsis:
        return f"a list of {len(args)} items"
    if tp in _SCALARS:
        return _SCALARS[tp][1]
    return "a JSON object" if origin is dict else "a list"


def _record(cls, obj, what: str):
    """Dataclass or TypedDict ``cls`` from the JSON object ``obj``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: expected a JSON object")
    if getattr(obj, "repeated", None) is not None:
        raise ValueError(f'{what}: repeated key "{obj.repeated}"')
    hints = typing.get_type_hints(cls)
    if typing.is_typeddict(cls):
        names, required = {k: k for k in hints}, [k for k in hints if k in cls.__required_keys__]
    else:
        fields = [f for f in dataclasses.fields(cls) if f.init]
        names = {f.metadata.get("json", f.name): f.name for f in fields}
        missing = dataclasses.MISSING
        required = [k for k, f in zip(names, fields) if f.default is missing is f.default_factory]
    for key in required:
        if key not in obj:
            raise ValueError(f'{what}: missing required key "{key}"')
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}; valid keys are {sorted(names)}")
    kwargs = {names[k]: _decode(hints[names[k]], v, what, k) for k, v in obj.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _decode(tp, value, what: str, path: str):
    """``value``, at key ``path`` of the object ``what`` names, as annotation ``tp``."""
    if tp is ModelParams:
        return _decode(_ParamsJSON, value, what, path).params
    if dataclasses.is_dataclass(tp) or typing.is_typeddict(tp):
        return _record(tp, value, f"{what} {path}" if path else what)
    kind, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if kind is types.UnionType:  # T | None
        if value is None:
            return None
        (inner,) = set(args) - {type(None)}
        kind, args = typing.get_origin(inner) or inner, typing.get_args(inner)
    if kind in _SCALARS:
        if isinstance(value, bool) is (kind is bool) and isinstance(value, _SCALARS[kind][0]):
            with contextlib.suppress(OverflowError):  # an integer too large for a float
                return kind(value)
    elif kind in (tuple, list) and isinstance(value, list):
        items = args if kind is tuple and args[-1] is not Ellipsis else args[:1] * len(value)
        if len(items) == len(value):
            pairs = enumerate(zip(items, value))
            return kind(_decode(t, v, what, f"{path}[{i}]") for i, (t, v) in pairs)
    elif kind is dict and isinstance(value, dict):
        if getattr(value, "repeated", None) is not None:
            raise ValueError(f'{what}: repeated key "{path}.{value.repeated}"')
        return {k: _decode(args[1], v, what, f"{path}.{k}") for k, v in value.items()}
    raise ValueError(f'{what}: "{path}" must be {_describe(tp)}, got {json.dumps(value)}')


def from_json(cls, obj, what: str):
    """Dataclass (or ``ModelParams``) ``cls`` from parsed JSON ``obj``, typed
    by the field annotations; a field's key is its name or its ``"json"``
    metadata.  An unknown or missing key, a value of the wrong JSON type
    and an error from the class's own checks raise ValueError starting
    ``what: `` and naming the key path (``"columns.dti"``,
    ``"theta_default[1]"``); a nested object's path joins ``what``.  An
    object parsed with ``_JSONObject`` that repeats a key raises the same
    way, naming the key."""
    return _decode(cls, obj, what, "")


def to_json(obj):
    """Inverse of ``from_json``: ``obj`` as the JSON value it decodes from.
    A dataclass becomes an object keyed by each init field's JSON name,
    ``ModelParams`` its flat form (``params_to_json_dict``), a tuple or
    list a list, and a dict is encoded by value."""
    if isinstance(obj, ModelParams):
        return params_to_json_dict(obj)
    if dataclasses.is_dataclass(obj):
        fields = (f for f in dataclasses.fields(obj) if f.init)
        return {f.metadata.get("json", f.name): to_json(getattr(obj, f.name)) for f in fields}
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj


def read_json(cls, path, what: str):
    """The JSON file at ``path`` decoded by ``from_json`` with ``what``
    prefixed by the path; a file that is not UTF-8 (``utf8_error``) or not
    JSON, and a repeated key, raise ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_JSONObject)
    except UnicodeDecodeError as exc:
        raise utf8_error(path, exc) from None
    except ValueError as exc:  # JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None
    return from_json(cls, obj, f"{path}: {what}")


def read_truth_json(path) -> TruthRecord:
    return read_json(TruthRecord, path, "truth JSON")


def read_fit_config(path) -> tuple[PriorSpec, SamplerConfig]:
    """Fit configuration JSON: {"prior": {...}, "sampler": {...}}, both optional."""
    config = read_json(_FitConfig, path, "fit config")
    return config.prior, config.sampler


def read_simulate_config(path) -> BenchmarkConfig:
    """Simulation configuration JSON with the ground truth under "true"."""
    return read_json(BenchmarkConfig, path, "simulate config")
