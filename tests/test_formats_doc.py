"""Every JSON example in FORMATS.md is read by the reader its section names."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mortsurv import fileio
from mortsurv.ingest import (
    FileSchema,
    PreprocessSpec,
    judicial_states_from_json_dict,
    load_default_schema,
    load_judicial_states,
)

FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"


def _json_blocks() -> dict[str, list[str]]:
    """Fenced ```json blocks of FORMATS.md, keyed by their ``## `` section."""
    blocks: dict[str, list[str]] = {}
    section, body = None, None
    for line in FORMATS.read_text(encoding="utf-8").splitlines():
        if body is not None:
            if line.startswith("```"):
                blocks.setdefault(section, []).append("\n".join(body))
                body = None
            else:
                body.append(line)
        elif line.startswith("## "):
            section = line[3:].strip()
        elif line.strip() == "```json":
            body = []
    return blocks


def _via_file(reader):
    def read(d, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        return reader(path)
    return read


def _truth(d, tmp_path):
    truth = _via_file(fileio.read_truth_json)(d, tmp_path)
    assert truth.params.p == len(truth.schema)


def _preprocess(d, tmp_path):
    spec = PreprocessSpec.from_json_dict(d)
    assert spec.to_json_dict() == d
    assert spec.schema  # every categorical field the design matrix needs is present


def _file_schema(d, tmp_path):
    assert FileSchema.from_json_dict(d) == load_default_schema()


def _judicial(d, tmp_path):
    assert judicial_states_from_json_dict(d) == load_judicial_states()


READERS = {
    "truth JSON": _truth,
    "simulate config JSON": _via_file(fileio.read_simulate_config),
    "fit config JSON": _via_file(fileio.read_fit_config),
    "preprocess JSON": _preprocess,
    "input file schema JSON": _file_schema,
    "judicial states JSON": _judicial,
}


def test_every_json_example_has_a_reader():
    assert set(_json_blocks()) == set(READERS)


@pytest.mark.parametrize("section", sorted(READERS))
def test_json_example_is_readable(section, tmp_path):
    blocks = _json_blocks()[section]
    for text in blocks:
        READERS[section](json.loads(text), tmp_path)
