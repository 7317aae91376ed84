"""Every JSON example in FORMATS.md is read by the reader its section names."""

from __future__ import annotations

import copy
import fnmatch
import json
from pathlib import Path

import pytest

from mortsurv import fileio
from mortsurv.ingest import (
    FileSchema,
    JudicialStates,
    PreprocessSpec,
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


# the reader of each user-supplied JSON format, given the file's path
FILE_READERS = {
    "truth JSON": fileio.read_truth_json,
    "simulate config JSON": fileio.read_simulate_config,
    "fit config JSON": fileio.read_fit_config,
    "preprocess JSON": lambda path: fileio.read_json(PreprocessSpec, path, "preprocess JSON"),
    "input file schema JSON": lambda path: fileio.read_json(FileSchema, path, "input file schema"),
    "judicial states JSON": lambda path: fileio.read_json(JudicialStates, path,
                                                          "judicial states JSON"),
}


def _via_file(reader):
    def read(d, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        return reader(path)
    return read


def _truth(d, tmp_path):
    truth = _via_file(fileio.read_truth_json)(d, tmp_path)
    assert fileio.to_json(truth) == d
    assert truth.params.p == len(truth.schema)


def _preprocess(d, tmp_path):
    spec = _via_file(FILE_READERS["preprocess JSON"])(d, tmp_path)
    assert fileio.to_json(spec) == d
    assert spec.schema  # every categorical field the design matrix needs is present


def _file_schema(d, tmp_path):
    assert _via_file(FILE_READERS["input file schema JSON"])(d, tmp_path) == load_default_schema()


def _judicial(d, tmp_path):
    table = _via_file(FILE_READERS["judicial states JSON"])(d, tmp_path)
    assert frozenset(table.states) == load_judicial_states()


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


# --- every user JSON format follows one rule ------------------------------------

# key paths (fnmatch patterns, list items as [i]) a file cannot leave out;
# every other key of an example may be deleted and the file still reads
REQUIRED = {
    "truth JSON": ["*"],
    "simulate config JSON": ["n_loans", "true", "true.*"],
    "fit config JSON": [],
    "preprocess JSON": ["categorical", "categorical.*", "judicial_states", "quantitative",
                        "quantitative.*"],
    "input file schema JSON": ["origination_columns", "performance_columns",
                               "origination_columns.loan_id", "performance_columns.loan_id",
                               "performance_columns.reporting_date"],
    "judicial states JSON": ["version", "states"],
}
# objects whose keys are data (raw category levels), not fields: any key may
# be added to or deleted from them
FREE_FORM = {"preprocess JSON": ["categorical.*.map"]}


def _text(path: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _matches(section: str, table: dict, path: tuple) -> bool:
    return any(fnmatch.fnmatchcase(_text(path), pattern) for pattern in table.get(section, ()))


def _walk(node, path=()):
    """(key path, value) of ``node`` and of everything below it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _walk(value, (*path, key))


_DELETE = object()


def _edited(doc, path: tuple, value=_DELETE):
    """A copy of ``doc`` with the key or item at ``path`` set to ``value``, or deleted."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


_MARK = "\0repeat"


def _repeating(doc, path: tuple) -> str:
    """``doc`` as JSON text in which the object at ``path`` gives its first key twice."""
    target = doc
    for key in path:
        target = target[key]
    first, value = next(iter(target.items()))
    text = json.dumps(_edited(doc, (*path, _MARK), value))
    return text.replace(json.dumps(_MARK), json.dumps(first), 1)


def _mutations():
    """(section, what was done, document or its JSON text, key path, whether it
    must be refused)."""
    for section in sorted(FILE_READERS):
        for text in _json_blocks()[section]:
            doc = json.loads(text)
            for path, value in _walk(doc):
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if path and isinstance(path[-1], str):
                    refused = (not _matches(section, FREE_FORM, path[:-1])
                               and _matches(section, REQUIRED, path))
                    yield section, "delete", _edited(doc, path), path, refused
                if number:
                    yield section, "true", _edited(doc, path, True), path, True
                if number or isinstance(value, list):
                    yield section, "string", _edited(doc, path, "x"), path, True
                if isinstance(value, dict) and not _matches(section, FREE_FORM, path):
                    added = (*path, "no_such_key")
                    sibling = next(iter(value.values()), 0)
                    yield section, "unknown", _edited(doc, added, sibling), added, True
                if isinstance(value, dict) and value:
                    repeated = (*path, next(iter(value)))
                    yield section, "repeat", _repeating(doc, path), repeated, True


def _names_path(message: str, path: tuple) -> bool:
    """Each key of ``path``, and each list index as ``[i]``, appears in order."""
    at = 0
    for key in path:
        text = f"[{key}]" if isinstance(key, int) else key
        at = message.find(text, at)
        if at < 0:
            return False
        at += len(text)
    return True


MUTATIONS = list(_mutations())


@pytest.mark.parametrize(
    "section, change, doc, path, refused", MUTATIONS,
    ids=[f"{m[0]}-{m[1]}-{_text(m[3])}" for m in MUTATIONS],
)
def test_json_format_names_the_key_of_every_bad_value(tmp_path, section, change, doc, path,
                                                      refused):
    """Deleting a required key, ``true`` or a string where a number or list
    belongs, an unknown key and a repeated key each raise ValueError naming
    the file and the key path; deleting an optional key still reads."""
    file = tmp_path / "doc.json"
    file.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    if not refused:
        FILE_READERS[section](file)
        return
    with pytest.raises(ValueError) as exc:
        FILE_READERS[section](file)
    message = str(exc.value)
    assert message.startswith(f"{file}: "), message
    assert _names_path(message[len(str(file)):], path), message
