"""The one line reader behind corpora, prediction records, timelines and tables."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mtckit import cli, tables
from mtckit.adherence import load_timeline
from mtckit.dataset import load_dugs
from mtckit.evaluation import load_predictions
from mtckit.tables import FileFormatError, read_table

#: Characters that ``str.splitlines`` takes for line ends but JSON leaves raw.
_SEPARATORS = st.sampled_from(["\x85", "\u2028", "\u2029"])
_WORDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
#: Text that holds at least one of the separators.
_SEPARATED = st.tuples(_WORDS, _SEPARATORS, _WORDS).map("".join)


def _corpus_record(i: int, text: str) -> dict:
    return {"id": f"d{i}", "source": "fda", "text": f"Take it {text}", "labels": ["2 times day"]}


def _prediction_record(i: int, text: str) -> dict:
    return {"dug_id": f"d{i}{text}", "candidates": [{"text": text, "valid": False}], "predictions": [text]}


def _timeline_record(i: int, text: str) -> dict:
    return {"kind": "activity", "name": f"walk {text}", "timestamp": f"2026-03-02T08:{i:02d}:00+00:00"}


_LOADERS = {
    "corpus": (load_dugs, _corpus_record),
    "predictions": (load_predictions, _prediction_record),
    "timeline": (load_timeline, _timeline_record),
}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=st.lists(_SEPARATED, min_size=1, max_size=4), crlf=st.booleans())
def test_raw_line_separators_in_a_record_load_as_escaped_ones(tmp_path, kind, texts, crlf):
    load, record = _LOADERS[kind]
    records = [record(i, text) for i, text in enumerate(texts)]
    raw, escaped = tmp_path / "raw.jsonl", tmp_path / "escaped.jsonl"
    end = "\r\n" if crlf else "\n"
    raw.write_bytes("".join(json.dumps(r, ensure_ascii=False) + end for r in records).encode("utf-8"))
    escaped.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert load(raw) == load(escaped)


def _table_row(i: int, text: str) -> str:
    return f"alias {i} {text}\tcanonical"


#: Each reader: how it loads a path, and a good line numbered ``i``.
_READERS = {
    "corpus": (load_dugs, lambda i, text: json.dumps(_corpus_record(i, text), ensure_ascii=False)),
    "predictions": (load_predictions, lambda i, text: json.dumps(_prediction_record(i, text), ensure_ascii=False)),
    "timeline": (load_timeline, lambda i, text: json.dumps(_timeline_record(i, text), ensure_ascii=False)),
    "table": (lambda path: read_table(path, "alias<TAB>canonical", lambda *row: row), _table_row),
}
_BAD_LINES = st.sampled_from([b"{not json", b"[1, 2]", b"\xff\xfe", b"ok \xc3(", b'"a string"'])
_GOOD_TEXT = (_WORDS | _SEPARATED).filter(lambda text: "\t" not in text and "\n" not in text)


@pytest.mark.parametrize("kind", sorted(_READERS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_bad_line_is_named_by_its_number(tmp_path, kind, data):
    load, good_line = _READERS[kind]
    n_lines = data.draw(st.integers(1, 12), label="n_lines")
    bad = data.draw(st.sets(st.integers(1, n_lines), min_size=1), label="bad")
    lines = []
    for lineno in range(1, n_lines + 1):
        if lineno in bad:
            lines.append(data.draw(_BAD_LINES))
        else:
            blank = data.draw(st.sampled_from([b"", b"  ", None]))
            lines.append(blank if blank is not None else good_line(lineno, data.draw(_GOOD_TEXT)).encode())
    path = tmp_path / "input.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert [line for line, _ in err.value.problems] == sorted(bad)
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}:{min(bad)}: ")


def test_message_shows_the_first_problems_and_counts_the_rest(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("nope\n" * (tables.SHOWN_PROBLEMS + 3), encoding="utf-8")
    with pytest.raises(FileFormatError) as err:
        load_dugs(path)
    message = str(err.value)
    assert len(err.value.problems) == tables.SHOWN_PROBLEMS + 3
    assert [int(n) for n in re.findall(rf"{re.escape(str(path))}:(\d+): ", message)] == list(
        range(1, tables.SHOWN_PROBLEMS + 1)
    )
    assert message.endswith("; and 3 more bad line(s)")


def test_a_carriage_return_inside_a_line_stays(tmp_path):
    path = tmp_path / "candidates.txt"
    path.write_bytes(b"2 times day\r\nbefore\rsleep\n\n")
    assert tables.read_lines(path, str) == ["2 times day", "before\rsleep"]


_INPUTS = {
    "dataset-stats": lambda f, v: ["dataset-stats", "--file", f],
    "eval --gold": lambda f, v: ["eval", "--gold", f, "--pred", v["pred"]],
    "eval --pred": lambda f, v: ["eval", "--gold", v["corpus"], "--pred", f],
    "adhere --timeline": lambda f, v: ["adhere", "--mtc", "in morning", "--timeline", f],
    "extract-ehr --file": lambda f, v: ["extract-ehr", "--file", f],
    "validate --file": lambda f, v: ["validate", "--file", f],
    "normalize --file": lambda f, v: ["normalize", "--file", f],
}


@pytest.mark.parametrize("command", sorted(_INPUTS))
def test_a_byte_that_is_not_utf8_is_named_by_path_and_line(tmp_path, capsys, command):
    corpus = _corpus_record(1, "daily")
    valid = {"corpus": tmp_path / "corpus.jsonl", "pred": tmp_path / "pred.jsonl"}
    valid["corpus"].write_text(json.dumps(corpus) + "\n", encoding="utf-8")
    valid["pred"].write_text(json.dumps({"dug_id": corpus["id"], "candidates": []}) + "\n", encoding="utf-8")
    first = {
        "eval --pred": json.dumps({"dug_id": corpus["id"], "candidates": []}),
        "adhere --timeline": json.dumps(_timeline_record(1, "")),
    }.get(command, json.dumps(corpus))
    fuzzed = tmp_path / "input.jsonl"
    fuzzed.write_bytes(first.encode() + b"\n\nbad \xff byte\n")
    code = cli.main(_INPUTS[command](str(fuzzed), {k: str(p) for k, p in valid.items()}))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {fuzzed}:3: 'utf-8' codec can't decode byte 0xff")
