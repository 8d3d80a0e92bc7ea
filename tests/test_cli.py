"""Command-line surface: one test per subcommand plus exit-code contract."""

from __future__ import annotations

import argparse
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mtckit import cli, dataset
from mtckit.icl import (
    ReplayClient,
    build_prompt,
    default_template,
    fewshot_from_dugs,
    gold_answer,
    prompt_fingerprint,
)

import replay_scenario
from conftest import make_dug, stratified_pool
from test_acceptance import GOLDEN


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_success(capsys):
    code, out, _ = run(capsys, ["parse", "30 minute before eating", "--format", "json-lines"])
    assert code == 0
    record = json.loads(out)
    assert record["type"] == 1
    assert record["canonical"] == "30 minute before eating"


def test_parse_nonvalid_exits_one(capsys):
    code, out, err = run(capsys, ["parse", "2 times day OR 3 times day"])
    assert code == 1
    assert "nonvalid" in err
    assert out == ""


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, ["dataset-stats", "--file", "/nonexistent/corpus.jsonl"])
    assert code == 1
    assert "error" in err


def test_validate_rate(tmp_path, capsys):
    path = tmp_path / "outs.txt"
    path.write_text("2 times day\n6 hours apart\nbanana\nbefore sleep\n", encoding="utf-8")
    code, out, _ = run(capsys, ["validate", "--file", str(path)])
    assert code == 0
    assert out.strip() == "0.75"


def test_validate_json_lines(tmp_path, capsys):
    path = tmp_path / "outs.txt"
    path.write_text("2 times day\nbanana\n", encoding="utf-8")
    code, out, _ = run(capsys, ["validate", "--file", str(path), "--format", "json-lines"])
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert lines[0] == {"text": "2 times day", "valid": True}
    assert lines[-1] == {"validity_rate": 0.5}


def test_normalize_text(capsys):
    code, out, _ = run(capsys, ["normalize", "--text", "Three times daily"])
    assert code == 0
    assert out.strip() == "3 times day"


def test_dataset_stats(corpus_path, capsys):
    code, out, _ = run(capsys, ["dataset-stats", "--file", str(corpus_path), "--format", "json-lines"])
    assert code == 0
    stats = json.loads(out)
    assert stats["n_dugs"] == 12
    assert stats["dugs_per_source"]["ehr"] == 3


def test_extract_ehr(tmp_path, capsys):
    report = tmp_path / "report.txt"
    report.write_text(
        "The patient has a history of lupus, currently on Plaquenil 200-mg b.i.d. "
        "She denies fever. Effexor 25 mg two tablets h.s. was continued as before.",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["extract-ehr", "--file", str(report), "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["labels"] for r in records] == [["2 times day"], ["before sleep"]]


def test_rules_classify_with_eval(corpus_path, capsys):
    code, out, _ = run(
        capsys,
        ["rules-classify", "--file", str(corpus_path), "--eval", "--format", "json-lines"],
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert "macro" in lines[-1]
    assert all("dug_id" in rec for rec in lines[:-1])


def test_fewshot_select_deterministic(corpus_path, capsys):
    argv = ["fewshot-select", "--file", str(corpus_path), "--k", "8", "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 8


def test_fewshot_select_refuses_k_below_one(corpus_path, capsys):
    code, out, err = run(capsys, ["fewshot-select", "--file", str(corpus_path), "--k", "-1"])
    assert code == 1 and out == ""
    assert err == "error: k must be at least 1, got -1\n"


def _prepare_replay_run(tmp_path, pool):
    """Corpus, few-shot file, and stocked fixtures for a simple-strategy run."""
    corpus = tmp_path / "corpus.jsonl"
    dataset.dump_dugs(pool, corpus)
    fewshot_dugs = pool[:4]
    fewshot_file = tmp_path / "fewshot.jsonl"
    dataset.dump_dugs(fewshot_dugs, fewshot_file)
    fewshot = fewshot_from_dugs(fewshot_dugs)
    fixtures = tmp_path / "fixtures.jsonl"
    client = ReplayClient(fixtures)
    template = default_template("simple")
    for dug in pool[4:]:
        client.store(build_prompt(template, fewshot, dug), gold_answer(dug))
    return corpus, fewshot_file, fixtures


def test_extract_and_eval_round_trip(tmp_path, pool, capsys):
    corpus, fewshot_file, fixtures = _prepare_replay_run(tmp_path, pool)
    argv = [
        "extract",
        "--file", str(corpus),
        "--fewshot", str(fewshot_file),
        "--strategy", "simple",
        "--client", "replay",
        "--fixtures", str(fixtures),
        "--out", str(tmp_path / "pred.jsonl"),
    ]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical record stream
    assert "excluded 4 few-shot guideline(s)" in err1
    first = json.loads(out1.splitlines()[0])
    assert {"dug_id", "predictions", "candidates", "mtcs"} <= set(first)

    # eval against the matching gold split
    eval_gold = tmp_path / "gold.jsonl"
    dataset.dump_dugs(pool[4:], eval_gold)
    code, out, _ = run(
        capsys,
        [
            "eval",
            "--gold", str(eval_gold),
            "--pred", str(tmp_path / "pred.jsonl"),
            "--format", "json-lines",
            "--out", str(tmp_path / "report.json"),
        ],
    )
    assert code == 0
    report = json.loads(out)
    # replayed answers are the gold labels, so everything scores perfectly
    assert report["macro"]["f1"] == 1.0
    assert report["validity_rate"] == 1.0
    on_disk = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert on_disk == report


def test_extract_replay_requires_fixtures(tmp_path, pool, capsys):
    corpus, fewshot_file, _ = _prepare_replay_run(tmp_path, pool)
    code, _, err = run(
        capsys,
        ["extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--client", "replay"],
    )
    assert code == 1
    assert "--fixtures" in err


def test_extract_replay_refuses_a_missing_fixtures_file_before_any_record(tmp_path, pool, capsys):
    corpus, fewshot_file, _ = _prepare_replay_run(tmp_path, pool)
    missing = tmp_path / "no-such-fixtures.jsonl"
    code, out, err = run(capsys, [
        "extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--client", "replay",
        "--fixtures", str(missing),
    ])
    assert code == 1 and out == ""
    assert err == f"error: --fixtures: no such file: {missing}\n"
    assert not missing.exists()


def _extract_args(*extra):
    return ["extract", "--file", "corpus.jsonl", "--fewshot", "fewshot.jsonl", *extra]


def test_extract_types_parse_to_a_tuple():
    parser = cli.build_parser()
    assert parser.parse_args(_extract_args("--types", "2,4")).types == (2, 4)
    assert parser.parse_args(_extract_args()).types == ()


@pytest.mark.parametrize("value", ["x", "1,,2", "", "2.5"])
def test_extract_malformed_types_is_a_usage_error_naming_the_flag(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(_extract_args("--types", value))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --types: expected comma-separated type numbers, got {value!r}" in err


@pytest.mark.parametrize("strategy", ["simple", "guided"])
def test_extract_types_on_a_strategy_without_types_exits_one(tmp_path, pool, capsys, strategy):
    corpus, fewshot_file, fixtures = _prepare_replay_run(tmp_path, pool)
    code, out, err = run(capsys, [
        "extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", strategy,
        "--types", "1", "--client", "replay", "--fixtures", str(fixtures),
    ])
    assert code == 1
    assert err == f"error: --types: {strategy} strategy takes no types\n"
    assert out == ""


@pytest.mark.parametrize(
    ("types", "reason"),
    [("9", "must be within 1..7, got (9,)"), ("2,2", "must not repeat, got (2, 2)")],
)
def test_extract_bad_specialized_types_exit_one_naming_the_flag(tmp_path, pool, capsys, types, reason):
    corpus, fewshot_file, fixtures = _prepare_replay_run(tmp_path, pool)
    code, out, err = run(capsys, [
        "extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", "specialized",
        "--types", types, "--client", "replay", "--fixtures", str(fixtures),
    ])
    assert code == 1
    assert err == f"error: --types: specialized types {reason}\n"
    assert out == ""


def test_extract_excludes_a_text_twin_of_a_fewshot_example(tmp_path, capsys):
    corpus, fewshot_file = tmp_path / "corpus.jsonl", tmp_path / "fewshot.jsonl"
    query, twin = make_dug("q0", "Take with food.", []), make_dug("q1", "Take twice daily.", [])
    dataset.dump_dugs([query, twin], corpus)
    example = make_dug("f1", "Take twice daily.", ["2 times day"])
    dataset.dump_dugs([example], fewshot_file)
    fixtures = tmp_path / "fixtures.jsonl"
    client, fewshot = ReplayClient(fixtures), fewshot_from_dugs([example])
    for strategy in ("simple", "guided"):
        client.store(build_prompt(default_template(strategy), fewshot, query), "NONE")
    for strategy in ("simple", "guided", "specialized"):
        code, out, err = run(capsys, [
            "extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", strategy,
            "--client", "replay", "--fixtures", str(fixtures),
        ])
        assert code == 0
        assert "excluded 1 few-shot guideline(s) from extraction" in err
        assert [json.loads(line)["dug_id"] for line in out.splitlines()] == ["q0"]


def test_extract_marks_a_record_failed_when_a_fewshot_text_holds_its_query_block(tmp_path, capsys):
    corpus, fewshot_file = tmp_path / "corpus.jsonl", tmp_path / "fewshot.jsonl"
    clash, other = make_dug("q0", "Take twice daily.", []), make_dug("q1", "Take with food.", [])
    dataset.dump_dugs([clash, other], corpus)
    example = make_dug("f1", "See note. Statement: Take twice daily.", ["2 times day"])
    dataset.dump_dugs([example], fewshot_file)
    fixtures = tmp_path / "fixtures.jsonl"
    prompt = build_prompt(default_template("simple"), fewshot_from_dugs([example]), other)
    ReplayClient(fixtures).store(prompt, "2 times day")
    code, out, err = run(capsys, [
        "extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", "simple",
        "--client", "replay", "--fixtures", str(fixtures),
    ])
    assert code == 0
    failed, emitted = (json.loads(line) for line in out.splitlines())
    assert failed["dug_id"] == "q0" and failed["raw_outputs"] == [] and failed["predictions"] == []
    assert failed["error"] == "PromptBuildError: query block must appear exactly once in the rendered prompt"
    assert (emitted["dug_id"], emitted["error"], emitted["predictions"]) == ("q1", None, ["2 times day"])
    assert "1 record(s) marked failed" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_extract_parallelism_below_one_exits_one_naming_the_flag(tmp_path, pool, capsys, value):
    corpus, fewshot_file, fixtures = _prepare_replay_run(tmp_path, pool)
    code, out, err = run(capsys, [
        "extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", "simple",
        "--client", "replay", "--fixtures", str(fixtures), "--parallelism", value,
    ])
    assert code == 1 and out == ""
    assert err == f"error: --parallelism: parallelism must be at least 1, got {value}\n"


def _out_commands(tmp_path, pool):
    """argv of each subcommand that copies its JSON lines to ``--out``, without it."""
    corpus, fewshot_file, fixtures = _prepare_replay_run(tmp_path, pool)
    report = tmp_path / "report.txt"
    report.write_text("Currently on Plaquenil 200-mg b.i.d. Effexor 25 mg two tablets h.s. was continued.",
                      encoding="utf-8")
    return {
        "extract-ehr": ["extract-ehr", "--file", str(report)],
        "fewshot-select": ["fewshot-select", "--file", str(corpus), "--k", "8"],
        "extract": ["extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", "simple",
                    "--client", "replay", "--fixtures", str(fixtures)],
    }


@pytest.mark.parametrize("command", ["extract-ehr", "fewshot-select", "extract"])
@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_out_holds_the_json_lines_in_either_format(tmp_path, pool, capsys, command, fmt):
    argv = _out_commands(tmp_path, pool)[command]
    _, json_lines, _ = run(capsys, [*argv, "--format", "json-lines"])
    out_file = tmp_path / "out.jsonl"
    code, out, err = run(capsys, [*argv, "--format", fmt, "--out", str(out_file)])
    assert code == 0 and json_lines
    assert out_file.read_text(encoding="utf-8") == json_lines
    assert out == json_lines or fmt == "text"
    assert err.endswith(f"wrote {len(json_lines.splitlines())} record(s) to {out_file}\n")


@pytest.mark.parametrize(
    ("command", "bad"),
    [("extract-ehr", ["--file", "/nonexistent/report.txt"]), ("fewshot-select", ["--k", "0"]),
     ("extract", ["--types", "2"]), ("extract", ["--parallelism", "0"]),
     ("extract", ["--fixtures", "/nonexistent/fixtures.jsonl"])],
)
def test_a_failure_before_the_first_record_leaves_out_untouched(tmp_path, pool, capsys, command, bad):
    out_file = tmp_path / "out.jsonl"
    out_file.write_text("earlier run\n", encoding="utf-8")
    code, out, _ = run(capsys, [*_out_commands(tmp_path, pool)[command], *bad, "--out", str(out_file)])
    assert code == 1 and out == ""
    assert out_file.read_text(encoding="utf-8") == "earlier run\n"


def test_out_of_a_run_without_records_is_empty(tmp_path, capsys):
    report, out_file = tmp_path / "report.txt", tmp_path / "out.jsonl"
    report.write_text("No abbreviation here.", encoding="utf-8")
    out_file.write_text("earlier run\n", encoding="utf-8")
    code, out, err = run(capsys, ["extract-ehr", "--file", str(report), "--out", str(out_file)])
    assert code == 0 and out == ""
    assert out_file.read_bytes() == b""
    assert err == f"wrote 0 record(s) to {out_file}\n"


def test_extract_prints_each_record_before_the_next_is_made(tmp_path, pool, monkeypatch):
    argv = _out_commands(tmp_path, pool)["extract"]
    stdout, printed = io.StringIO(), []
    real = cli.iter_extract_corpus

    def spy(*args, **kwargs):
        for record in real(*args, **kwargs):
            printed.append(stdout.getvalue().count("\n"))
            yield record

    monkeypatch.setattr(cli, "iter_extract_corpus", spy)
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert cli.main([*argv, "--out", str(tmp_path / "out.jsonl")]) == 0
    assert printed == list(range(len(pool) - 4))


def test_readme_quickstart_selects_extracts_and_scores(tmp_path, capsys):
    """fewshot-select over a pool, extract over a corpus apart from it, eval of that corpus."""
    pool, corpus = tmp_path / "pool.jsonl", tmp_path / "corpus.jsonl"
    dataset.dump_dugs(stratified_pool(), pool)
    gold = replay_scenario.build_corpus()
    dataset.dump_dugs(gold, corpus)
    fewshot_file = tmp_path / "fewshot.jsonl"
    assert run(capsys, ["fewshot-select", "--file", str(pool), "--k", "8", "--out", str(fewshot_file)])[0] == 0
    # Fixtures recorded for the prompts of the selected examples.
    fewshot = fewshot_from_dugs(dataset.load_dugs(fewshot_file))
    fixtures = tmp_path / "fixtures.jsonl"
    client, template = ReplayClient(fixtures), default_template("specialized")
    for i, dug in enumerate(gold):
        for t in (1, 2, 3, 4, 6, 7):
            client.store(build_prompt(template, fewshot, dug, mtc_type=t), replay_scenario.canned_response(i, t, dug))
    pred, report = tmp_path / "pred.jsonl", tmp_path / "report.json"
    code, _, err = run(capsys, [
        "extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", "specialized",
        "--client", "replay", "--fixtures", str(fixtures), "--out", str(pred),
    ])
    assert code == 0 and "excluded" not in err
    code, _, err = run(capsys, ["eval", "--gold", str(corpus), "--pred", str(pred), "--out", str(report)])
    assert code == 0, err
    # The records and report do not depend on which examples the prompts showed.
    assert pred.read_bytes() == (GOLDEN / "criterion7_predictions.jsonl").read_bytes()
    assert report.read_bytes() == (GOLDEN / "criterion7_report.json").read_bytes()


def test_eval_text_table(tmp_path, pool, capsys):
    gold = tmp_path / "gold.jsonl"
    dataset.dump_dugs(pool[:3], gold)
    pred = tmp_path / "pred.jsonl"
    rows = [{"dug_id": d.id, "candidates": list(d.label_strings)} for d in pool[:3]]
    pred.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    code, out, _ = run(capsys, ["eval", "--gold", str(gold), "--pred", str(pred)])
    assert code == 0
    assert "label-macro" in out and "validity rate" in out


def test_adhere(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    rows = [
        {"kind": "intake", "name": "metformin", "timestamp": "2026-03-02T08:00:00+00:00"},
        {"kind": "intake", "name": "metformin", "timestamp": "2026-03-02T20:00:00+00:00"},
    ]
    events.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    code, out, _ = run(
        capsys,
        [
            "adhere",
            "--mtc", "2 times day",
            "--timeline", str(events),
            "--window-start", "2026-03-02T00:00:00+00:00",
            "--window-end", "2026-03-03T00:00:00+00:00",
            "--format", "json-lines",
        ],
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "satisfied"
    assert verdict["mtc"] == "2 times day"


@pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
def test_adhere_window_without_timezone_exits_one(tmp_path, capsys, flag):
    events = tmp_path / "events.jsonl"
    events.write_text(
        json.dumps({"kind": "intake", "name": "m", "timestamp": "2026-03-02T08:00:00+00:00"}),
        encoding="utf-8",
    )
    argv = ["adhere", "--mtc", "2 times day", "--timeline", str(events), flag, "2026-03-02T00:00:00"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "has no timezone" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--window-start", "--window-end"])
@pytest.mark.parametrize(
    ("value", "reason"),
    [("bogus", "Invalid isoformat string: 'bogus'"),
     ("2026-03-02T00:00:00", "timestamp '2026-03-02T00:00:00' has no timezone")],
)
def test_adhere_bad_window_bound_exits_one_naming_the_flag(tmp_path, capsys, flag, value, reason):
    events = tmp_path / "events.jsonl"
    events.write_text(
        json.dumps({"kind": "intake", "name": "m", "timestamp": "2026-03-02T08:00:00+00:00"}),
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["adhere", "--mtc", "2 times day", "--timeline", str(events), flag, value])
    assert code == 1 and out == ""
    assert err == f"error: {flag}: {reason}\n"


def test_adhere_malformed_timeline_exits_one(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text('{"kind": "intake", "name": "m", "timestamp": 5}\n', encoding="utf-8")
    code, _, err = run(capsys, ["adhere", "--mtc", "2 times day", "--timeline", str(events)])
    assert code == 1
    assert f"{events}:1: bad timeline record" in err


@pytest.mark.parametrize("field, value", [("kind", 5), ("name", 5), ("name", None), ("name", ["m"])])
def test_adhere_wrong_typed_timeline_field_exits_one_naming_the_line(tmp_path, capsys, field, value):
    record = {"kind": "intake", "name": "m", "timestamp": "2026-03-02T08:00:00Z", field: value}
    events = tmp_path / "events.jsonl"
    events.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, _, err = run(capsys, ["adhere", "--mtc", "2 times day", "--timeline", str(events)])
    assert code == 1 and "Traceback" not in err
    assert f"{events}:1: bad timeline record: event {field} must be a string, got {value!r}" in err


def test_adhere_deeply_nested_timeline_exits_one(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text("[" * 100_000 + "\n", encoding="utf-8")
    code, _, err = run(capsys, ["adhere", "--mtc", "2 times day", "--timeline", str(events)])
    assert code == 1
    assert f"{events}:1: bad timeline record: maximum recursion depth" in err and "Traceback" not in err


def test_dataset_stats_non_string_label_exits_one(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    record = {"id": "a", "source": "fda", "text": "Take it.", "labels": [5]}
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, _, err = run(capsys, ["dataset-stats", "--file", str(corpus)])
    assert code == 1
    assert f"error: {corpus}:1: gold label 5 is not a string" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad_option", ["--file", "--fewshot"])
def test_extract_bad_corpus_error_names_its_file(tmp_path, pool, capsys, bad_option):
    corpus, fewshot_file, fixtures = _prepare_replay_run(tmp_path, pool)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"id": "a", "source": "fda", "text": 5, "labels": []}) + "\n", encoding="utf-8")
    files = {"--file": str(corpus), "--fewshot": str(fewshot_file), bad_option: str(bad)}
    argv = ["extract", *(part for option in files.items() for part in option),
            "--client", "replay", "--fixtures", str(fixtures)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {bad}:1: dug id and text must be strings")


def test_adhere_tolerance_flag(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    rows = [
        {"kind": "intake", "name": "m", "timestamp": "2026-03-02T08:00:00+00:00"},
        {"kind": "intake", "name": "m", "timestamp": "2026-03-03T08:30:00+00:00"},
        {"kind": "intake", "name": "m", "timestamp": "2026-03-04T10:30:00+00:00"},
    ]
    events.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    base = [
        "adhere", "--mtc", "at the same time each day", "--timeline", str(events),
        "--window-start", "2026-03-02T00:00:00+00:00",
        "--window-end", "2026-03-05T00:00:00+00:00",
    ]
    code, out, _ = run(capsys, base)
    assert code == 0 and out.startswith("violated")
    code, out, _ = run(capsys, base + ["--consistency-tolerance-min", "180"])
    assert code == 0 and out.startswith("satisfied")


def test_eval_bad_prediction_line_names_path_and_line(tmp_path, pool, capsys):
    gold = tmp_path / "gold.jsonl"
    dataset.dump_dugs(pool[:2], gold)
    pred = tmp_path / "pred.jsonl"
    first = json.dumps({"dug_id": pool[0].id, "candidates": []})
    for bad_line, reason in [
        ("{not json", "Expecting property name"),
        ('{"candidates": []}', "with a dug_id"),
        ('{"dug_id": null}', "with a dug_id"),
        ('{"dug_id": 5, "candidates": []}', "with a dug_id string"),
        ('{"dug_id": "p02", "candidates": 5}', "candidates must be a list of strings"),
        ('{"dug_id": "p02", "predictions": "1 times day"}', "predictions must be a list of strings"),
    ]:
        pred.write_text(f"{first}\n{bad_line}\n", encoding="utf-8")
        code, out, err = run(capsys, ["eval", "--gold", str(gold), "--pred", str(pred)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {pred}:2: ") and reason in err


@pytest.mark.parametrize("blank", ["", "\n\n"])
def test_eval_empty_prediction_file_names_the_file(tmp_path, pool, capsys, blank):
    gold = tmp_path / "gold.jsonl"
    dataset.dump_dugs(pool[:1], gold)
    pred = tmp_path / "pred.jsonl"
    pred.write_text(blank, encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--gold", str(gold), "--pred", str(pred)])
    assert code == 1 and out == ""
    assert err == f"error: {pred}: missing predictions for ['{pool[0].id}'], unmatched predictions []\n"
    empty_gold = tmp_path / "empty_gold.jsonl"
    empty_gold.write_text(blank, encoding="utf-8")
    code, out, err = run(capsys, ["eval", "--gold", str(empty_gold), "--pred", str(pred), "--format", "json-lines"])
    assert code == 0 and err == "" and json.loads(out)["n_dugs"] == 0


@pytest.mark.parametrize("bounds", [[], ["--window-start", "2026-03-02T00:00:00+00:00"],
                                    ["--window-end", "2026-03-03T00:00:00+00:00"]])
def test_adhere_empty_timeline_names_the_file_and_the_window_flags(tmp_path, capsys, bounds):
    events = tmp_path / "events.jsonl"
    events.write_text("", encoding="utf-8")
    argv = ["adhere", "--mtc", "2 times day", "--timeline", str(events)]
    code, out, err = run(capsys, argv + bounds)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {events}: an empty timeline needs an explicit window")
    assert "--window-start" in err and "--window-end" in err
    both = ["--window-start", "2026-03-02T00:00:00+00:00", "--window-end", "2026-03-03T00:00:00+00:00"]
    code, out, err = run(capsys, argv + both)
    assert code == 0 and out.startswith("indeterminate")


@pytest.mark.parametrize(
    "command", [["dataset-stats"], ["rules-classify", "--eval"], ["fewshot-select", "--k", "1"]]
)
@pytest.mark.parametrize("field, value", [("text", 5), ("id", {"k": 1})])
def test_corpus_id_or_text_of_another_type_exits_one_naming_the_line(tmp_path, capsys, command, field, value):
    corpus = tmp_path / "corpus.jsonl"
    record = {"id": "a", "source": "fda", "text": "Take it twice daily.", "labels": []}
    corpus.write_text(json.dumps({**record, field: value}) + "\n", encoding="utf-8")
    code, out, err = run(capsys, [command[0], "--file", str(corpus), *command[1:]])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {corpus}:1: dug id and text must be strings")


# ------------------------------------------------------------ configuration


def _options(sub: argparse.ArgumentParser) -> set[str]:
    return {option for action in sub._actions for option in action.option_strings}


def test_config_only_on_extract_and_adhere_and_extract_has_no_seed():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    with_config = {name for name, sub in subs.choices.items() if "--config" in _options(sub)}
    assert with_config == {"extract", "adhere"}
    assert "--seed" not in _options(subs.choices["extract"])
    assert all("--format" in _options(sub) for sub in subs.choices.values())


def test_config_on_other_subcommands_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["parse", "3 times day", "--config", "/nonexistent"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config /nonexistent" in capsys.readouterr().err


def _write_events(tmp_path, rows) -> str:
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    return str(events)


def _commands(tmp_path):
    """adhere and extract argvs that reach the point where ``--config`` is read."""
    intake = {"kind": "intake", "name": "m", "timestamp": "2026-03-02T08:00:00+00:00"}
    corpus, fewshot = str(tmp_path / "corpus.jsonl"), str(tmp_path / "fs.jsonl")
    return {
        "adhere": ["adhere", "--mtc", "in morning", "--timeline", _write_events(tmp_path, [intake])],
        "extract": ["extract", "--file", corpus, "--fewshot", fewshot, "--client", "http"],
    }


_BAD_CONFIGS = [
    ({"adherence": {"day_part_windows": {"morning": 5}}},
     'adherence.day_part_windows.morning: expected ["HH:MM", "HH:MM"] in local time, got 5'),
    ({"http": []}, "http: expected an object, got []"),
    ({"adherence": {"dependency_tolerance_mins": 5}}, "adherence.dependency_tolerance_mins: unknown key"),
    ({"adherence": []}, "adherence: expected an object, got []"),
    ({"decoding": {"max_tokens": 1.7}}, "decoding.max_tokens: expected an integer, got 1.7"),
    ({"decoding": {"temperature": True}}, "decoding.temperature: expected a number, got true"),
    ({"http": {"max_attempts": 0}}, "http.max_attempts: 0 is not within 1.."),
    ({"http": {"timeout": None}}, "http.timeout: expected a number, got null"),
    ({"logging": {}}, "logging: unknown key; expected one of http, decoding, adherence"),
    ({"adherence": {"consistency_tolerance_min": -1}},
     "adherence.consistency_tolerance_min: -1 is not within 0..525600"),
    ({"adherence": {"imprecision_horizon_min": 1e300}},
     "adherence.imprecision_horizon_min: 1e+300 is not within"),
    ({"adherence": {"day_part_windows": {"dusk": ["18:00", "20:00"]}}},
     "adherence.day_part_windows.dusk: unknown key; expected one of morning, evening, noon"),
    *(({"adherence": {"day_part_windows": {"noon": window}}}, "adherence.day_part_windows.noon: expected")
      for window in (["11:00", "13:00", "14:00"], ["11:00+01:00", "13:00"], ["11h", "13:00"])),
    ([1], "expected an object, got [1]"),
]


@pytest.mark.parametrize("command", ["adhere", "extract"])
@pytest.mark.parametrize("config, message", _BAD_CONFIGS)
def test_bad_config_exits_one_naming_path_and_key(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, _commands(tmp_path)[command] + ["--config", str(path)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: {message}")


@pytest.mark.parametrize("command", ["adhere", "extract"])
def test_malformed_config_json_exits_one(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text('{"adherence": ', encoding="utf-8")
    code, _, err = run(capsys, _commands(tmp_path)[command] + ["--config", str(path)])
    assert code == 1 and err.startswith(f"error: {path}: not JSON: ")


@pytest.mark.parametrize("value", ["1e300", "-1", "nan", "inf"])
def test_minute_flag_out_of_range_exits_one(tmp_path, capsys, value):
    argv = _commands(tmp_path)["adhere"] + ["--dependency-tolerance-min", value]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --dependency-tolerance-min: ") and "is not within 0..525600" in err


def test_adherence_settings_flag_over_config_over_default(tmp_path, capsys):
    rows = [
        {"kind": "intake", "name": "m", "timestamp": f"2026-03-0{day}T{clock}:00+00:00"}
        for day, clock in ((2, "08:00"), (3, "08:30"), (4, "10:30"))
    ]
    base = ["adhere", "--mtc", "at the same time each day", "--timeline", _write_events(tmp_path, rows)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"adherence": {"consistency_tolerance_min": 180}}), encoding="utf-8")
    assert run(capsys, base)[1].startswith("violated")  # default 60 minutes
    assert run(capsys, base + ["--config", str(config)])[1].startswith("satisfied")
    flagged = base + ["--config", str(config), "--consistency-tolerance-min", "60"]
    assert run(capsys, flagged)[1].startswith("violated")


@pytest.mark.parametrize(
    "windows, verdict",
    [
        ({"morning": ["07:00", "09:00"]}, "satisfied"),
        ({"morning": ["09:00", "12:00"]}, "violated"),
        ({"evening": ["17:00", "22:00"]}, "indeterminate"),  # the whole default set is replaced
    ],
)
def test_day_part_windows_replace_the_defaults(tmp_path, capsys, windows, verdict):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"adherence": {"day_part_windows": windows}}), encoding="utf-8")
    code, out, _ = run(capsys, _commands(tmp_path)["adhere"] + ["--config", str(config)])
    assert code == 0 and out.startswith(verdict)


class _FakeSession:
    """Stands in for ``requests.Session``: records each post and answers ``NONE``."""

    posts: list = []

    def post(self, url, json=None, headers=None, timeout=None):
        _FakeSession.posts.append({"url": url, "json": json, "timeout": timeout})
        return SimpleNamespace(status_code=200, json=lambda: {"text": "NONE"})


def _http_extract(tmp_path, pool, *extra):
    corpus, fewshot_file, _ = _prepare_replay_run(tmp_path, pool)
    argv = ["extract", "--file", str(corpus), "--fewshot", str(fewshot_file), "--strategy", "simple",
            "--client", "http", *extra]
    _FakeSession.posts = []
    with mock.patch("requests.Session", _FakeSession):
        code = cli.main(argv)
    assert code == 0
    return _FakeSession.posts[0]


def test_extract_http_defaults(tmp_path, pool, capsys):
    post = _http_extract(tmp_path, pool, "--base-url", "http://flag.invalid/v1")
    assert post["url"] == "http://flag.invalid/v1" and post["timeout"] == 60.0
    assert post["json"]["model"] == "" and "prompt" in post["json"]
    assert post["json"]["temperature"] == 0.0 and post["json"]["max_tokens"] == 256


def test_extract_http_settings_flag_over_config(tmp_path, pool, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "http": {"base_url": "http://config.invalid/v1", "model": "cfg", "use_messages": True, "timeout": 5},
        "decoding": {"temperature": 0, "max_tokens": 64},
    }), encoding="utf-8")
    post = _http_extract(tmp_path, pool, "--config", str(config), "--model", "flag", "--max-tokens", "32")
    assert post["url"] == "http://config.invalid/v1" and post["timeout"] == 5.0
    assert post["json"]["model"] == "flag" and "messages" in post["json"]
    assert post["json"]["max_tokens"] == 32
    assert post["json"]["temperature"] == 0.0 and isinstance(post["json"]["temperature"], float)


@pytest.fixture(scope="module")
def config_inputs(tmp_path_factory):
    """Timeline, corpus and few-shot files shared by every generated config."""
    base = tmp_path_factory.mktemp("config_inputs")
    dataset.dump_dugs([make_dug("h1", "Take it twice daily.", [])], base / "corpus.jsonl")
    dataset.dump_dugs(stratified_pool()[:4], base / "fs.jsonl")
    commands = _commands(base)
    commands["extract"] += ["--strategy", "simple", "--base-url", "http://flag.invalid/v1"]
    return base, commands


# Arbitrary JSON, and configs shaped like CONFIG_KEYS whose values may or may
# not have the right type, so that a share of the runs gets through to exit 0.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_CLOCKS = st.sampled_from(["05:00", "12:00", "23:59:59", "24:00", "8", "08:00+01:00", "", 5, None])
_WINDOWS = st.dictionaries(
    st.sampled_from(["morning", "noon", "evening", "dusk"]), st.lists(_CLOCKS, max_size=3) | _JSON, max_size=3
)
_NUMBERS = st.floats() | st.integers(-1, 10**6) | st.just(10**400)
_TYPED = {str: st.text(max_size=6), bool: st.booleans(), int: _NUMBERS, float: _NUMBERS, timedelta: _NUMBERS}
_CONFIGS = _JSON | st.fixed_dictionaries({}, optional={
    section: st.fixed_dictionaries({}, optional={
        key: (_WINDOWS if isinstance(kind, dict) else _TYPED[kind]) | _JSON for key, kind in keys.items()
    }) | _JSON
    for section, keys in cli.CONFIG_KEYS.items()
})


@settings(max_examples=150, deadline=None)
@given(config=_CONFIGS)
def test_any_json_config_exits_zero_or_one_without_traceback(config_inputs, config):
    base, commands = config_inputs
    path = base / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    for argv in commands.values():
        out, err = io.StringIO(), io.StringIO()
        # No URL is dialled: the session is a fake, and an exception here fails the test.
        with redirect_stdout(out), redirect_stderr(err), mock.patch("requests.Session", _FakeSession):
            code = cli.main(argv + ["--config", str(path)])
        assert code in (0, 1)
        assert code == 0 or err.getvalue().startswith(("error: ", "nonvalid: "))


# ------------------------------------------------------------ input files

#: A valid record of each file kind a subcommand reads.
_RECORDS = {
    "corpus": {"id": "a", "source": "fda", "text": "Take it twice daily.", "labels": ["2 times day"]},
    "pred": {
        "dug_id": "a",
        "candidates": [{"text": "2 times day", "valid": True, "reason": None}],
        "predictions": ["2 times day"],
    },
    "timeline": {"kind": "intake", "name": "m", "timestamp": "2026-03-02T08:00:00+00:00"},
    "text": {"text": "Take one tablet b.i.d. with food", "candidates": "2 times day; before sleep"},
}

#: Each subcommand that reads a file: the kind of the file fuzzed and its argv,
#: given the fuzzed file ``f`` and the valid input files ``v``.
_FILE_COMMANDS = {
    "dataset-stats": ("corpus", lambda f, v: ["dataset-stats", "--file", f]),
    "rules-classify --eval": ("corpus", lambda f, v: ["rules-classify", "--file", f, "--eval"]),
    "fewshot-select": ("corpus", lambda f, v: ["fewshot-select", "--file", f, "--k", "1"]),
    "eval --gold": ("corpus", lambda f, v: ["eval", "--gold", f, "--pred", v["pred"]]),
    "eval --pred": ("pred", lambda f, v: ["eval", "--gold", v["corpus"], "--pred", f]),
    "extract --file": ("corpus", lambda f, v: [
        "extract", "--file", f, "--fewshot", v["fewshot"], *v["replay"]
    ]),
    "extract --fewshot": ("corpus", lambda f, v: [
        "extract", "--file", v["corpus"], "--fewshot", f, *v["replay"]
    ]),
    "adhere --timeline": ("timeline", lambda f, v: ["adhere", "--mtc", "in morning", "--timeline", f]),
    "extract-ehr --file": ("text", lambda f, v: ["extract-ehr", "--file", f]),
    "validate --file": ("text", lambda f, v: ["validate", "--file", f]),
    "normalize --file": ("text", lambda f, v: ["normalize", "--file", f]),
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """The valid input files beside the fuzzed one; the fixtures file stays empty."""
    base = tmp_path_factory.mktemp("input_files")
    for kind in ("corpus", "pred"):
        (base / f"{kind}.jsonl").write_text(json.dumps(_RECORDS[kind]) + "\n", encoding="utf-8")
    dataset.dump_dugs(stratified_pool()[:4], base / "fewshot.jsonl")
    (base / "fixtures.jsonl").write_bytes(b"")
    valid = {kind: str(base / f"{kind}.jsonl") for kind in ("corpus", "pred", "fewshot")}
    valid["replay"] = ["--client", "replay", "--fixtures", str(base / "fixtures.jsonl")]
    return base / "fuzzed.jsonl", valid


def _file_contents(record: dict):
    """Arbitrary bytes, or lines of arbitrary JSON, of ``record``, or of ``record``
    with one field replaced by arbitrary JSON."""
    replaced = st.sampled_from(sorted(record)).flatmap(
        lambda key: _JSON.map(lambda value: {**record, key: value})
    )
    lines = st.lists(_JSON | replaced | st.just(record), min_size=1, max_size=3)
    return st.binary(max_size=80) | lines.map(lambda rows: "\n".join(map(json.dumps, rows)).encode())


@pytest.mark.parametrize("command", sorted(_FILE_COMMANDS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_input_file_exits_zero_or_one_without_traceback(input_files, command, data):
    fuzzed, valid = input_files
    kind, argv = _FILE_COMMANDS[command]
    content = data.draw(_file_contents(_RECORDS[kind]))
    fuzzed.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv(str(fuzzed), valid))
    assert code in (0, 1)
    assert code == 0 or err.getvalue().startswith(("error: ", "nonvalid: "))
    if not _is_utf8(content):  # only the arbitrary-bytes branch draws these
        assert code == 1 and err.getvalue().startswith(f"error: {fuzzed}:")


def _is_utf8(content: bytes) -> bool:
    try:
        content.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


# A rule table's fields: constraint types valid and not, and patterns made of
# placeholders, regex metacharacters, words and arbitrary text.
_RULE_FIELDS = (
    st.sampled_from(["1", "2", "7", "0", "8", "x", "٣"])
    | st.lists(
        st.sampled_from(["{num}", "{clock}", "{", "}", "(", "\\", "*", " ", "twice", "daily"])
        | st.text(max_size=3),
        max_size=4,
    ).map("".join)
)
_RULE_TABLES = st.lists(
    st.lists(_RULE_FIELDS, min_size=1, max_size=3).map("\t".join), min_size=1, max_size=4
).map(lambda rows: "\n".join(rows).encode())


@settings(max_examples=150, deadline=None)
@given(table=st.binary(max_size=80) | _RULE_TABLES)
def test_any_rule_table_exits_zero_or_one_without_traceback(input_files, table):
    fuzzed, valid = input_files
    fuzzed.write_bytes(table)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["rules-classify", "--file", valid["corpus"], "--rules", str(fuzzed), "--eval"])
    assert code in (0, 1)
    assert code == 0 or err.getvalue().startswith("error: ")


@pytest.fixture(scope="module")
def replay_fixture(tmp_path_factory):
    """A one-guideline simple-strategy extract run, its fixtures file and its prompt."""
    base = tmp_path_factory.mktemp("replay_fixture")
    dug, examples = make_dug("a", "Take it twice daily.", ["2 times day"]), stratified_pool()[:4]
    dataset.dump_dugs([dug], base / "corpus.jsonl")
    dataset.dump_dugs(examples, base / "fewshot.jsonl")
    prompt = build_prompt(default_template("simple"), fewshot_from_dugs(examples), dug)
    fixtures = base / "fixtures.jsonl"
    argv = ["extract", "--file", str(base / "corpus.jsonl"), "--fewshot", str(base / "fewshot.jsonl"),
            "--strategy", "simple", "--client", "replay", "--fixtures", str(fixtures)]
    return argv, fixtures, prompt


def _replay_run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=40))
def test_any_replay_fixture_gives_its_text_or_a_failed_record(replay_fixture, text):
    argv, fixtures, prompt = replay_fixture
    fixtures.unlink(missing_ok=True)
    ReplayClient(fixtures).store(prompt, text)
    code, out, _ = _replay_run(argv)
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    # Verbatim but for universal newlines, as text-mode reading gives it.
    expected = text.replace("\r\n", "\n").replace("\r", "\n")
    assert record["error"] is None and [call["text"] for call in record["raw_outputs"]] == [expected]


def _fixture_rows(content: bytes) -> list[dict] | None:
    """The records of a fixtures file, or None when a line is not UTF-8 or not a record."""
    rows = []
    for raw in content.split(b"\n"):
        try:
            line = raw.removesuffix(b"\r").decode("utf-8")
            if not line.strip():
                continue
            row = json.loads(line)
        except ValueError:
            return None
        if not (isinstance(row, dict) and set(row) == {"fingerprint", "text"} and isinstance(row["text"], str)
                and isinstance(row["fingerprint"], str) and re.fullmatch("[0-9a-f]{64}", row["fingerprint"])):
            return None
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_replay_fixtures_file_gives_a_record_or_names_its_bad_line(replay_fixture, data):
    argv, fixtures, prompt = replay_fixture
    fingerprint = prompt_fingerprint(prompt)
    records = st.sampled_from([{"fingerprint": fingerprint, "text": "in morning"},
                               {"fingerprint": "0" * 64, "text": "x"}])
    lines = st.lists(records | _JSON, min_size=1, max_size=3)
    content = data.draw(st.binary(max_size=80) | lines.map(lambda rows: "\n".join(map(json.dumps, rows)).encode()))
    fixtures.write_bytes(content)
    code, out, err = _replay_run(argv)
    rows = _fixture_rows(content)
    if rows is None:
        assert code == 1 and out == "" and err.startswith(f"error: {fixtures}:")
        return
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    texts = [row["text"] for row in rows if row["fingerprint"] == fingerprint]
    if texts:
        assert record["error"] is None and [call["text"] for call in record["raw_outputs"]] == texts[-1:]
    else:
        assert record["error"] == f"no replay fixture {fingerprint} in {fixtures}"
        assert record["raw_outputs"] == [] and record["predictions"] == []


@pytest.mark.parametrize("kind", ["directory", "parent is a file"])
def test_extract_unreadable_fixtures_path_exits_one_naming_it(tmp_path, replay_fixture, kind):
    argv, _, _ = replay_fixture
    path = tmp_path / "fixtures.jsonl"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text("")
        path = path / "fixtures.jsonl"
    code, out, err = _replay_run([*argv[:-1], str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(path) in err
