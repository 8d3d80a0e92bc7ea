"""Command-line surface: one test per subcommand plus exit-code contract."""

from __future__ import annotations

import json

import pytest

from mtckit import cli, dataset
from mtckit.icl import ReplayClient, build_prompt, default_template, fewshot_from_dugs, gold_answer


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


def _prepare_replay_run(tmp_path, pool):
    """Corpus, few-shot file, and stocked fixtures for a simple-strategy run."""
    corpus = tmp_path / "corpus.jsonl"
    dataset.dump_dugs(pool, corpus)
    fewshot_dugs = pool[:4]
    fewshot_file = tmp_path / "fewshot.jsonl"
    dataset.dump_dugs(fewshot_dugs, fewshot_file)
    fewshot = fewshot_from_dugs(fewshot_dugs)
    fixtures = tmp_path / "fixtures"
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


def test_adhere_malformed_timeline_exits_one(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text('{"kind": "intake", "name": "m", "timestamp": 5}\n', encoding="utf-8")
    code, _, err = run(capsys, ["adhere", "--mtc", "2 times day", "--timeline", str(events)])
    assert code == 1
    assert f"{events}:1: bad timeline record" in err


def test_dataset_stats_non_string_label_exits_one(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    record = {"id": "a", "source": "fda", "text": "Take it.", "labels": [5]}
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code, _, err = run(capsys, ["dataset-stats", "--file", str(corpus)])
    assert code == 1
    assert "line 1: gold label 5 is not a string" in err and "Traceback" not in err


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
