"""Command-line entry point.

One subcommand per pipeline stage: ``parse``, ``validate``, ``normalize``,
``dataset-stats``, ``extract-ehr``, ``rules-classify``, ``fewshot-select``,
``extract``, ``eval``, ``adhere``. Each ``cmd_*`` yields ``(record, text)``
pairs and :func:`main` alone writes them: the record as a JSON line under
``--format json-lines`` (machine-readable, byte-stable), else the text,
unless it is ``None``. ``extract-ehr``, ``fewshot-select`` and ``extract``
also copy the JSON lines to ``--out``. Progress and notes go to standard
error only. ``extract`` and ``adhere`` also take ``--config``, a JSON file
whose ``http``, ``decoding`` and ``adherence`` sections (:data:`CONFIG_KEYS`)
set defaults that flags of the same name override; :func:`load_config`
rejects an unknown key, a wrong type or an out-of-range value. Exit status
is 0 on success, 1 on an operational error (bad input is reported as
``error: <where>: <reason>``, never a traceback), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from datetime import time, timedelta
from itertools import chain
from pathlib import Path

from . import adherence, dataset, evaluation, grammar, normalize, rulebase, tables
from .grammar import NonvalidMtcError
from .icl import (
    SPECIALIZED_DEFAULT_TYPES,
    HttpCompletionClient,
    PromptStrategy,
    ReplayClient,
    exclude_fewshot,
    fewshot_from_dugs,
    iter_extract_corpus,
    select_fewshot,
)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


#: Every ``--config`` key by section, with the type its value is read as:
#: ``timedelta`` from minutes, ``tuple`` from a local ``["HH:MM", "HH:MM"]`` window.
CONFIG_KEYS = {
    "http": {"base_url": str, "model": str, "use_messages": bool, "timeout": float, "max_attempts": int,
             "backoff": float},
    "decoding": {"temperature": float, "max_tokens": int},
    "adherence": {"dependency_tolerance_min": timedelta, "imprecision_horizon_min": timedelta,
                  "consistency_tolerance_min": timedelta,
                  "day_part_windows": dict.fromkeys(grammar.DayPart, tuple)},
}
_KIND_NAMES = {str: "a string", bool: "true or false", int: "an integer", float: "a number",
               timedelta: "a number of minutes"}
#: Counts start at 1 and other numbers at 0, and all are finite; a tolerance
#: beyond a year means nothing and could overflow timestamp arithmetic.
_RANGES = {int: (1, sys.float_info.max), float: (0, sys.float_info.max), timedelta: (0, 365 * 24 * 60)}


def load_config(path: str | None) -> dict[str, dict]:
    """The sections a ``--config`` JSON file sets, holding the keys it sets read as
    :data:`CONFIG_KEYS` says. Raises ``ValueError("<path>: <section>.<key>: <reason>")``
    for an unknown key, a wrong type or an out-of-range value, and for malformed JSON.
    """
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    return _checked(raw, CONFIG_KEYS, path, sep=": ")


def _checked(value, kind, where: str, sep: str = "."):
    """``value`` read as ``kind``: a type, or a dict of the kinds of an object's
    keys (an enum key is written as its value). A bool is not a number, and
    1.7 is not an integer. Errors start with ``where``."""
    if isinstance(kind, dict):
        if type(value) is not dict:
            raise ValueError(f"{where}: expected an object, got {json.dumps(value)}")
        names = {getattr(key, "value", key): key for key in kind}
        checked = {}
        for name, item in value.items():
            if name not in names:
                raise ValueError(f"{where}{sep}{name}: unknown key; expected one of {', '.join(names)}")
            checked[names[name]] = _checked(item, kind[names[name]], f"{where}{sep}{name}")
        return checked
    if kind is tuple:
        try:
            start, end = (time.fromisoformat(clock) for clock in value)
            if type(value) is list and start.tzinfo is end.tzinfo is None:
                return start, end
        except (TypeError, ValueError):
            pass
        raise ValueError(f'{where}: expected ["HH:MM", "HH:MM"] in local time, got {json.dumps(value)}')
    if type(value) not in ((int, float) if kind in (float, timedelta) else (kind,)):
        raise ValueError(f"{where}: expected {_KIND_NAMES[kind]}, got {json.dumps(value)}")
    if kind in _RANGES:
        low, high = _RANGES[kind]
        if not low <= value <= high:
            raise ValueError(f"{where}: {json.dumps(value)} is not within {low}..{high:g}")
    return timedelta(minutes=value) if kind is timedelta else float(value) if kind is float else value


def _settings(args, config: dict, section: str) -> dict:
    """A config section with each flag of the same name that was given laid over it."""
    settings = dict(config.get(section, {}))
    for key, kind in CONFIG_KEYS[section].items():
        if getattr(args, key, None) is not None:
            settings[key] = _checked(getattr(args, key), kind, "--" + key.replace("_", "-"))
    return settings


def _flag(name: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a ``ValueError`` it raises names the flag ``name``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


#: As a record's text: text mode prints the record's JSON line, as json-lines mode does.
_JSON_LINE = object()


def cmd_parse(args):
    record = grammar.mtc_to_dict(grammar.parse_mtc(args.text))
    yield record, json.dumps(record, indent=2, sort_keys=True)


def _read_lines(args) -> list[str]:
    if args.text is not None:
        return [args.text]
    return tables.read_lines(args.file, str)


def cmd_validate(args):
    lines = _read_lines(args)
    flags = [grammar.is_valid(line) for line in lines]
    for line, valid in zip(lines, flags):
        yield {"text": line, "valid": valid}, None
    rate = sum(flags) / len(flags) if flags else 1.0
    yield {"validity_rate": rate}, f"{rate:g}"


def cmd_normalize(args):
    for raw in _read_lines(args):
        result = normalize.normalize_raw_output(raw)
        dropped = [{"segment": d.segment, "reason": d.reason} for d in result.dropped]
        yield {"raw": raw, "candidates": list(result.candidates), "dropped": dropped}, "; ".join(result.candidates)


def cmd_dataset_stats(args):
    stats = dataset.dataset_stats(dataset.load_dugs(args.file))
    lines = [f"guidelines: {stats.n_dugs}"]
    lines += [f"  {source}: {count}" for source, count in sorted(stats.dugs_per_source.items())]
    lines.append(f"constraint instances: {stats.n_mtcs}")
    for source, dist in sorted(stats.type_distribution.items()):
        shares = ", ".join(f"type {t}: {pct:.2f}%" for t, pct in sorted(dist.items()))
        lines.append(f"  {source}: {shares}")
    yield stats.to_dict(), "\n".join(lines)


def _read_report(path: str) -> str:
    """The text ``Path.read_text`` gives, naming a byte that is not UTF-8 as ``<path>:<line>``."""
    data = Path(path).read_bytes()
    try:
        return tables.universal_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: {exc}") from None


def cmd_extract_ehr(args):
    report_text = _read_report(args.file)
    for dug in dataset.extract_ehr_statements(report_text, min_tokens=args.min_tokens, max_tokens=args.max_tokens):
        yield dug.to_dict(), f"{dug.id}\t{'; '.join(dug.label_strings)}\t{dug.text}"


def cmd_rules_classify(args):
    dugs = dataset.load_dugs(args.file)
    rules = rulebase.load_type_rules(args.rules) if args.rules else rulebase.default_type_rules()
    preds = rulebase.classify_corpus(dugs, rules)
    for pred in preds:
        types = sorted(pred.types)
        yield {"dug_id": pred.dug_id, "types": types}, f"{pred.dug_id}\t{','.join(map(str, types)) or '-'}"
    if args.eval:
        report = rulebase.evaluate_type_classifier(dugs, preds)
        rows = [(f"type {t}", m, f"  support {m.support}") for t, m in sorted(report.per_type.items())]
        yield report.to_dict(), "\n".join(
            f"{name}: precision {s.precision:.3f}  recall {s.recall:.3f}  f1 {s.f1:.3f}{note}"
            for name, s, note in rows + [("macro", report.macro, "")]
        )


def cmd_fewshot_select(args):
    fewshot = select_fewshot(dataset.load_dugs(args.file), k=args.k, seed=args.seed)
    if fewshot.gaps:
        _note(f"pool lacks strata: {', '.join(fewshot.gaps)}")
    for pair in fewshot.pairs:
        yield pair.to_dict(), _JSON_LINE


def _build_client(args, config: dict):
    if args.client == "replay":
        if not args.fixtures:
            raise ValueError("--client replay requires --fixtures FILE")
        if not Path(args.fixtures).exists():  # ReplayClient would read it as an empty table
            raise ValueError(f"--fixtures: no such file: {args.fixtures}")
        return ReplayClient(args.fixtures)
    http = _settings(args, config, "http")
    if not http.get("base_url"):
        raise ValueError("--client http requires --base-url (or http.base_url in --config)")
    return HttpCompletionClient(http.pop("base_url"), http.pop("model", ""), **http)


def _type_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated type numbers, got {text!r}") from None


def cmd_extract(args):
    strategy = _flag("--types", PromptStrategy, args.strategy, args.types)
    config = load_config(args.config)
    client = _build_client(args, config)
    dugs = dataset.load_dugs(args.file)
    fewshot = fewshot_from_dugs(dataset.load_dugs(args.fewshot))
    kept = exclude_fewshot(dugs, fewshot)
    decoding = _settings(args, config, "decoding")
    records = _flag("--parallelism", iter_extract_corpus, kept, strategy, fewshot, client, args.parallelism,
                    **decoding)
    if len(kept) != len(dugs):
        _note(f"excluded {len(dugs) - len(kept)} few-shot guideline(s) from extraction")
    failures = 0
    for record in records:
        failures += record.failed
        yield record.to_dict(), _JSON_LINE
    if failures:
        _note(f"{failures} record(s) marked failed after retries")


def cmd_eval(args):
    gold = dataset.load_dugs(args.gold)
    try:
        report = evaluation.evaluate(gold, evaluation.load_predictions(args.pred))
    except evaluation.MismatchedIdsError as exc:
        raise ValueError(f"{args.pred}: {exc}") from None
    record = report.to_dict()
    if args.report:
        Path(args.report).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        _note(f"wrote report to {args.report}")
    yield record, report.format_table()


def _tolerances(args, config: dict) -> adherence.ToleranceConfig:
    settings = _settings(args, config, "adherence")
    return adherence.ToleranceConfig(**{key.removesuffix("_min"): value for key, value in settings.items()})


def cmd_adhere(args):
    config = load_config(args.config)
    mtc = grammar.parse_mtc(args.mtc)
    window = (
        _flag("--window-start", adherence.parse_timestamp, args.window_start) if args.window_start else None,
        _flag("--window-end", adherence.parse_timestamp, args.window_end) if args.window_end else None,
    )
    try:
        timeline = adherence.load_timeline(args.timeline, window)
    except ValueError as exc:
        if isinstance(exc, tables.FileFormatError) or None not in window:
            raise
        # An open bound defaults to the span of the file's events, so the file is named.
        raise ValueError(f"{args.timeline}: {exc}; give --window-start and --window-end") from None
    verdict = adherence.check(mtc, timeline, _tolerances(args, config))
    record = {"mtc": grammar.serialize(mtc), "status": verdict.status.value, "explanation": verdict.explanation}
    yield record, f"{verdict.status.value}: {verdict.explanation}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mtc", description="Medical temporal constraint toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse one constraint string")
    p.add_argument("text")
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("validate", help="grammar validity of candidate strings")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="file with one candidate per line")
    group.add_argument("--text", help="a single candidate string")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("normalize", help="post-process raw completion output")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="file with one raw output per line")
    group.add_argument("--text", help="a single raw output")
    p.set_defaults(func=cmd_normalize)

    p = subs.add_parser("dataset-stats", help="corpus counts and type distribution")
    p.add_argument("--file", required=True, help="corpus file (JSON lines)")
    p.set_defaults(func=cmd_dataset_stats)

    p = subs.add_parser("extract-ehr", help="mine labeled statements from a medical report")
    p.add_argument("--file", required=True, help="plain-text report")
    p.add_argument("--min-tokens", type=int, default=4)
    p.add_argument("--max-tokens", type=int, default=60)
    p.set_defaults(func=cmd_extract_ehr)

    p = subs.add_parser("rules-classify", help="phrase-pattern constraint-type baseline")
    p.add_argument("--file", required=True, help="corpus file (JSON lines)")
    p.add_argument("--rules", help="rule table (type<TAB>pattern); default: bundled table")
    p.add_argument("--eval", action="store_true", help="also score against gold labels")
    p.set_defaults(func=cmd_rules_classify)

    p = subs.add_parser("fewshot-select", help="pick the stratified few-shot examples")
    p.add_argument("--file", required=True, help="pool corpus file (JSON lines)")
    p.add_argument("--k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fewshot_select)

    p = subs.add_parser("extract", help="run a prompting strategy over a corpus")
    p.add_argument("--file", required=True, help="corpus file (JSON lines)")
    p.add_argument("--fewshot", required=True, help="few-shot examples file (corpus format)")
    p.add_argument("--strategy", choices=("simple", "guided", "specialized"), default="specialized")
    p.add_argument("--types", type=_type_list, default=(), help="comma-separated types, specialized only "
                   f"(default {','.join(map(str, SPECIALIZED_DEFAULT_TYPES))})")
    p.add_argument("--client", choices=("http", "replay"), default="replay")
    p.add_argument("--fixtures", help="replay fixtures file (JSON lines of fingerprint and text)")
    p.add_argument("--base-url", help="completion service URL (http client)")
    p.add_argument("--model", help="model name sent to the service")
    p.add_argument("--use-messages", action="store_true", default=None, help="send messages, not a prompt")
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--max-tokens", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--config", help="JSON config file (http, decoding sections)")
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("eval", help="score extraction records against gold")
    p.add_argument("--gold", required=True, help="gold corpus file (JSON lines)")
    p.add_argument("--pred", required=True, help="extraction records file (JSON lines)")
    # Not a copy of the output lines, so not ``out`` (see main).
    p.add_argument("--out", dest="report", help="write the machine-readable report to a file")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("adhere", help="check one constraint against an event timeline")
    p.add_argument("--mtc", required=True, help="constraint string")
    p.add_argument("--timeline", required=True, help="timeline file (JSON lines)")
    p.add_argument("--window-start", help="ISO-8601 start of the evaluation window")
    p.add_argument("--window-end", help="ISO-8601 end of the evaluation window")
    p.add_argument("--dependency-tolerance-min", type=float, default=None)
    p.add_argument("--imprecision-horizon-min", type=float, default=None)
    p.add_argument("--consistency-tolerance-min", type=float, default=None)
    p.add_argument("--config", help="JSON config file (adherence section)")
    p.set_defaults(func=cmd_adhere)

    for name in ("extract-ehr", "fewshot-select", "extract"):
        subs.choices[name].add_argument("--out", help="also write the JSON lines to a file")
    for sub in subs.choices.values():
        sub.add_argument("--format", choices=("text", "json-lines"), default="text",
                         help="output format (json-lines is machine-readable and byte-stable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write each record it yields as its JSON line or its
    text (``--format``), and its JSON line to ``--out``. That file is opened at the
    first record, or at the end, so a failure before the first leaves it untouched."""
    args = build_parser().parse_args(argv)
    json_lines, out_path = args.format == "json-lines", getattr(args, "out", None)
    try:
        results = args.func(args)
        first = next(results, None)
        count = 0
        with open(out_path, "w", encoding="utf-8") if out_path else nullcontext() as out:
            for count, (record, text) in enumerate(chain([first], results) if first else (), 1):
                line = json.dumps(record, sort_keys=True)
                if json_lines or text is _JSON_LINE:
                    print(line)
                elif text is not None:
                    print(text)
                if out:
                    out.write(line + "\n")
        if out_path:
            _note(f"wrote {count} record(s) to {out_path}")
    except NonvalidMtcError as exc:
        print(f"nonvalid: {exc.reason}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
