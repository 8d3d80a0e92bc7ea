"""Command-line entry point.

One subcommand per pipeline stage: ``parse``, ``validate``, ``normalize``,
``dataset-stats``, ``extract-ehr``, ``rules-classify``, ``fewshot-select``,
``extract``, ``eval``, ``adhere``. Every subcommand supports
``--format json-lines`` for machine-readable, byte-stable output; progress
and notes go to standard error only. ``extract`` and ``adhere`` also take
``--config``, a JSON file whose ``http``, ``decoding`` and ``adherence``
sections (:data:`CONFIG_KEYS`) set defaults that flags of the same name
override; :func:`load_config` rejects an unknown key, a wrong type or an
out-of-range value. Exit status is 0 on success, 1 on an operational error
(bad input is reported as ``error: <where>: <reason>``, never a traceback),
2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import time, timedelta
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


def _emit(obj: dict, out=None) -> None:
    print(json.dumps(obj, sort_keys=True), file=out or sys.stdout)


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


def cmd_parse(args) -> int:
    mtc = grammar.parse_mtc(args.text)
    record = grammar.mtc_to_dict(mtc)
    if args.format == "json-lines":
        _emit(record)
    else:
        print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _read_lines(args) -> list[str]:
    if args.text is not None:
        return [args.text]
    return tables.read_lines(args.file, str)


def cmd_validate(args) -> int:
    lines = _read_lines(args)
    flags = [grammar.is_valid(line) for line in lines]
    rate = sum(flags) / len(flags) if flags else 1.0
    if args.format == "json-lines":
        for line, valid in zip(lines, flags):
            _emit({"text": line, "valid": valid})
        _emit({"validity_rate": rate})
    else:
        print(f"{rate:g}")
    return 0


def cmd_normalize(args) -> int:
    for raw in _read_lines(args):
        result = normalize.normalize_raw_output(raw)
        if args.format == "json-lines":
            _emit(
                {
                    "raw": raw,
                    "candidates": list(result.candidates),
                    "dropped": [{"segment": d.segment, "reason": d.reason} for d in result.dropped],
                }
            )
        else:
            print("; ".join(result.candidates))
    return 0


def cmd_dataset_stats(args) -> int:
    stats = dataset.dataset_stats(dataset.load_dugs(args.file))
    if args.format == "json-lines":
        _emit(stats.to_dict())
        return 0
    print(f"guidelines: {stats.n_dugs}")
    for source, count in sorted(stats.dugs_per_source.items()):
        print(f"  {source}: {count}")
    print(f"constraint instances: {stats.n_mtcs}")
    for source, dist in sorted(stats.type_distribution.items()):
        shares = ", ".join(f"type {t}: {pct:.2f}%" for t, pct in sorted(dist.items()))
        print(f"  {source}: {shares}")
    return 0


def _read_report(path: str) -> str:
    """The text ``Path.read_text`` gives, naming a byte that is not UTF-8 as ``<path>:<line>``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: {exc}") from None


def cmd_extract_ehr(args) -> int:
    report_text = _read_report(args.file)
    dugs = dataset.extract_ehr_statements(
        report_text, min_tokens=args.min_tokens, max_tokens=args.max_tokens
    )
    if args.out:
        dataset.dump_dugs(dugs, args.out)
        _note(f"wrote {len(dugs)} statements to {args.out}")
    for dug in dugs:
        if args.format == "json-lines":
            _emit(dug.to_dict())
        else:
            print(f"{dug.id}\t{'; '.join(dug.label_strings)}\t{dug.text}")
    return 0


def cmd_rules_classify(args) -> int:
    dugs = dataset.load_dugs(args.file)
    rules = rulebase.load_type_rules(args.rules) if args.rules else rulebase.default_type_rules()
    preds = rulebase.classify_corpus(dugs, rules)
    for pred in preds:
        if args.format == "json-lines":
            _emit({"dug_id": pred.dug_id, "types": sorted(pred.types)})
        else:
            types = ",".join(str(t) for t in sorted(pred.types)) or "-"
            print(f"{pred.dug_id}\t{types}")
    if args.eval:
        report = rulebase.evaluate_type_classifier(dugs, preds)
        if args.format == "json-lines":
            _emit(report.to_dict())
        else:
            rows = [(f"type {t}", m, f"  support {m.support}") for t, m in sorted(report.per_type.items())]
            for name, s, note in rows + [("macro", report.macro, "")]:
                print(f"{name}: precision {s.precision:.3f}  recall {s.recall:.3f}  f1 {s.f1:.3f}{note}")
    return 0


def cmd_fewshot_select(args) -> int:
    pool = dataset.load_dugs(args.file)
    fewshot = select_fewshot(pool, k=args.k, seed=args.seed)
    if fewshot.gaps:
        _note(f"pool lacks strata: {', '.join(fewshot.gaps)}")
    lines = [json.dumps(pair.to_dict(), sort_keys=True) for pair in fewshot.pairs]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        _note(f"wrote {len(lines)} few-shot examples to {args.out}")
    for line in lines:
        print(line)
    return 0


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


def cmd_extract(args) -> int:
    try:
        strategy = PromptStrategy(args.strategy, args.types)
    except ValueError as exc:
        raise ValueError(f"--types: {exc}") from None
    config = load_config(args.config)
    client = _build_client(args, config)
    dugs = dataset.load_dugs(args.file)
    fewshot = fewshot_from_dugs(dataset.load_dugs(args.fewshot))
    kept = exclude_fewshot(dugs, fewshot)
    if len(kept) != len(dugs):
        _note(f"excluded {len(dugs) - len(kept)} few-shot guideline(s) from extraction")
    records = iter_extract_corpus(
        kept, strategy, fewshot, client, parallelism=args.parallelism, **_settings(args, config, "decoding")
    )
    out_fp = open(args.out, "w", encoding="utf-8") if args.out else None
    failures = 0
    try:
        for record in records:
            if record.failed:
                failures += 1
            line = json.dumps(record.to_dict(), sort_keys=True)
            print(line)
            if out_fp:
                out_fp.write(line + "\n")
    finally:
        if out_fp:
            out_fp.close()
    if failures:
        _note(f"{failures} record(s) marked failed after retries")
    return 0


def cmd_eval(args) -> int:
    gold = dataset.load_dugs(args.gold)
    try:
        report = evaluation.evaluate(gold, evaluation.load_predictions(args.pred))
    except evaluation.MismatchedIdsError as exc:
        raise ValueError(f"{args.pred}: {exc}") from None
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _note(f"wrote report to {args.out}")
    if args.format == "json-lines":
        _emit(report.to_dict())
    else:
        print(report.format_table())
    return 0


def _tolerances(args, config: dict) -> adherence.ToleranceConfig:
    settings = _settings(args, config, "adherence")
    return adherence.ToleranceConfig(**{key.removesuffix("_min"): value for key, value in settings.items()})


def cmd_adhere(args) -> int:
    config = load_config(args.config)
    mtc = grammar.parse_mtc(args.mtc)
    window = (
        adherence.parse_timestamp(args.window_start) if args.window_start else None,
        adherence.parse_timestamp(args.window_end) if args.window_end else None,
    )
    try:
        timeline = adherence.load_timeline(args.timeline, window)
    except ValueError as exc:
        if isinstance(exc, tables.FileFormatError) or None not in window:
            raise
        # An open bound defaults to the span of the file's events, so the file is named.
        raise ValueError(f"{args.timeline}: {exc}; give --window-start and --window-end") from None
    verdict = adherence.check(mtc, timeline, _tolerances(args, config))
    if args.format == "json-lines":
        _emit(
            {
                "mtc": grammar.serialize(mtc),
                "status": verdict.status.value,
                "explanation": verdict.explanation,
            }
        )
    else:
        print(f"{verdict.status.value}: {verdict.explanation}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtc", description="Medical temporal constraint toolkit"
    )
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
    p.add_argument("--out", help="also write the statements as a corpus file")
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
    p.add_argument("--out", help="also write the selection to a file")
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
    p.add_argument("--out", help="also write records to a file")
    p.add_argument("--config", help="JSON config file (http, decoding sections)")
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("eval", help="score extraction records against gold")
    p.add_argument("--gold", required=True, help="gold corpus file (JSON lines)")
    p.add_argument("--pred", required=True, help="extraction records file (JSON lines)")
    p.add_argument("--out", help="write the machine-readable report to a file")
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

    for sub in subs.choices.values():
        sub.add_argument("--format", choices=("text", "json-lines"), default="text",
                         help="output format (json-lines is machine-readable and byte-stable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonvalidMtcError as exc:
        print(f"nonvalid: {exc.reason}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
