"""Independent brute-force oracles for cross-checking the library's metrics.

Everything here recomputes results from first principles: explicit
indicator matrices, direct pair enumeration, exact rational arithmetic via
``fractions.Fraction``, and adherence verdicts by scanning every event for
every intake or period. No metric or verdict code is shared with the
package; only the grammar is reused to canonicalize candidate strings,
since the label mapping contract is defined in terms of it, and the
uncached activity normalization to match activity names.
"""

from __future__ import annotations

from datetime import time, timedelta
from fractions import Fraction

from mtckit import grammar
from mtckit.normalize import normalize_activity

UNDEFINED = "undefined"


def oracle_map_label(candidate: str, space: tuple[str, ...]) -> str:
    try:
        canonical = grammar.serialize(grammar.parse_mtc(candidate))
    except grammar.NonvalidMtcError:
        return UNDEFINED
    if canonical == UNDEFINED or canonical not in space:
        return UNDEFINED
    return canonical


def _f1(p: Fraction, r: Fraction) -> Fraction:
    return 2 * p * r / (p + r) if p + r else Fraction(0)


def _mean(values: list[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values) if values else Fraction(1)


def oracle_evaluate(
    gold: list[tuple[str, list[str]]],
    predictions: list[tuple[str, list[str]]],
    space: tuple[str, ...],
) -> dict:
    """Brute-force metrics from (dug_id, gold labels) and (dug_id, candidates).

    Returns floats under the same conventions the package documents:
    zero-division scores 0, empty-vs-empty guidelines score 1, averages
    over nothing score 1.
    """
    pred_map = {dug_id: candidates for dug_id, candidates in predictions}
    assert set(pred_map) == {dug_id for dug_id, _ in gold}

    # explicit per-guideline indicator rows over the whole space
    gold_rows: list[dict[str, bool]] = []
    pred_rows: list[dict[str, bool]] = []
    for dug_id, labels in gold:
        mapped = {oracle_map_label(c, space) for c in pred_map[dug_id]}
        gold_rows.append({label: label in set(labels) for label in space})
        pred_rows.append({label: label in mapped for label in space})

    per_label: dict[str, dict[str, float]] = {}
    included: list[str] = []
    macro_p: list[Fraction] = []
    macro_r: list[Fraction] = []
    macro_f: list[Fraction] = []
    for label in space:
        tp = fp = fn = 0
        support = predicted = 0
        for g_row, p_row in zip(gold_rows, pred_rows):
            g, p = g_row[label], p_row[label]
            tp += g and p
            fp += (not g) and p
            fn += g and (not p)
            support += g
            predicted += p
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f1 = _f1(precision, recall)
        per_label[label] = {
            "precision": float(precision),
            "recall": float(recall),
            "f1": float(f1),
            "support": support,
            "predicted": predicted,
        }
        if support > 0 or (label == UNDEFINED and predicted > 0):
            included.append(label)
            macro_p.append(precision)
            macro_r.append(recall)
            macro_f.append(f1)

    def example_block(rows: list[tuple[dict, dict]]) -> dict[str, float]:
        ps: list[Fraction] = []
        rs: list[Fraction] = []
        fs: list[Fraction] = []
        for g_row, p_row in rows:
            g_on = [label for label in space if g_row[label]]
            p_on = [label for label in space if p_row[label]]
            if not g_on and not p_on:
                ps.append(Fraction(1))
                rs.append(Fraction(1))
                fs.append(Fraction(1))
                continue
            both = len([label for label in g_on if label in p_on])
            p = Fraction(both, len(p_on)) if p_on else Fraction(0)
            r = Fraction(both, len(g_on)) if g_on else Fraction(0)
            ps.append(p)
            rs.append(r)
            fs.append(_f1(p, r))
        return {
            "precision": float(_mean(ps)),
            "recall": float(_mean(rs)),
            "f1": float(_mean(fs)),
        }

    all_rows = list(zip(gold_rows, pred_rows))
    positive_rows = [
        (g_row, p_row)
        for (dug_id, labels), (g_row, p_row) in zip(gold, all_rows)
        if labels
    ]
    n_candidates = sum(len(c) for _, c in predictions)
    n_valid = sum(1 for _, cands in predictions for c in cands if grammar.is_valid(c))
    undefined_predictions = sum(
        1 for dug_id, cands in predictions for c in cands if oracle_map_label(c, space) == UNDEFINED
    )
    return {
        "per_label": per_label,
        "macro_labels": included,
        "macro": {
            "precision": float(_mean(macro_p)),
            "recall": float(_mean(macro_r)),
            "f1": float(_mean(macro_f)),
        },
        "example_averaged": example_block(all_rows),
        "positive_class": example_block(positive_rows),
        "positive_n_dugs": len(positive_rows),
        "validity_rate": float(Fraction(n_valid, n_candidates)) if n_candidates else 1.0,
        "undefined_predictions": undefined_predictions,
    }


def oracle_type_metrics(
    gold_types: list[tuple[str, set[int]]], pred_types: dict[str, set[int]]
) -> dict:
    """Direct per-type counting for the rule-baseline scorer."""
    relevant = sorted(set().union(*(t for _, t in gold_types), *pred_types.values()))
    per_type: dict[int, dict[str, float]] = {}
    macro_p: list[Fraction] = []
    macro_r: list[Fraction] = []
    macro_f: list[Fraction] = []
    for t in relevant:
        tp = sum(1 for dug_id, g in gold_types if t in g and t in pred_types[dug_id])
        fp = sum(1 for dug_id, g in gold_types if t not in g and t in pred_types[dug_id])
        fn = sum(1 for dug_id, g in gold_types if t in g and t not in pred_types[dug_id])
        p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        f = _f1(p, r)
        per_type[t] = {"precision": float(p), "recall": float(r), "f1": float(f)}
        macro_p.append(p)
        macro_r.append(r)
        macro_f.append(f)
    return {
        "per_type": per_type,
        "macro": {
            "precision": float(_mean(macro_p)),
            "recall": float(_mean(macro_r)),
            "f1": float(_mean(macro_f)),
        },
    }


def oracle_krippendorff(matrix: list[list[object]]) -> float:
    """Alpha by direct enumeration of ordered value pairs (nominal distance)."""
    units = [[v for v in row if v is not None] for row in matrix]
    pairable = [u for u in units if len(u) >= 2]
    assert pairable, "oracle needs at least one pairable unit"
    n = sum(len(u) for u in pairable)

    observed = Fraction(0)
    for unit in pairable:
        disagreements = 0
        for i, a in enumerate(unit):
            for j, b in enumerate(unit):
                if i != j and a != b:
                    disagreements += 1
        observed += Fraction(disagreements, len(unit) - 1)
    observed /= n

    values = [v for unit in pairable for v in unit]
    expected_disagreements = 0
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            if i != j and a != b:
                expected_disagreements += 1
    expected = Fraction(expected_disagreements, n * (n - 1))
    if expected == 0:
        return 1.0
    return float(1 - observed / expected)


# ------------------------------------------------------------- adherence

_UNIT_MINUTES = {
    grammar.TimeUnit.MINUTE: 1,
    grammar.TimeUnit.HOUR: 60,
    grammar.TimeUnit.DAY: 1440,
    grammar.TimeUnit.WEEK: 7 * 1440,
}


def _event_text(event) -> str:
    return f"{event.kind} {event.name!r} at {event.timestamp.isoformat()}"


def _clock_minutes(ts) -> int:
    return ts.hour * 60 + ts.minute


def _oracle_verdict(mtc, timeline, cfg) -> tuple[str, str]:
    intakes = [e for e in timeline.events if e.kind == "intake"]
    if not intakes:
        return "indeterminate", "no intake events in window"

    if isinstance(mtc, grammar.Frequency):
        period = timedelta(minutes=_UNIT_MINUTES[mtc.unit])
        start, end = timeline.window
        checked = 0
        while start + period <= end:
            count = sum(1 for e in intakes if start <= e.timestamp < start + period)
            if count != mtc.n:
                return (
                    "violated",
                    f"period starting {start.isoformat()} has {count} intake(s), expected {mtc.n}",
                )
            checked += 1
            start += period
        if checked == 0:
            return (
                "indeterminate",
                f"window shorter than one full {mtc.unit.value}; no complete period to count",
            )
        return (
            "satisfied",
            f"all {checked} complete {mtc.unit.value} period(s) have exactly {mtc.n} intake(s)",
        )

    if isinstance(mtc, grammar.Interval):
        if mtc.ip is grammar.IntervalPrep.FOR:
            return "indeterminate", "regimen duration ('for') is not derivable from an intake timeline"
        if len(intakes) < 2:
            return (
                "indeterminate",
                f"{len(intakes)} intake(s) in window; need at least two to measure gaps",
            )
        bound = timedelta(minutes=mtc.n * _UNIT_MINUTES[mtc.unit])
        apart = mtc.ip is grammar.IntervalPrep.APART
        for earlier, later in zip(intakes, intakes[1:]):
            gap = later.timestamp - earlier.timestamp
            if (gap < bound) if apart else (gap > bound):
                verb = "is under" if apart else "exceeds"
                return (
                    "violated",
                    f"gap of {gap} between {_event_text(earlier)} and {_event_text(later)} {verb} {bound}",
                )
        relation = "at least" if apart else "at most"
        return "satisfied", f"all {len(intakes) - 1} consecutive gap(s) are {relation} {bound}"

    if isinstance(mtc, (grammar.DefinitiveDependency, grammar.ImpreciseDependency)):
        wanted = normalize_activity.__wrapped__(mtc.activity)
        matching = [e for e in timeline.events if e.kind == "activity" and e.name == wanted]
        if not matching:
            return "indeterminate", f"no {mtc.activity!r} activity events observed in window"
        before = mtc.dp is grammar.DependencyPrep.BEFORE
        if isinstance(mtc, grammar.DefinitiveDependency):
            offset = timedelta(minutes=mtc.n * _UNIT_MINUTES[mtc.unit])
            tolerance = cfg.dependency_tolerance
            for intake in intakes:
                expected = intake.timestamp + offset if before else intake.timestamp - offset
                if not any(abs(a.timestamp - expected) <= tolerance for a in matching):
                    return (
                        "violated",
                        f"{_event_text(intake)} has no {mtc.activity!r} event near "
                        f"{expected.isoformat()} (tolerance {tolerance})",
                    )
            return "satisfied", f"every intake has a {mtc.activity!r} event at the expected offset"
        horizon = cfg.imprecision_horizon
        for intake in intakes:
            ts = intake.timestamp
            if before:
                ok = any(ts < a.timestamp <= ts + horizon for a in matching)
            else:
                ok = any(ts - horizon <= a.timestamp < ts for a in matching)
            if not ok:
                side = "after" if before else "before"
                return (
                    "violated",
                    f"{_event_text(intake)} has no {mtc.activity!r} event within {horizon} {side} it",
                )
        return "satisfied", f"every intake is {mtc.dp.value} a {mtc.activity!r} event within {horizon}"

    if isinstance(mtc, grammar.TimeDependency):
        bound = mtc.time.minutes_into_day()
        for intake in intakes:
            minutes = _clock_minutes(intake.timestamp)
            if not (minutes < bound if mtc.dp is grammar.DependencyPrep.BEFORE else minutes > bound):
                return "violated", f"{_event_text(intake)} is not strictly {mtc.dp.value} {mtc.time}"
        return "satisfied", f"all {len(intakes)} intake(s) are strictly {mtc.dp.value} {mtc.time}"

    if isinstance(mtc, grammar.Consistency):
        tolerance = cfg.consistency_tolerance
        if isinstance(mtc.time, grammar.ClockTime):
            anchor = mtc.time.minutes_into_day()
            for intake in intakes:
                # distance to the nearest occurrence of the anchor on any day
                minutes = _clock_minutes(intake.timestamp)
                distance = timedelta(
                    minutes=min(abs(minutes - anchor + day) for day in (-1440, 0, 1440))
                )
                if distance > tolerance:
                    return (
                        "violated",
                        f"{_event_text(intake)} is {distance} from {mtc.time}, beyond {tolerance}",
                    )
            return "satisfied", f"all {len(intakes)} intake(s) are within {tolerance} of {mtc.time}"
        weekly = mtc.unit is grammar.TimeUnit.WEEK
        what = "weekday and clock times" if weekly else "clock times"
        positions = [
            _clock_minutes(e.timestamp) + (e.timestamp.weekday() * 1440 if weekly else 0)
            for e in intakes
        ]
        spread = timedelta(minutes=max(abs(a - b) for a in positions for b in positions))
        within = "beyond" if spread > tolerance else "within"
        return (
            "violated" if spread > tolerance else "satisfied",
            f"intake {what} spread over {spread}, {within} {tolerance}",
        )

    window = cfg.day_part_windows.get(mtc.day_part)
    if window is None:
        return "indeterminate", f"no configured clock window for {mtc.day_part.value!r}"
    start, end = window
    for intake in intakes:
        if not start <= time(intake.timestamp.hour, intake.timestamp.minute) < end:
            return (
                "violated",
                f"{_event_text(intake)} falls outside the {mtc.day_part.value} window "
                f"[{start.isoformat('minutes')}, {end.isoformat('minutes')})",
            )
    return "satisfied", f"all {len(intakes)} intake(s) fall in the {mtc.day_part.value} window"


def oracle_check(mtc, timeline, cfg) -> tuple[str, str]:
    """(status, explanation) of one adherence check, by exhaustive scans.

    Every period counts every intake and every intake tries every matching
    activity; a negated constraint swaps satisfied and violated.
    """
    status, explanation = _oracle_verdict(mtc, timeline, cfg)
    if mtc.negated and status != "indeterminate":
        flipped = "violated" if status == "satisfied" else "satisfied"
        return flipped, f"negated {grammar.serialize(mtc)!r}: {explanation}"
    return status, explanation
