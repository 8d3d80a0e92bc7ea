"""The phrase-pattern baseline: tag constraint types, then score the tags.

The baseline does a much easier task than extraction (it only says which
constraint types occur) and still struggles outside the phrasing it was
built for; that contrast is the point of keeping it around.
"""

from mtckit.dataset import Dug
from mtckit.grammar import parse_mtc
from mtckit.rulebase import classify_corpus, classify_types, evaluate_type_classifier

print("pattern hits:")
for text in [
    "Take this medication three times daily.",
    "It is important to take your doses at least 6 hours apart.",
    "If you are prescribed only one dose per day, take it in the morning before 9 AM.",
    "Currently on Plaquenil 200-mg b.i.d.",
    "Swallow the tablet whole; do not crush it.",
]:
    print(f"  {sorted(classify_types(text)) or '-'}  <- {text!r}")


def dug(i, text, labels, source="medscape"):
    return Dug(f"m{i}", source, text, tuple(parse_mtc(s) for s in labels))


corpus = [
    dug(1, "Take 2 times a day with food.", ["2 times day"]),
    dug(2, "Doses should be at least 6 hours apart.", ["6 hour apart"]),
    dug(3, "Take it in the morning before 9 am.", ["before 9 am", "in morning"]),
    dug(4, "Always take before meals.", ["before eating"]),
    dug(5, "Use at the same time each day.", ["at the same time each day"]),
    # phrased differently than the patterns expect: the baseline misses it
    dug(6, "A twice-per-24-hours schedule is advised.", ["2 times day"], "fda"),
]

predictions = classify_corpus(corpus)
report = evaluate_type_classifier(corpus, predictions)
print("\nscores against gold types:")
for t, metrics in sorted(report.per_type.items()):
    print(f"  type {t}: precision {metrics.precision:.2f}  recall {metrics.recall:.2f}  "
          f"f1 {metrics.f1:.2f}  (support {metrics.support})")
print(f"  macro:  precision {report.macro.precision:.2f}  recall {report.macro.recall:.2f}  "
      f"f1 {report.macro.f1:.2f}")
