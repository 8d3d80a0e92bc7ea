"""Few-shot selection, the three prompt strategies, and replay extraction.

Selection greedily covers the strata that matter (every constraint type,
empty and non-empty answers, single and multiple constraints, easy and
hard normalization), then fills the remaining slots with a seeded draw.
The replay client serves canned responses from one fixtures file, keyed by
a hash of the prompt, so the whole loop runs offline and byte-reproducibly.
"""

import tempfile
from pathlib import Path

from mtckit.dataset import Dug
from mtckit.grammar import parse_mtc, serialize
from mtckit.icl import (
    PromptStrategy,
    ReplayClient,
    build_prompt,
    default_template,
    exclude_fewshot,
    gold_answer,
    iter_extract_corpus,
    select_fewshot,
)


def dug(i, text, labels, source="fda"):
    return Dug(f"d{i:02d}", source, text, tuple(parse_mtc(s) for s in labels))


POOL = [
    dug(1, "Take your dose 30 minutes before a meal.", ["30 minute before eating"]),
    dug(2, "Take this medication three times daily.", ["3 times day"]),
    dug(3, "Doses must be at least 6 hours apart.", ["6 hour apart"]),
    dug(4, "Do not take a dose before exercise.", ["not before exercise"]),
    dug(5, "Take it before 9 AM if once daily.", ["before 9 am"]),
    dug(6, "Remember to use it at the same time each day.", ["at the same time each day"]),
    dug(7, "Take it in the morning with breakfast.", ["in morning"]),
    dug(8, "Store at room temperature away from moisture.", []),
    dug(9, "Take 2 hours before eating, 3 times daily, 4 hours apart.",
        ["2 hour before eating", "3 times day", "4 hour apart"]),
    dug(10, "Quetiapine was continued at bedtime as before.", ["before sleep"], "ehr"),
    dug(11, "Metformin 500 mg b.i.d. with meals.", ["2 times day"], "ehr"),
    dug(12, "One tablet daily, q.d. per pharmacy.", ["1 times day"], "ehr"),
]

fewshot = select_fewshot(POOL, k=8, seed=7)
print(f"selected {len(fewshot)} examples: {sorted(fewshot.ids)}")
for pair in fewshot.pairs[:3]:
    print(f"  [{pair.dug.id}] answer={pair.answer!r} strata={sorted(pair.coverage.strata())}")

eval_split = exclude_fewshot(POOL, fewshot)
query = eval_split[0]
print(f"\nquery guideline: {query.text!r}")

print("\n-- simple prompt (first lines) --")
simple = build_prompt(default_template("simple"), fewshot, query)
print("\n".join(simple.splitlines()[:6]))

print("\n-- guided prompt embeds the grammar (first lines) --")
guided = build_prompt(default_template("guided"), fewshot, query)
print("\n".join(guided.splitlines()[:12]))

print("\n-- specialized prompt for frequency constraints (first lines) --")
spec = build_prompt(default_template("specialized"), fewshot, query, mtc_type=2)
print("\n".join(spec.splitlines()[:5]))

with tempfile.TemporaryDirectory() as tmp:
    client = ReplayClient(Path(tmp) / "fixtures.jsonl")
    template = default_template("simple")
    for d in eval_split:
        client.store(build_prompt(template, fewshot, d), gold_answer(d))
    records = list(iter_extract_corpus(eval_split, PromptStrategy.simple(), fewshot, client))

print("\nreplay extraction records:")
for record in records:
    print(f"  {record.dug_id}: {[serialize(m) for m in record.mtcs] or 'no constraints'}")
