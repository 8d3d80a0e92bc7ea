"""In-memory spans and counters around mtckit's public functions.

Each wrapper is set at the attribute its caller looks the function up by:
``extract`` imported ``build_prompt`` and ``normalize_raw_output`` by name,
so those wrappers go on ``mtckit.icl.extract``; ``evaluation`` calls
``grammar.parse_mtc`` through the module, so that wrapper goes on
``mtckit.grammar``. The program's own files are not changed, and every
wrapper is removed again by :meth:`Patches.restore`.

A span records its name, start, end, parent span and the id of the one
operation (guideline, check or scoring pass) it belongs to. Spans stay in
memory and are written out once, when the run ends. A span's self time is
its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


class NullTracer:
    """Stand-in used while measuring end-to-end numbers: records nothing."""

    def open(self, name, op_id=None):
        return -1

    def close(self, index, op_id=None):
        pass

    def pending_done(self, op_id):
        pass


class Tracer:
    """Spans and counters of one traced pass, kept in memory until the run ends."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index, operation id, thread id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.parsed: set[str] = set()
        self.verdicts: Counter = Counter()
        self.labels = 0
        self.max_pending = 0
        self._pending: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op_id: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent][4]
        span = [name, time.perf_counter_ns(), 0, parent, op_id, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, op_id: str | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if op_id is not None:
            span[4] = op_id
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def pending_start(self, op_id: str) -> None:
        with self._lock:
            self._pending.add(op_id)
            self.max_pending = max(self.max_pending, len(self._pending))

    def pending_done(self, op_id: str) -> None:
        with self._lock:
            self._pending.discard(op_id)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[int]:
        """Self time of every span, in ns."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(index)
        result = []
        for index, (_, start, end, _, _, _) in enumerate(self.spans):
            covered = 0
            cursor = start
            for child in sorted(children.get(index, ()), key=lambda i: self.spans[i][1]):
                c_start = max(self.spans[child][1], cursor)
                c_end = min(self.spans[child][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result.append(end - start - covered)
        return result

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: call count, total ns and self ns."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for span, self_ns in zip(self.spans, self.self_times()):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["total_ns"] += span[2] - span[1]
            entry["self_ns"] += self_ns
        return out

    def blocking_self_ns(self, roots: set[str]) -> int:
        """Sum of self times over the main-thread trees under the named root spans."""
        self_ns = self.self_times()
        main = threading.main_thread().ident
        in_tree: list[bool] = []
        total = 0
        for index, span in enumerate(self.spans):
            parent = span[3]
            inside = span[0] in roots if parent is None else in_tree[parent]
            inside = inside and span[5] == main
            in_tree.append(inside)
            if inside:
                total += self_ns[index]
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent, op_id, thread in self.spans:
                fp.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                         "id": op_id, "thread": thread}
                    )
                    + "\n"
                )


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        """Replace ``owner.name``; an attribute ``owner`` only inherited is deleted on restore."""
        self._saved.append((owner, name, vars(owner).get(name, self._MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def _spanned(tracer: Tracer, name, fn, before=None, after=None, op_of=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        op_id = op_of(args) if op_of else None
        if before:
            before(args)
        index = tracer.open(name(args) if callable(name) else name, op_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after:
            after(args, result)
        return result

    return wrapper


def _counted(tracer: Tracer, counter: str, fn, after=None):
    """Count calls of a function too cheap or too frequent to carry a span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        result = fn(*args, **kwargs)
        if after:
            after(args, result)
        return result

    return wrapper


def trace_client(tracer: Tracer, patches: Patches, client) -> None:
    """Span and count ``complete`` on a client instance, the way extract calls it."""
    original = client.complete

    def complete(request):
        index = tracer.open("client.complete")
        tracer.count("client.calls")
        try:
            return original(request)
        except Exception:
            tracer.count("client.failures")
            raise
        finally:
            tracer.close(index)

    patches.set(client, "complete", complete)


def install(tracer: Tracer) -> Patches:
    """Put spans and counters on every layer of the package (clients aside)."""
    import mtckit.adherence as adherence
    import mtckit.dataset as dataset
    import mtckit.evaluation as evaluation
    import mtckit.grammar as grammar
    import mtckit.icl.prompts as prompts
    import mtckit.rulebase as rulebase

    extract = importlib.import_module("mtckit.icl.extract")

    patches = Patches()
    count = tracer.count

    # grammar: parse_mtc is looked up through the module by evaluation,
    # extract and grammar itself, and by name in dataset.
    def parsed(args, _result):
        count("grammar.parse_calls")
        with tracer._lock:
            tracer.parsed.add(args[0])

    parse = _spanned(tracer, "grammar.parse_mtc", grammar.parse_mtc, after=parsed)
    patches.set(grammar, "parse_mtc", parse)
    patches.set(dataset, "parse_mtc", parse)
    patches.set(grammar, "is_valid", _spanned(tracer, "grammar.is_valid", grammar.is_valid))
    serialize = _counted(tracer, "grammar.serialize_calls", grammar.serialize)
    for module in (grammar, dataset, adherence):
        patches.set(module, "serialize", serialize)

    # normalize, as extract calls it
    def normalized(_args, result):
        count("normalize.outputs")
        count("normalize.candidates", len(result.candidates))
        count("normalize.dropped", len(result.dropped))

    patches.set(
        extract,
        "normalize_raw_output",
        _spanned(tracer, "normalize.normalize_raw_output", extract.normalize_raw_output, after=normalized),
    )

    # icl.prompts: extract imported build_prompt by name; the benchmark's
    # fixture stocking calls it through the prompts module.
    def built(_args, result):
        count("prompts.builds")
        count("prompts.chars", len(result))

    build = _spanned(tracer, "prompts.build_prompt", prompts.build_prompt, after=built)
    patches.set(extract, "build_prompt", build)
    patches.set(prompts, "build_prompt", build)
    patches.set(
        prompts,
        "default_activity_aliases",
        _counted(tracer, "prompts.alias_loads", prompts.default_activity_aliases),
    )

    # icl.extract: iter_extract_corpus looks ``extract`` up as a module global.
    def extracted(_args, record):
        count("extract.records")
        count("extract.failed", int(record.failed))
        count("extract.off_type", len(record.off_type))

    patches.set(
        extract,
        "extract",
        _spanned(
            tracer,
            "extract.extract",
            extract.extract,
            before=lambda args: tracer.pending_start(args[0].id),
            after=extracted,
            op_of=lambda args: args[0].id,
        ),
    )

    # dataset, as the benchmark calls it
    patches.set(dataset, "load_dugs", _spanned(tracer, "dataset.load_dugs", dataset.load_dugs))
    patches.set(dataset, "dump_dugs", _spanned(tracer, "dataset.dump_dugs", dataset.dump_dugs))

    # evaluation
    def scored(_args, report):
        tracer.labels = max(tracer.labels, len(report.per_label))

    patches.set(
        evaluation, "evaluate", _spanned(tracer, "evaluation.evaluate", evaluation.evaluate, after=scored)
    )
    patches.set(
        evaluation, "map_to_label", _spanned(tracer, "evaluation.map_to_label", evaluation.map_to_label)
    )
    patches.set(
        evaluation,
        "build_label_space",
        _spanned(tracer, "evaluation.build_label_space", evaluation.build_label_space),
    )

    # rulebase: classify_corpus looks classify_types up as a module global;
    # every rule test goes through TypeRule.matches.
    for name in ("classify_corpus", "classify_types", "evaluate_type_classifier"):
        patches.set(rulebase, name, _spanned(tracer, f"rulebase.{name}", getattr(rulebase, name)))

    def rule_tested(_args, matched):
        if matched:
            count("rulebase.rule_matches")

    patches.set(
        rulebase.TypeRule,
        "matches",
        _counted(tracer, "rulebase.rule_tests", rulebase.TypeRule.matches, after=rule_tested),
    )

    # adherence: check by constraint type; Timeline methods on the class.
    def verdict(_args, result):
        with tracer._lock:
            tracer.verdicts[result.status.value] += 1

    patches.set(
        adherence,
        "check",
        _spanned(
            tracer,
            lambda args: f"adherence.check.t{grammar.mtc_type(args[0])}",
            adherence.check,
            after=verdict,
        ),
    )
    for method in ("intakes", "activities"):
        patches.set(
            adherence.Timeline,
            method,
            _spanned(
                tracer,
                f"adherence.{method}",
                getattr(adherence.Timeline, method),
                after=lambda _a, _r, m=method: count(f"adherence.{m}_calls"),
            ),
        )
    build_timeline = vars(adherence.Timeline)["build"].__func__
    patches.set(
        adherence.Timeline,
        "build",
        classmethod(_spanned(tracer, "adherence.timeline_build", build_timeline)),
    )
    return patches


#: Per-layer metrics every traced run reports, with their units.
PER_LAYER_UNITS = {
    "grammar.parse_calls": "count",
    "grammar.parse_self_ms": "ms",
    "grammar.serialize_calls": "count",
    "grammar.distinct_parse_share": "ratio",
    "normalize.outputs": "count",
    "normalize.self_ms": "ms",
    "normalize.candidates": "count",
    "normalize.dropped": "count",
    "prompts.builds": "count",
    "prompts.self_ms": "ms",
    "prompts.chars": "count",
    "prompts.alias_loads_per_build": "ratio",
    "client.calls": "count",
    "client.busy_ms": "ms",
    "client.wait_ms": "ms",
    "client.failures": "count",
    "extract.records": "count",
    "extract.failed": "count",
    "extract.off_type": "count",
    "extract.self_ms": "ms",
    "extract.max_pending": "count",
    "dataset.load_ms": "ms",
    "dataset.dump_ms": "ms",
    "evaluation.self_ms": "ms",
    "evaluation.labels": "count",
    "evaluation.scaling_exponent": "ratio",
    "rulebase.classify_ms": "ms",
    "rulebase.rule_matches": "count",
    "rulebase.type_eval_ms": "ms",
    **{f"adherence.check_ms.t{t}": "ms" for t in range(1, 8)},
    "adherence.intakes_calls": "count",
    "adherence.activities_calls": "count",
    "adherence.timeline_build_ms": "ms",
    "adherence.verdicts.satisfied": "count",
    "adherence.verdicts.violated": "count",
    "adherence.verdicts.indeterminate": "count",
    "adherence.scaling_exponent": "ratio",
    "trace.overhead_share": "ratio",
    "trace.blocking_share": "ratio",
}


def layer_metrics(tracer: Tracer, extra: dict[str, float], slowdown: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from the spans and counters, plus ``extra`` values.

    ``extra`` carries what the workload measured itself: the scaling
    exponents, the simulated service wait and the trace overhead figures.
    Span times are divided by the host ``slowdown`` measured around the
    traced pass, as the end-to-end timings are.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def total_ms(*names):
        return sum(totals[n]["total_ns"] for n in names if n in totals) / 1e6

    def self_ms(prefix):
        return sum(v["self_ns"] for n, v in totals.items() if n.startswith(prefix)) / 1e6

    parse_calls = counts["grammar.parse_calls"]
    builds = counts["prompts.builds"]
    values = {
        "grammar.parse_calls": parse_calls,
        "grammar.parse_self_ms": self_ms("grammar.parse_mtc"),
        "grammar.serialize_calls": counts["grammar.serialize_calls"],
        "grammar.distinct_parse_share": len(tracer.parsed) / parse_calls if parse_calls else 0.0,
        "normalize.outputs": counts["normalize.outputs"],
        "normalize.self_ms": self_ms("normalize."),
        "normalize.candidates": counts["normalize.candidates"],
        "normalize.dropped": counts["normalize.dropped"],
        "prompts.builds": builds,
        "prompts.self_ms": self_ms("prompts."),
        "prompts.chars": counts["prompts.chars"],
        "prompts.alias_loads_per_build": counts["prompts.alias_loads"] / builds if builds else 0.0,
        "client.calls": counts["client.calls"],
        "client.busy_ms": total_ms("client.complete"),
        "client.wait_ms": 0.0,
        "client.failures": counts["client.failures"],
        "extract.records": counts["extract.records"],
        "extract.failed": counts["extract.failed"],
        "extract.off_type": counts["extract.off_type"],
        "extract.self_ms": self_ms("extract."),
        "extract.max_pending": tracer.max_pending,
        "dataset.load_ms": total_ms("dataset.load_dugs"),
        "dataset.dump_ms": total_ms("dataset.dump_dugs"),
        "evaluation.self_ms": self_ms("evaluation."),
        "evaluation.labels": tracer.labels,
        "evaluation.scaling_exponent": 0.0,
        "rulebase.classify_ms": total_ms("rulebase.classify_corpus"),
        "rulebase.rule_matches": counts["rulebase.rule_matches"],
        "rulebase.type_eval_ms": total_ms("rulebase.evaluate_type_classifier"),
        **{f"adherence.check_ms.t{t}": total_ms(f"adherence.check.t{t}") for t in range(1, 8)},
        "adherence.intakes_calls": counts["adherence.intakes_calls"],
        "adherence.activities_calls": counts["adherence.activities_calls"],
        "adherence.timeline_build_ms": total_ms("adherence.timeline_build"),
        **{f"adherence.verdicts.{s}": tracer.verdicts[s] for s in ("satisfied", "violated", "indeterminate")},
        "adherence.scaling_exponent": 0.0,
        "trace.overhead_share": 0.0,
        "trace.blocking_share": 0.0,
    }
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "ms" and name != "client.wait_ms":
            values[name] /= slowdown
    values.update(extra)
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
