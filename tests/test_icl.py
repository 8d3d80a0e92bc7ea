"""Few-shot selection, prompt rendering, clients, and extraction records."""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import mtckit
from mtckit import grammar
from mtckit.icl import (
    SPECIALIZED_DEFAULT_TYPES,
    CompletionRequest,
    CompletionResponse,
    FewShotLeakageError,
    HttpCompletionClient,
    InsufficientPoolError,
    PromptBuildError,
    PromptStrategy,
    ReplayClient,
    ServiceError,
    StrategyMismatchError,
    build_prompt,
    default_template,
    exclude_fewshot,
    extract,
    extract_corpus,
    fewshot_from_dugs,
    gold_answer,
    is_difficult,
    iter_extract_corpus,
    load_template,
    prompt_fingerprint,
    select_fewshot,
    type_guides,
)
from mtckit.icl import prompts
from mtckit.icl.fewshot import FewShotSet
from mtckit.normalize import default_activity_aliases

from conftest import make_dug


# ------------------------------------------------------------- selection


def test_selection_covers_all_strata(pool):
    fewshot = select_fewshot(pool, k=8, seed=1)
    assert len(fewshot) == 8
    covered = set().union(*(p.coverage.strata() for p in fewshot.pairs))
    assert {f"type:{t}" for t in range(1, 8)} <= covered
    assert "empty" in covered and "multiple" in covered
    assert "simple" in covered and "difficult" in covered
    assert fewshot.gaps == ()


def test_selection_deterministic_per_seed(pool):
    for seed in range(20):
        first = select_fewshot(pool, k=8, seed=seed)
        second = select_fewshot(pool, k=8, seed=seed)
        assert [p.dug.id for p in first.pairs] == [p.dug.id for p in second.pairs]


def test_selection_whole_pool(pool):
    fewshot = select_fewshot(pool, k=len(pool), seed=0)
    assert fewshot.ids == {d.id for d in pool}


def test_selection_k_too_large(pool):
    with pytest.raises(InsufficientPoolError):
        select_fewshot(pool, k=len(pool) + 1, seed=0)


def test_selection_k_too_small_for_coverage(pool):
    with pytest.raises(InsufficientPoolError):
        select_fewshot(pool, k=2, seed=0)


def test_selection_records_pool_gaps(pool):
    no_empty = [d for d in pool if d.labels]
    fewshot = select_fewshot(no_empty, k=8, seed=0)
    assert "empty" in fewshot.gaps
    assert not any(p.coverage.empty for p in fewshot.pairs)


def test_gold_answers():
    dug = make_dug("x", "t", ["2 times day", "before sleep"])
    assert gold_answer(dug) == "2 times day; before sleep"
    assert gold_answer(dug, mtc_type_filter=2) == "2 times day"
    assert gold_answer(dug, mtc_type_filter=6) == "NONE"
    assert gold_answer(make_dug("y", "t", [])) == "NONE"


def test_difficulty_heuristic():
    assert not is_difficult(make_dug("a", "take 3 times day now", ["3 times day"]))
    assert is_difficult(make_dug("b", "take three times daily", ["3 times day"]))


def test_exclude_fewshot(pool):
    fewshot = select_fewshot(pool, k=8, seed=3)
    kept = exclude_fewshot(pool, fewshot)
    assert len(kept) == len(pool) - 8
    assert not {d.id for d in kept} & fewshot.ids


# --------------------------------------------------------------- prompts


def test_prompt_bytes_deterministic(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    dug = make_dug("q", "Take two tablets twice daily.", [])
    template = default_template("guided")
    assert build_prompt(template, fewshot, dug) == build_prompt(template, fewshot, dug)


def test_simple_prompt_zero_shot():
    dug = make_dug("q", "Take with water.", [])
    prompt = build_prompt(default_template("simple"), FewShotSet(()), dug)
    assert "Take with water." in prompt
    assert prompt.count("Statement:") == 1  # header + query only


def test_guided_header_embeds_grammar(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    prompt = build_prompt(default_template("guided"), fewshot, make_dug("q", "text here", []))
    assert "before | after" in prompt
    assert "within | for | apart" in prompt
    assert "morning | evening | noon" in prompt
    assert "{n} times {unit}" in prompt
    assert "eating" in prompt and "sleep" in prompt  # activity vocabulary


def test_example_count_matches_fewshot_size(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    prompt = build_prompt(default_template("simple"), fewshot, make_dug("q", "query text", []))
    assert prompt.count("Statement:") == len(fewshot) + 1


def test_specialized_prompt_filters_answers(pool):
    fewshot = select_fewshot(pool, k=len(pool), seed=0)
    dug = make_dug("q", "Take it with breakfast.", [])
    prompt = build_prompt(default_template("specialized"), fewshot, dug, mtc_type=2)
    assert "frequency" in prompt
    # example with a type-2 label shows it; examples without show NONE
    assert "Constraints: 3 times day" in prompt
    assert "Constraints: NONE" in prompt
    assert "before exercise" not in prompt.split("Statement:", 1)[0]  # header has no answers


def test_specialized_requires_type(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    dug = make_dug("q", "text", [])
    with pytest.raises(StrategyMismatchError):
        build_prompt(default_template("specialized"), fewshot, dug)
    with pytest.raises(StrategyMismatchError):
        build_prompt(default_template("simple"), fewshot, dug, mtc_type=2)


def test_strategy_validation():
    assert PromptStrategy.specialized().types == (1, 2, 3, 4, 6, 7)
    assert PromptStrategy.specialized((1, 5)).types == (1, 5)
    with pytest.raises(ValueError):
        PromptStrategy("weird")
    with pytest.raises(ValueError):
        PromptStrategy("simple", (2,))


def test_load_template_missing_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[header]\nhello\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_template(path, "simple")


def test_load_template_custom(tmp_path):
    path = tmp_path / "tpl.txt"
    path.write_text(
        "[header]\nDo the task.\n[example]\nIN: {text}\nOUT: {answer}\n[query]\nIN: {text}\nOUT:",
        encoding="utf-8",
    )
    template = load_template(path, "simple")
    dug = make_dug("q", "hello world", [])
    prompt = build_prompt(template, FewShotSet(()), dug)
    assert prompt == "Do the task.\n\nIN: hello world\nOUT:"


def test_duplicate_text_collision_detected(pool):
    dug = make_dug("q", "identical text", ["3 times day"])
    twin = make_dug("other", "identical text", ["3 times day"])
    fewshot = fewshot_from_dugs([twin])
    with pytest.raises(PromptBuildError):
        build_prompt(default_template("simple"), fewshot, dug)


def test_braces_in_example_text_render_verbatim():
    template = default_template("simple")
    fewshot = fewshot_from_dugs([make_dug("e", "Take {answer} with water.", ["3 times day"])])
    prompt = build_prompt(template, fewshot, make_dug("q", "query text", []))
    assert "Statement: Take {answer} with water.\nConstraints: 3 times day" in prompt
    assert "Take 3 times day with water." not in prompt


# ---------------------------------------------------------- prefix cache


def _reference_prompt(template, fewshot, dug, mtc_type=None) -> str:
    """Uncached render, slot by slot, from the public template material."""
    activities = sorted(set(default_activity_aliases().values()) | {"taking medication"})
    header = (
        template.header.replace(
            "{terminals}", "\n".join(f"- {n}: {v}" for n, v in grammar.TERMINALS)
        )
        .replace(
            "{nonterminals}",
            "\n".join(
                f"{t}. {grammar.MTC_TYPE_NAMES[t]}: {form} (e.g. \"{example}\")"
                for t, (form, example) in sorted(grammar.CANONICAL_FORMS.items())
            ),
        )
        .replace("{activities}", ", ".join(activities))
    )
    if mtc_type is not None:
        guide = type_guides()[mtc_type]
        header = (
            header.replace("{type_name}", guide.name)
            .replace("{type_description}", guide.description)
            .replace("{format_heuristic}", guide.heuristic)
        )
    examples = [
        template.example_format.replace("{text}", pair.dug.text).replace(
            "{answer}", gold_answer(pair.dug, mtc_type)
        )
        for pair in fewshot.pairs
    ]
    query = template.query_format.replace("{text}", dug.text)
    return "\n\n".join([header, *examples, query])


def _probes(kind):
    return (1, 2, 3, 4, 5, 6, 7) if kind == "specialized" else (None,)


@pytest.fixture
def prefix_renders(monkeypatch) -> list:
    """Each (template, few-shot set, type) that ``build_prompt`` renders a prefix for."""
    renders = []
    render = prompts._render_prefix

    def counting(template, fewshot, mtc_type):
        renders.append((template, id(fewshot), mtc_type))
        return render(template, fewshot, mtc_type)

    monkeypatch.setattr(prompts, "_render_prefix", counting)
    return renders


@pytest.mark.parametrize("kind", ["simple", "guided", "specialized"])
def test_cached_prompt_matches_reference(pool, kind, prefix_renders):
    fewshot = select_fewshot(pool, k=8, seed=0)
    template = default_template(kind)
    dugs = [make_dug(f"q{i}", f"Take dose {i} twice daily.", []) for i in range(3)]
    for _ in range(2):  # cold, then warm
        for dug in dugs:
            for t in _probes(kind):
                assert build_prompt(template, fewshot, dug, t) == _reference_prompt(
                    template, fewshot, dug, t
                )
    assert prefix_renders == [(template, id(fewshot), t) for t in _probes(kind)]


def test_fewshot_sets_equal_and_hash_by_value_and_render_reference_prompts(pool):
    template = default_template("specialized")
    dug = make_dug("q", "Take it twice daily.", [])
    first, twin = fewshot_from_dugs(pool[:6]), fewshot_from_dugs(pool[:6])
    edited = fewshot_from_dugs([replace(d, text=f"{d.text} Edited.") for d in pool[:6]])
    other = fewshot_from_dugs(pool[6:])
    assert first == twin and first is not twin and hash(first) == hash(twin)
    assert edited.ids == first.ids and edited != first
    for fewshot in (first, twin, edited, other, twin):
        for t in (2, 4):
            assert build_prompt(template, fewshot, dug, t) == _reference_prompt(
                template, fewshot, dug, t
            )


def test_fewshot_set_is_freed_after_its_last_prompt(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    build_prompt(default_template("guided"), fewshot, make_dug("q", "Take it twice daily.", []))
    ref = weakref.ref(fewshot)
    del fewshot
    gc.collect()
    assert ref() is None


def test_templates_differing_only_in_example_format_keep_their_prefixes(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    dug = make_dug("q", "Take it twice daily.", [])
    base = default_template("guided")
    variant = replace(base, example_format="IN: {text}\nOUT: {answer}")
    for template in (base, variant, base, variant):
        assert build_prompt(template, fewshot, dug) == _reference_prompt(template, fewshot, dug)
    assert "OUT: " not in build_prompt(base, fewshot, dug)
    assert build_prompt(variant, fewshot, dug).count("OUT: ") == len(fewshot)


def test_strategy_mismatch_raised_with_warm_cache(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    dug = make_dug("q", "text", [])
    build_prompt(default_template("specialized"), fewshot, dug, mtc_type=2)
    build_prompt(default_template("simple"), fewshot, dug)
    for _ in range(2):
        with pytest.raises(StrategyMismatchError):
            build_prompt(default_template("specialized"), fewshot, dug)
        with pytest.raises(StrategyMismatchError):
            build_prompt(default_template("specialized"), fewshot, dug, mtc_type=9)
        with pytest.raises(StrategyMismatchError):
            build_prompt(default_template("simple"), fewshot, dug, mtc_type=2)


def test_fewshot_set_value_semantics(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    assert fewshot == select_fewshot(pool, k=8, seed=0)
    assert fewshot != select_fewshot(pool, k=8, seed=1)
    assert fewshot != FewShotSet(fewshot.pairs, ("empty",))
    assert fewshot != fewshot.pairs
    copy = pickle.loads(pickle.dumps(fewshot))
    assert copy == fewshot and hash(copy) == hash(fewshot)
    assert len({fewshot, copy, replace(fewshot)}) == 1


def test_pickled_fewshot_set_leaves_its_prefixes_behind(pool):
    fewshot = fewshot_from_dugs(pool)
    template = default_template("specialized")
    dug = make_dug("q", "Take it twice daily.", [])
    size = len(pickle.dumps(fewshot))
    for t in SPECIALIZED_DEFAULT_TYPES:
        build_prompt(template, fewshot, dug, t)
    assert len(pickle.dumps(fewshot)) == size
    copy = pickle.loads(pickle.dumps(fewshot))
    for t in SPECIALIZED_DEFAULT_TYPES:
        assert build_prompt(template, copy, dug, t) == _reference_prompt(template, copy, dug, t)


def test_fewshot_ids_are_settled_at_construction(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    assert fewshot.ids is fewshot.ids
    assert fewshot.ids == frozenset(pair.dug.id for pair in fewshot.pairs)
    copy = pickle.loads(pickle.dumps(fewshot))
    assert copy.ids == fewshot.ids and copy.ids is copy.ids


def test_threaded_extraction_with_cold_prefix_cache(tmp_path, pool, prefix_renders):
    fewshot = _fewshot(pool)
    strategy = PromptStrategy.specialized()
    template = default_template("specialized")
    dugs = [make_dug(f"s{i:02d}", f"Take dose {i} three times daily.", []) for i in range(40)]
    client = ReplayClient(tmp_path)
    for dug in dugs[:-1]:  # the last guideline has no fixtures and fails
        for t in strategy.types:
            client.store(build_prompt(template, fewshot, dug, t), f"{t} times day; before sleep")
    expected = [r.to_dict() for r in iter_extract_corpus(dugs, strategy, fewshot, client)]
    assert expected[-1]["error"] and not any(r["error"] for r in expected[:-1])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        rounds = 0
        while rounds < 3 or (rounds < 20 and time.monotonic() < deadline):
            cold = _fewshot(pool)  # equal to ``fewshot``, with no prefix rendered yet
            del prefix_renders[:]
            records = iter_extract_corpus(dugs, strategy, cold, client, parallelism=8)
            assert [r.to_dict() for r in records] == expected
            assert {(t, n) for _, n, t in prefix_renders} == {(t, id(cold)) for t in strategy.types}
            rounds += 1
    finally:
        sys.setswitchinterval(interval)


def _in_fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(mtckit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_import_leaves_requests_unloaded():
    code = "import sys, mtckit; sys.exit('requests' in sys.modules)"
    assert _in_fresh_interpreter(code).returncode == 0


def test_import_leaves_hashlib_and_thread_pool_unloaded():
    code = "import sys, mtckit; print(sorted({'hashlib', 'concurrent.futures'} & set(sys.modules)))"
    completed = _in_fresh_interpreter(code)
    assert completed.returncode == 0 and completed.stdout.strip() == "[]"


def test_prompt_fingerprint_is_sha256_of_utf8():
    for prompt in ("", "a prompt", "Tablette zweimal täglich einnehmen \u2013 ✓"):
        assert prompt_fingerprint(prompt) == hashlib.sha256(prompt.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- clients


def test_replay_round_trip(tmp_path):
    client = ReplayClient(tmp_path)
    client.store("a prompt", "a response")
    response = client.complete(CompletionRequest("a prompt"))
    assert response.text == "a response"
    assert (tmp_path / f"{prompt_fingerprint('a prompt')}.txt").exists()


def test_replay_missing_fixture(tmp_path):
    client = ReplayClient(tmp_path)
    with pytest.raises(ServiceError) as err:
        client.complete(CompletionRequest("never stored"))
    assert str(err.value) == f"no replay fixture {prompt_fingerprint('never stored')}.txt in {tmp_path}"


@pytest.mark.parametrize(
    "data",
    [b"3 times day\r\nbefore sleep\r\n", b"3 times day\rbefore sleep\r", b"a\r\r\nb\n\rc",
     b"\xef\xbb\xbfin morning", b"plain", b"", "caf\u00e9 \u2013 4 hours apart".encode(),
     b"x" * 4096, b"3 times day\r\n" * 2000],
)
def test_replay_reads_fixture_as_read_text_does(tmp_path, data):
    client = ReplayClient(tmp_path)
    path = client.store("p", "")
    path.write_bytes(data)
    assert client.complete(CompletionRequest("p")).text == path.read_text(encoding="utf-8")


def _unreadable_fixture(tmp_path, kind, prompt="p") -> ReplayClient:
    client = ReplayClient(tmp_path)
    name = f"{prompt_fingerprint(prompt)}.txt"
    if kind == "directory":
        (tmp_path / name).mkdir()
    elif kind == "not utf-8":
        (tmp_path / name).write_bytes(b"3 times day \xff\xfe")
    elif kind == "fixtures dir is a file":
        (tmp_path / "fixtures").write_text("")
        client = ReplayClient(tmp_path / "fixtures")
    return client


_UNREADABLE = ["directory", "not utf-8", "fixtures dir is a file"]


@pytest.mark.parametrize("kind", _UNREADABLE)
def test_replay_unreadable_fixture_is_service_error(tmp_path, kind):
    client = _unreadable_fixture(tmp_path, kind)
    with pytest.raises(ServiceError):
        client.complete(CompletionRequest("p"))


_NO_JSON = object()


class FakeResponse:
    def __init__(self, status_code=200, payload=_NO_JSON, text="err"):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is _NO_JSON:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def test_http_client_prompt_mode(monkeypatch):
    monkeypatch.setenv("MTC_API_KEY", "sekret")
    session = FakeSession([FakeResponse(payload={"choices": [{"text": "3 times day", "finish_reason": "stop"}]})])
    client = HttpCompletionClient("http://svc/v1/complete", model="m1", session=session)
    response = client.complete(CompletionRequest("p", temperature=0.0, max_tokens=64))
    assert response.text == "3 times day"
    call = session.calls[0]
    assert call["json"] == {"model": "m1", "temperature": 0.0, "max_tokens": 64, "prompt": "p"}
    assert call["headers"]["Authorization"] == "Bearer sekret"


def test_http_client_messages_mode():
    session = FakeSession(
        [FakeResponse(payload={"choices": [{"message": {"content": "NONE"}, "finish_reason": "stop"}]})]
    )
    client = HttpCompletionClient("http://svc", model="m", use_messages=True, api_key="k", session=session)
    assert client.complete(CompletionRequest("p")).text == "NONE"
    assert session.calls[0]["json"]["messages"] == [{"role": "user", "content": "p"}]


def test_http_client_retries_then_succeeds(monkeypatch):
    import mtckit.icl.client as client_mod

    sleeps = []
    monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
    session = FakeSession(
        [FakeResponse(500), FakeResponse(payload={"choices": [{"text": "ok"}]})]
    )
    client = HttpCompletionClient("http://svc", model="m", api_key="k", session=session, backoff=1.0)
    assert client.complete(CompletionRequest("p")).text == "ok"
    assert sleeps == [1.0]


def test_http_client_exhausts_retries(monkeypatch):
    import mtckit.icl.client as client_mod

    monkeypatch.setattr(client_mod.time, "sleep", lambda _: None)
    session = FakeSession([FakeResponse(500)] * 3)
    client = HttpCompletionClient("http://svc", model="m", api_key="k", session=session)
    with pytest.raises(ServiceError) as err:
        client.complete(CompletionRequest("p"))
    assert err.value.attempt == 3 and err.value.status == 500


@pytest.mark.parametrize("max_attempts", [0, -1])
def test_http_client_rejects_fewer_than_one_attempt(max_attempts):
    session = FakeSession([])
    with pytest.raises(ValueError, match="max_attempts must be at least 1"):
        HttpCompletionClient("http://svc", model="m", api_key="k", max_attempts=max_attempts, session=session)


_MALFORMED_BODIES = [[], "x", None, 3, {"choices": ["3 times day"]}, {"choices": [None]},
                     {"choices": [{"message": "NONE"}]}, {"choices": {}}]


@pytest.mark.parametrize("payload", _MALFORMED_BODIES)
def test_http_client_malformed_body_is_service_error(payload):
    session = FakeSession([FakeResponse(payload=payload)])
    client = HttpCompletionClient("http://svc", model="m", api_key="k", session=session)
    with pytest.raises(ServiceError):
        client.complete(CompletionRequest("p"))


def test_http_client_client_error_fails_fast():
    session = FakeSession([FakeResponse(404, text="missing")])
    client = HttpCompletionClient("http://svc", model="m", api_key="k", session=session)
    with pytest.raises(ServiceError) as err:
        client.complete(CompletionRequest("p"))
    assert err.value.status == 404 and err.value.attempt == 1
    assert not session.responses  # one call only


# -------------------------------------------------------------- extraction


def _fewshot(pool) -> FewShotSet:
    return select_fewshot(pool, k=8, seed=0)


def _stock_replay(tmp_path, fewshot, dug, strategy, answers) -> ReplayClient:
    """Store fixtures for every prompt the strategy will issue for ``dug``."""
    client = ReplayClient(tmp_path)
    template = default_template(strategy.kind)
    if strategy.kind == "specialized":
        for t in strategy.types:
            client.store(build_prompt(template, fewshot, dug, mtc_type=t), answers[t])
    else:
        client.store(build_prompt(template, fewshot, dug), answers)
    return client


def test_extract_simple_parses_candidates(tmp_path, pool):
    fewshot = _fewshot(pool)
    dug = make_dug("q1", "Take this medication by mouth three times daily.", [])
    client = _stock_replay(tmp_path, fewshot, dug, PromptStrategy.simple(), "3 times day")
    record = extract(dug, PromptStrategy.simple(), fewshot, client)
    assert record.mtcs == (grammar.Frequency(3, grammar.TimeUnit.DAY),)
    assert record.predictions == ("3 times day",)
    assert not record.failed


def test_extract_specialized_all_none(tmp_path, pool):
    fewshot = _fewshot(pool)
    dug = make_dug("q2", "Store in a cool dry place.", [])
    strategy = PromptStrategy.specialized()
    client = _stock_replay(tmp_path, fewshot, dug, strategy, {t: "NONE" for t in strategy.types})
    record = extract(dug, strategy, fewshot, client)
    assert record.mtcs == ()
    assert record.candidates == ()
    assert len(record.raw_outputs) == 6


def test_extract_specialized_drops_off_type(tmp_path, pool):
    fewshot = _fewshot(pool)
    dug = make_dug("q3", "Take twice daily before sleeping.", [])
    strategy = PromptStrategy.specialized()
    answers = {t: "NONE" for t in strategy.types}
    answers[2] = "2 times day; before sleep"  # second answer is off-type here
    answers[4] = "before sleep"
    client = _stock_replay(tmp_path, fewshot, dug, strategy, answers)
    record = extract(dug, strategy, fewshot, client)
    assert [grammar.serialize(m) for m in record.mtcs] == ["2 times day", "before sleep"]
    assert record.off_type == ("before sleep",)  # the type-2 call's stray answer
    assert record.predictions.count("before sleep") == 1


def test_extract_or_output_is_invalid_candidate(tmp_path, pool):
    fewshot = _fewshot(pool)
    dug = make_dug("q4", "Take 2 or 3 times a day.", [])
    client = _stock_replay(
        tmp_path, fewshot, dug, PromptStrategy.simple(), "2 times day OR 3 times day"
    )
    record = extract(dug, PromptStrategy.simple(), fewshot, client)
    assert len(record.raw_outputs) == 1
    assert len(record.candidates) == 1
    assert not record.candidates[0].valid
    assert record.mtcs == ()


def test_extract_refuses_fewshot_members(tmp_path, pool):
    fewshot = _fewshot(pool)
    member = next(d for d in pool if d.id in fewshot.ids)
    with pytest.raises(FewShotLeakageError):
        extract(member, PromptStrategy.simple(), fewshot, ReplayClient(tmp_path))


def test_extract_marks_failure_without_fabricating(tmp_path, pool):
    fewshot = _fewshot(pool)
    dug = make_dug("q5", "Take with food as directed.", [])
    record = extract(dug, PromptStrategy.simple(), fewshot, ReplayClient(tmp_path))
    assert record.failed
    assert record.mtcs == () and record.candidates == ()


@pytest.mark.parametrize("kind", _UNREADABLE)
def test_extract_marks_unreadable_fixture_failed(tmp_path, pool, kind):
    fewshot = _fewshot(pool)
    dug = make_dug("q7", "Take with food as directed.", [])
    prompt = build_prompt(default_template("simple"), fewshot, dug)
    client = _unreadable_fixture(tmp_path, kind, prompt)
    record = extract(dug, PromptStrategy.simple(), fewshot, client)
    assert record.failed
    assert record.raw_outputs == () and record.candidates == () and record.mtcs == ()


@pytest.mark.parametrize("payload", _MALFORMED_BODIES)
def test_extract_marks_malformed_http_body_failed(pool, payload):
    fewshot = _fewshot(pool)
    dug = make_dug("q8", "Take with food as directed.", [])
    session = FakeSession([FakeResponse(payload=payload)])
    client = HttpCompletionClient("http://svc", model="m", api_key="k", session=session)
    record = extract(dug, PromptStrategy.simple(), fewshot, client)
    assert record.failed
    assert record.raw_outputs == () and record.predictions == () and record.mtcs == ()


class _FailingClient:
    """Answers every prompt, but raises ``exc`` for the query that holds ``marker``."""

    def __init__(self, exc, marker):
        self.exc = exc
        self.marker = marker

    def complete(self, request):
        if self.marker in request.prompt:
            raise self.exc
        return CompletionResponse("3 times day")


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize(
    "exc, error",
    [
        (RuntimeError("boom"), "RuntimeError: boom"),
        (KeyError("choices"), "KeyError: 'choices'"),
        (ServiceError("server error 503", status=503), "server error 503"),
    ],
)
def test_any_client_exception_marks_only_its_record_failed(pool, parallelism, exc, error):
    fewshot = _fewshot(pool)
    dugs = [make_dug(f"x{i}", f"Take dose {i} three times daily.", []) for i in range(6)]
    client = _FailingClient(exc, "Take dose 3 three")
    records = extract_corpus(dugs, PromptStrategy.simple(), fewshot, client, parallelism)
    assert [r.dug_id for r in records] == [d.id for d in dugs]
    assert [r.error for r in records] == [None, None, None, error, None, None]
    assert records[3].raw_outputs == () and records[3].mtcs == ()
    assert all(r.predictions == ("3 times day",) for i, r in enumerate(records) if i != 3)


class _Pulls:
    """Iterator over ``items`` that counts how many were taken."""

    def __init__(self, items):
        self._items = iter(items)
        self.count = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._items)
        self.count += 1
        return item


class _CountingClient:
    """Answers every prompt; counts calls across threads."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
        time.sleep(0.001)
        return CompletionResponse("3 times day")


@pytest.mark.parametrize("parallelism", [2, 3])
def test_parallel_extraction_pulls_a_bounded_window(pool, parallelism):
    fewshot = _fewshot(pool)
    dugs = [make_dug(f"w{i:02d}", f"Take dose {i} three times daily.", []) for i in range(30)]
    serial = [r.to_dict() for r in iter_extract_corpus(dugs, PromptStrategy.simple(), fewshot, _CountingClient())]
    pulls = _Pulls(dugs)
    got = []
    for record in iter_extract_corpus(pulls, PromptStrategy.simple(), fewshot, _CountingClient(), parallelism):
        got.append(record.to_dict())
        assert pulls.count <= len(got) + 2 * parallelism
    assert got == serial and pulls.count == len(dugs)


def test_closing_parallel_extraction_stops_pulling(pool):
    fewshot = _fewshot(pool)
    pulls = _Pulls(make_dug(f"c{i:02d}", f"Take dose {i} three times daily.", []) for i in range(30))
    client = _CountingClient()
    records = iter_extract_corpus(pulls, PromptStrategy.simple(), fewshot, client, parallelism=2)
    assert next(records).dug_id == "c00"
    records.close()
    assert pulls.count <= 1 + 4
    calls = client.calls
    assert calls <= pulls.count
    time.sleep(0.01)
    assert client.calls == calls  # nothing keeps running after close


def test_type_guides_read_once_and_copied():
    prompts._type_guide_table.cache_clear()
    first = type_guides()
    first.clear()
    assert sorted(type_guides()) == list(range(1, 8))
    assert prompts._type_guide_table.cache_info().misses == 1


def test_extract_corpus_order_and_determinism(tmp_path, pool):
    fewshot = _fewshot(pool)
    eval_split = exclude_fewshot(pool, fewshot)
    client = ReplayClient(tmp_path)
    template = default_template("simple")
    for dug in eval_split:
        client.store(build_prompt(template, fewshot, dug), gold_answer(dug))
    first = extract_corpus(eval_split, PromptStrategy.simple(), fewshot, client)
    second = extract_corpus(eval_split, PromptStrategy.simple(), fewshot, client)
    parallel = extract_corpus(
        eval_split, PromptStrategy.simple(), fewshot, client, parallelism=3
    )
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert [r.to_dict() for r in first] == [r.to_dict() for r in parallel]
    assert [r.dug_id for r in first] == [d.id for d in eval_split]


def test_record_to_dict_shape(tmp_path, pool):
    fewshot = _fewshot(pool)
    dug = make_dug("q6", "Take it three times daily.", [])
    client = _stock_replay(tmp_path, fewshot, dug, PromptStrategy.simple(), "three times daily")
    record = extract(dug, PromptStrategy.simple(), fewshot, client).to_dict()
    assert record["dug_id"] == "q6"
    assert record["predictions"] == ["3 times day"]
    assert record["mtcs"] == ["3 times day"]
    assert record["candidates"][0]["valid"] is True
