"""Few-shot selection, prompt rendering, clients, and extraction records."""

from __future__ import annotations

import copy
import gc
import hashlib
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import MISSING, FrozenInstanceError, asdict, dataclass, fields, replace
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtckit
from mtckit import FileFormatError, grammar
from mtckit.icl import (
    SPECIALIZED_DEFAULT_TYPES,
    CandidateResult,
    CompletionRequest,
    CompletionResponse,
    ExtractionRecord,
    FewShotLeakageError,
    HttpCompletionClient,
    InsufficientPoolError,
    PromptBuildError,
    PromptStrategy,
    PromptTemplate,
    RawCall,
    ReplayClient,
    ServiceError,
    StrategyMismatchError,
    build_prompt,
    default_template,
    exclude_fewshot,
    extract,
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
from mtckit.normalize import NORMALIZE_CACHE_SIZE, default_activity_aliases

import replay_scenario
from conftest import make_dug, random_mtc


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


@pytest.mark.parametrize("k", [0, -1])
def test_selection_refuses_k_below_one(pool, k):
    with pytest.raises(InsufficientPoolError, match=f"^k must be at least 1, got {k}$"):
        select_fewshot(pool, k=k, seed=0)


@pytest.mark.parametrize("k, kind", [(8.5, "float"), ("3", "str"), (True, "bool"), (None, "NoneType")])
def test_selection_refuses_k_that_is_not_an_int(pool, k, kind):
    with pytest.raises(TypeError, match=f"^k must be an integer, got {kind}$"):
        select_fewshot(pool, k=k, seed=0)


def test_selection_k_too_small_for_coverage(pool):
    with pytest.raises(InsufficientPoolError):
        select_fewshot(pool, k=2, seed=0)


def test_selection_records_pool_gaps(pool):
    no_empty = [d for d in pool if d.labels]
    fewshot = select_fewshot(no_empty, k=8, seed=0)
    assert "empty" in fewshot.gaps
    assert not any(p.coverage.empty for p in fewshot.pairs)


def test_gaps_are_derived_from_the_pairs(pool):
    fewshot = select_fewshot([d for d in pool if d.labels], k=8, seed=0)
    assert FewShotSet(fewshot.pairs).gaps == fewshot.gaps == ("empty",)
    assert fewshot_from_dugs([d for d in pool if not d.labels][:1]).gaps == ("nonempty", "multiple", "difficult")
    assert FewShotSet(()).gaps == ("empty", "nonempty", "single", "multiple", "simple", "difficult")
    with pytest.raises(TypeError):
        FewShotSet(fewshot.pairs, ("empty",))


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


def test_build_prompt_refuses_wrong_typed_arguments(pool):
    template, fewshot = default_template("simple"), select_fewshot(pool, k=8, seed=0)
    dug = make_dug("q", "text", [])
    with pytest.raises(TypeError, match="^template must be a PromptTemplate, got str$"):
        build_prompt("x", None, None)
    with pytest.raises(TypeError, match="^fewshot must be a FewShotSet, got list$"):
        build_prompt(template, list(fewshot.pairs), dug)
    with pytest.raises(TypeError, match="^dug must be a Dug, got str$"):
        build_prompt(template, fewshot, "Take twice daily.")


def test_strategy_validation():
    assert PromptStrategy.specialized().types == (1, 2, 3, 4, 6, 7)
    assert PromptStrategy.specialized((1, 5)).types == (1, 5)
    with pytest.raises(ValueError):
        PromptStrategy("weird")
    with pytest.raises(ValueError):
        PromptStrategy("simple", (2,))


@pytest.mark.parametrize("types", [(2, 2), (1, 3, 1)])
def test_specialized_types_must_not_repeat(types):
    with pytest.raises(ValueError, match=re.escape(f"specialized types must not repeat, got {types}")):
        PromptStrategy("specialized", types)


def test_specialized_default_types_have_one_home():
    assert PromptStrategy.specialized() == PromptStrategy("specialized") == PromptStrategy("specialized", ())
    assert PromptStrategy("specialized").types == SPECIALIZED_DEFAULT_TYPES
    assert inspect.signature(PromptStrategy.specialized).parameters["types"].default == ()


def test_default_template_is_read_once_and_rejects_an_unknown_kind_every_time():
    assert default_template("guided") is default_template("guided")
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown strategy 'weird'"):
            default_template("weird")


def test_every_exported_name_exists_and_extraction_has_one_corpus_entry_point():
    import mtckit.icl as icl

    namespace: dict = {}
    exec("from mtckit.icl import *", namespace)
    assert [name for name in icl.__all__ if not hasattr(icl, name)] == []
    assert set(icl.__all__) <= set(namespace)
    extract_module = importlib.import_module("mtckit.icl.extract")
    assert not hasattr(icl, "extract_corpus") and not hasattr(extract_module, "extract_corpus")
    assert "extract_corpus" not in icl.__all__
    for fn in (extract, iter_extract_corpus):
        assert "templates" not in inspect.signature(fn).parameters
    assert not hasattr(prompts, "_packaged_template")


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
    # Answers are canonical strings, which hold no braces, so filling them
    # first leaves a text's own "{answer}" verbatim, as one-pass filling does.
    examples = [
        template.example_format.replace("{answer}", gold_answer(pair.dug, mtc_type)).replace(
            "{text}", pair.dug.text
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
        with pytest.raises(StrategyMismatchError):
            build_prompt(default_template("simple"), fewshot, dug, mtc_type=[2])
        with pytest.raises(TypeError, match="unhashable"):
            build_prompt(default_template("specialized"), fewshot, dug, mtc_type=[2])


def test_fewshot_set_value_semantics(pool):
    fewshot = select_fewshot(pool, k=8, seed=0)
    assert fewshot == select_fewshot(pool, k=8, seed=0)
    assert fewshot != select_fewshot(pool, k=8, seed=1)
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
    client = ReplayClient(tmp_path / "fixtures.jsonl")
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


@pytest.mark.parametrize("package", [mtckit, mtckit.icl], ids=lambda m: m.__name__)
def test_public_names_resolve_and_star_import_binds_exactly_them(package):
    assert len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(package.__all__)


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
    path = tmp_path / "fixtures.jsonl"
    client = ReplayClient(path)
    assert client.store("a prompt", "a response") == path
    assert client.complete(CompletionRequest("a prompt")).text == "a response"
    assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == [
        {"fingerprint": prompt_fingerprint("a prompt"), "text": "a response"}
    ]
    assert ReplayClient(path).complete(CompletionRequest("a prompt")).text == "a response"


def test_replay_missing_fixture(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    client = ReplayClient(path)
    client.store("another prompt", "a response")
    for loaded in (client, ReplayClient(path), ReplayClient(tmp_path / "absent.jsonl")):
        with pytest.raises(ServiceError) as err:
            loaded.complete(CompletionRequest("never stored"))
        assert str(err.value) == f"no replay fixture {prompt_fingerprint('never stored')} in {loaded.path}"


def test_replay_store_refuses_a_text_that_is_not_a_string(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    client = ReplayClient(path)
    with pytest.raises(TypeError, match="^response_text must be a string, got NoneType$"):
        client.store("p", None)
    assert not path.exists()
    with pytest.raises(ServiceError):
        client.complete(CompletionRequest("p"))


def test_replay_later_line_wins(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    client = ReplayClient(path)
    client.store("p", "first")
    client.store("p", "second")
    assert client.complete(CompletionRequest("p")).text == "second"
    assert ReplayClient(path).complete(CompletionRequest("p")).text == "second"


def test_replay_store_appends_to_one_file_read_once(tmp_path):
    path = tmp_path / "nested" / "fixtures.jsonl"
    client = ReplayClient(path)
    for i in range(100):
        client.store(f"prompt {i}", f"{i} times day")
    assert [p.name for p in path.parent.iterdir()] == ["fixtures.jsonl"]
    assert len(path.read_bytes().splitlines()) == 100
    loaded = ReplayClient(path)
    path.unlink()
    for i in range(100):
        assert loaded.complete(CompletionRequest(f"prompt {i}")).text == f"{i} times day"


def _expected_replay_text(text: str) -> str:
    """What text-mode reading gives for the same characters: universal newlines."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


@pytest.mark.parametrize(
    "data",
    [b"3 times day\r\nbefore sleep\r\n", b"3 times day\rbefore sleep\r", b"a\r\r\nb\n\rc",
     b"\xef\xbb\xbfin morning", b"plain", b"", "caf\u00e9 \u2013 4 hours apart".encode(),
     b"x" * 4096, b"3 times day\r\n" * 2000],
)
def test_replay_reads_fixture_as_read_text_does(tmp_path, data):
    path = tmp_path / "fixtures.jsonl"
    ReplayClient(path).store("p", data.decode("utf-8"))
    (tmp_path / "text.txt").write_bytes(data)
    expected = (tmp_path / "text.txt").read_text(encoding="utf-8")
    assert _expected_replay_text(data.decode("utf-8")) == expected
    assert ReplayClient(path).complete(CompletionRequest("p")).text == expected


@settings(max_examples=150, deadline=None)
@given(text=st.text())
def test_replay_gives_back_any_stored_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("replay") / "fixtures.jsonl"
    client = ReplayClient(path)
    client.store("p", text)
    expected = _expected_replay_text(text)
    assert client.complete(CompletionRequest("p")).text == expected
    assert ReplayClient(path).complete(CompletionRequest("p")).text == expected


def _unreadable_fixture(tmp_path, kind) -> Path:
    """A fixtures path that cannot be loaded; a bad line is always line 2."""
    path = tmp_path / "fixtures.jsonl"
    good = json.dumps({"fingerprint": prompt_fingerprint("p"), "text": "in morning"})
    if kind == "directory":
        path.mkdir()
    elif kind == "parent is a file":
        path.write_text("")
        path = path / "fixtures.jsonl"
    elif kind == "not utf-8":
        path.write_bytes(good.encode() + b"\n" + good.encode()[:-2] + b"\xff\xfe\"}\n")
    elif kind == "not json":
        path.write_text(f"{good}\n{good[:-1]}\n", encoding="utf-8")
    elif kind == "not a fixture record":
        path.write_text(f'{good}\n{{"fingerprint": "{"A" * 64}", "text": "x"}}\n', encoding="utf-8")
    return path


_UNREADABLE = ["directory", "parent is a file", "not utf-8", "not json", "not a fixture record"]


@pytest.mark.parametrize("kind", _UNREADABLE)
def test_replay_unreadable_fixture_file_fails_to_load(tmp_path, kind):
    path = _unreadable_fixture(tmp_path, kind)
    if kind in ("directory", "parent is a file"):
        with pytest.raises(OSError):
            ReplayClient(path)
    else:
        with pytest.raises(FileFormatError) as err:
            ReplayClient(path)
        assert [line for line, _ in err.value.problems] == [2]
        assert str(err.value).startswith(f"{path}:2: ")


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
    assert response == CompletionResponse("3 times day")
    assert [f.name for f in fields(CompletionResponse)] == ["text"]
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
    client = ReplayClient(tmp_path / "fixtures.jsonl")
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
        extract(member, PromptStrategy.simple(), fewshot, ReplayClient(tmp_path / "fixtures.jsonl"))


class _RefusingClient:
    def complete(self, request):
        raise AssertionError("no call may be made")


def test_a_text_twin_of_an_example_is_in_the_set_excluded_and_refused(pool):
    fewshot = fewshot_from_dugs([make_dug("f1", "Take twice daily.", ["2 times day"])])
    query, twin = make_dug("q0", "Take with food.", []), make_dug("q1", "Take twice daily.", [])
    assert fewshot.texts == {"Take twice daily."}
    assert twin in fewshot and query not in fewshot
    assert exclude_fewshot([query, twin], fewshot) == [query]
    for strategy in (PromptStrategy.simple(), PromptStrategy.guided(), PromptStrategy.specialized()):
        with pytest.raises(FewShotLeakageError, match="'q1'"):
            extract(twin, strategy, fewshot, _RefusingClient())


@pytest.mark.parametrize(
    ("parallelism", "error"),
    [(0, ValueError), (-3, ValueError), (True, TypeError), (2.0, TypeError), ("2", TypeError)],
)
def test_extract_corpus_refuses_a_bad_parallelism_at_the_call(pool, parallelism, error):
    fewshot = _fewshot(pool)
    with pytest.raises(error, match="parallelism must be"):
        iter_extract_corpus([], PromptStrategy.simple(), fewshot, _RefusingClient(), parallelism)


def test_extract_marks_failure_without_fabricating(tmp_path, pool):
    fewshot = _fewshot(pool)
    dug = make_dug("q5", "Take with food as directed.", [])
    record = extract(dug, PromptStrategy.simple(), fewshot, ReplayClient(tmp_path / "fixtures.jsonl"))
    assert record.failed
    assert record.mtcs == () and record.candidates == ()


def test_extract_marks_only_the_record_with_a_missing_fixture_failed(tmp_path, pool):
    fewshot = _fewshot(pool)
    template = default_template("simple")
    stocked, missing = (make_dug(f"q{i}", f"Take dose {i} with food as directed.", []) for i in (6, 7))
    path = tmp_path / "fixtures.jsonl"
    ReplayClient(path).store(build_prompt(template, fewshot, stocked), "in morning")
    client = ReplayClient(path)
    first, second = iter_extract_corpus([stocked, missing], PromptStrategy.simple(), fewshot, client)
    assert not first.failed and first.predictions == ("in morning",)
    assert second.failed and second.error.startswith("no replay fixture ")
    assert second.raw_outputs == () and second.candidates == () and second.mtcs == ()


@pytest.mark.parametrize("payload", _MALFORMED_BODIES)
def test_extract_marks_malformed_http_body_failed(pool, payload):
    fewshot = _fewshot(pool)
    dug = make_dug("q8", "Take with food as directed.", [])
    session = FakeSession([FakeResponse(payload=payload)])
    client = HttpCompletionClient("http://svc", model="m", api_key="k", session=session)
    record = extract(dug, PromptStrategy.simple(), fewshot, client)
    assert record.failed
    assert record.raw_outputs == () and record.predictions == () and record.mtcs == ()


@pytest.mark.parametrize("text", [None, 5, b"3 times day"])
def test_extract_marks_a_completion_that_is_not_text_failed(pool, text):
    class NotText:
        def complete(self, request):
            return CompletionResponse(text)

    dug = make_dug("q9", "Take with food as directed.", [])
    record = extract(dug, PromptStrategy.simple(), _fewshot(pool), NotText())
    assert record.failed and record.error == f"TypeError: completion text must be a string, got {type(text).__name__}"
    assert record.raw_outputs == () and record.candidates == () and record.mtcs == ()


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
    records = list(iter_extract_corpus(dugs, PromptStrategy.simple(), fewshot, client, parallelism))
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
    client = ReplayClient(tmp_path / "fixtures.jsonl")
    template = default_template("simple")
    for dug in eval_split:
        client.store(build_prompt(template, fewshot, dug), gold_answer(dug))
    first = list(iter_extract_corpus(eval_split, PromptStrategy.simple(), fewshot, client))
    second = list(iter_extract_corpus(eval_split, PromptStrategy.simple(), fewshot, client))
    parallel = list(
        iter_extract_corpus(eval_split, PromptStrategy.simple(), fewshot, client, parallelism=3)
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


# ------------------------------------------------------ answer judgement

# The submodule, which the package's ``extract`` function shadows.
extract_module = importlib.import_module("mtckit.icl.extract")

#: Every answer of the replay scenario, its noisy forms included.
_SCENARIO_ANSWERS = sorted({
    replay_scenario.canned_response(i, t, dug)
    for i, dug in enumerate(replay_scenario.build_corpus())
    for t in SPECIALIZED_DEFAULT_TYPES
})
#: Surface noise that normalizing rewrites or drops: stubs, quotes, number words, ``OR``, separators.
_NOISY_WORDS = ["Take", "do not", "NONE", "three", "times", "daily", "hours", "before", "after",
                "bedtime", "meals", "eating", "apart", ";", "\n", '"', ".", "OR", "in", "morning"]
_answers = st.one_of(
    st.text(max_size=40),
    st.sampled_from(_SCENARIO_ANSWERS),
    st.lists(st.sampled_from(_SCENARIO_ANSWERS), min_size=2, max_size=3).map("\n".join),
    st.lists(st.sampled_from(_NOISY_WORDS), max_size=10).map(" ".join),
    st.randoms(use_true_random=False).map(lambda rng: grammar.serialize(random_mtc(rng))),
)
_JUDGE_FEWSHOT = fewshot_from_dugs([make_dug("f1", "Take twice daily.", ["2 times day"])])
_JUDGED = make_dug("q1", "Take one tablet by mouth as directed.", [])


class _Scripted:
    """Gives ``answers`` in call order; call ``fail_at`` (counted from 0) raises."""

    def __init__(self, answers, fail_at=None):
        self.answers = answers
        self.fail_at = fail_at
        self.calls = 0

    def complete(self, request):
        call, self.calls = self.calls, self.calls + 1
        if call == self.fail_at:
            raise RuntimeError("no answer")
        return CompletionResponse(self.answers[call])


def _strategy(probes) -> PromptStrategy:
    return PromptStrategy.simple() if probes == (None,) else PromptStrategy.specialized(probes)


@settings(max_examples=150, deadline=None)
@given(
    probes=st.one_of(st.just((None,)), st.lists(st.integers(1, 7), min_size=1, max_size=7, unique=True).map(tuple)),
    data=st.data(),
)
def test_judging_each_answer_once_gives_the_records_of_the_uncached_path(probes, data):
    answers = [data.draw(_answers) for _ in probes]
    fail_at = data.draw(st.one_of(st.none(), st.integers(0, len(probes) - 1)))
    judge = extract_module._judge
    assert judge.cache_parameters() == {"maxsize": NORMALIZE_CACHE_SIZE, "typed": False}

    def record(probes=probes, answers=answers, fail_at=fail_at) -> dict:
        return extract(_JUDGED, _strategy(probes), _JUDGE_FEWSHOT, _Scripted(answers, fail_at)).to_dict()

    first = record()
    answered = len(probes) if fail_at is None else fail_at
    hits = judge.cache_info().hits
    warm = record()
    assert judge.cache_info().hits - hits == answered  # every answer judged from the memo
    judge.cache_clear()
    cold = record()
    with patch.object(extract_module, "_judge", judge.__wrapped__):
        uncached = record()
    assert first == warm == cold == uncached
    assert [call["text"] for call in first["raw_outputs"]] == answers[:answered]
    if fail_at is None:
        assert first["error"] is None
    else:  # the calls answered before the failure, and nothing made up
        assert first["error"] == "RuntimeError: no answer"
        if answered:
            assert {**first, "error": None} == record(probes[:answered], answers[:answered], None)
        else:
            assert first["candidates"] == first["predictions"] == first["mtcs"] == first["off_type"] == []


def test_a_record_shares_the_judged_values():
    strategy = PromptStrategy.specialized((2, 4))
    answers = ["3 times day OR 2 times day; before sleep", "before sleep"]
    one, two = (extract(_JUDGED, strategy, _JUDGE_FEWSHOT, _Scripted(answers)) for _ in range(2))
    assert one == two
    assert all(a is b for a, b in zip(one.raw_outputs + one.candidates, two.raw_outputs + two.candidates))
    assert [c.valid for c in one.candidates] == [False, True, True]
    assert one.off_type == ("before sleep",) and one.predictions == ("3 times day or 2 times day", "before sleep")


@pytest.mark.parametrize("types, name", [((True, 2), "bool"), ((1.0,), "float"), ((2, "4"), "str"), ((3, None), "NoneType")])
def test_a_probe_type_that_is_not_a_plain_int_is_refused(types, name):
    # A bool or float equal to a type number would reach the judge memo and print as given in a record.
    for make in (PromptStrategy.specialized, lambda types: PromptStrategy("specialized", types)):
        with pytest.raises(TypeError, match=f"^types must hold integers, got {name}$"):
            make(types)


# ------------------------------------------ few-shot texts with query text

_TEMPLATE_FRAGMENTS = ("Statement: ", "Statement:", "Constraints: ", "Constraints:", "\n", "\n\n",
                       "{text}", "{answer}", "NONE", "; ")
_QUERY_TEXTS = ("Take twice daily.", "Take with food.", "Statement: Take twice daily.",
                *(dug.text for dug in replay_scenario.build_corpus()[:5]))


class _Echo:
    def complete(self, request):
        return CompletionResponse("2 times day; before sleep")


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["simple", "guided", "specialized"]), data=st.data())
def test_fewshot_texts_embedding_corpus_texts_fail_their_records_never_make_them_up(kind, data):
    texts = data.draw(st.lists(
        st.one_of(st.sampled_from(_QUERY_TEXTS), st.text(min_size=1, max_size=20).filter(str.strip)),
        min_size=1, max_size=4, unique=True,
    ))
    corpus = [make_dug(f"q{i}", text, []) for i, text in enumerate(texts)]
    pieces = st.one_of(st.sampled_from(_TEMPLATE_FRAGMENTS), st.sampled_from(texts), st.text(max_size=8))
    quoting = st.builds(  # a text that quotes a guideline the way a prompt does
        lambda before, text, after: f"{before}Statement: {text}{after}",
        st.text(max_size=5), st.sampled_from(texts),
        st.sampled_from(("", "\nConstraints:", "\nConstraints: NONE", " and more")),
    )
    examples = data.draw(st.lists(
        st.one_of(quoting, st.lists(pieces, min_size=1, max_size=5).map("".join)).filter(str.strip),
        min_size=1, max_size=3, unique=True,
    ))
    fewshot = fewshot_from_dugs([make_dug(f"f{i}", text, ["2 times day"]) for i, text in enumerate(examples)])
    dugs = exclude_fewshot(corpus, fewshot)
    strategy = PromptStrategy(kind)
    template = default_template(kind)
    probes = strategy.types or (None,)
    cold = [r.to_dict() for r in iter_extract_corpus(dugs, strategy, fewshot, _Echo())]
    warm = [r.to_dict() for r in iter_extract_corpus(dugs, strategy, fewshot, _Echo())]
    assert cold == warm and [r["dug_id"] for r in cold] == [d.id for d in dugs]
    for dug, record in zip(dugs, cold):
        query = template.query_format.replace("{text}", dug.text)
        rendered = [_reference_prompt(template, fewshot, dug, t).count(query) == 1 for t in probes]
        made = rendered.index(False) if False in rendered else len(probes)
        assert [call["mtc_type"] for call in record["raw_outputs"]] == list(probes[:made])
        assert len(record["candidates"]) == 2 * made
        if made < len(probes):
            assert record["error"] == "PromptBuildError: query block must appear exactly once in the rendered prompt"
        else:
            assert record["error"] is None


# ------------------------------------------- the query check and digests

_QUERY_PIECES = ("Statement: ", "Statement:", "\nConstraints:", "\nConstraints: ", "\n\n", "\n", "NONE", " ")


#: A template whose query is the bare text, which can end in the prefix's own blank line.
_BARE = PromptTemplate("simple", "Header", "{text} {answer}", "{text}")

#: A template whose header holds its query's leading literal, and whose every
#: example block ends in the literal and a text, so with a short text the
#: literal starts within the prefix's last ``_INDEX_WIDTH`` characters.
_QUOTING = PromptTemplate("simple", "Header. Q: a query of sorts", "{answer} Q: {text}", "Q: {text}")

_WIDTH = prompts._INDEX_WIDTH

#: Longer than the index's key, so texts built on it share their first characters.
_STEM = "Take one tablet by mouth, "


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["simple", "guided", "specialized", "bare", "quoting"]), data=st.data())
def test_query_in_head_rejects_exactly_the_prompts_the_count_rejects(kind, data):
    examples = data.draw(st.lists(
        st.lists(st.one_of(st.sampled_from(_QUERY_PIECES + (_STEM,)), st.text(max_size=6)), min_size=1, max_size=5)
        .map("".join).filter(str.strip), min_size=1, max_size=3, unique=True,
    ))
    fewshot = fewshot_from_dugs([make_dug(f"f{i}", text, []) for i, text in enumerate(examples)])
    pieces = st.one_of(st.sampled_from(_QUERY_PIECES + (_STEM,)), st.sampled_from(examples), st.text(max_size=6))
    texts = st.one_of(
        st.lists(pieces, min_size=1, max_size=6).map("".join),
        st.text(max_size=_WIDTH - 1),  # shorter than the index's key
        # a few-shot text's first characters, then others
        st.builds(lambda example, tail: example[:_WIDTH] + tail, st.sampled_from(examples), pieces),
    )
    text = data.draw(texts.filter(str.strip))
    template = {"bare": _BARE, "quoting": _QUOTING}.get(kind) or default_template(kind)
    dug = make_dug("q", text, [])
    for t in PromptStrategy(template.strategy_kind).types or (None,):
        head = prompts._prefix(template, fewshot, t)[0]
        query = prompts._query(template, dug)
        assert head == _reference_prompt(template, fewshot, dug, t)[: -len(query)]
        if (head + query).count(query) != 1:
            with pytest.raises(PromptBuildError):
                build_prompt(template, fewshot, dug, t)
        else:
            assert build_prompt(template, fewshot, dug, t) == head + query


def test_the_index_lists_every_place_of_the_literal_by_what_follows():
    fewshot = fewshot_from_dugs([make_dug("f1", _STEM + "one", []), make_dug("f2", _STEM + "two", [])])
    template = default_template("simple")
    head, _, width, index = prompts._prefix(template, fewshot, None)
    literal = "Statement: "
    assert width == len(literal) + _WIDTH
    places = [p for p in range(len(head) - width + 1) if head.startswith(literal, p)]
    assert sorted(p for listed in index.values() for p in listed) == places
    assert all(head[p : p + width] == key for key, listed in index.items() for p in listed)
    assert len(index[literal + _STEM[:_WIDTH]]) == 2  # both examples under one key
    for text, refused in ((_STEM + "two", True), (_STEM + "three", False), (_STEM, False), (_STEM[:_WIDTH], False)):
        dug = make_dug("q", text, [])
        if refused:
            with pytest.raises(PromptBuildError):
                build_prompt(template, fewshot, dug)
        else:
            assert build_prompt(template, fewshot, dug) == _reference_prompt(template, fewshot, dug, None)
    assert prompts._prefix(_BARE, fewshot, None)[3] is None  # no literal, no index
    # The last place that can hold a whole query: one of exactly ``width``
    # characters that ends the prefix, blank line and all.
    tail = "e" * (_WIDTH - 2)
    fewshot = fewshot_from_dugs([make_dug("f", tail, [])])
    assert prompts._prefix(_QUOTING, fewshot, None)[0].endswith("Q: " + tail + "\n\n")
    with pytest.raises(PromptBuildError):
        build_prompt(_QUOTING, fewshot, make_dug("q", tail + "\n\n", []))
    # A literal that overlaps itself: ">>>" holds it at two places.
    arrows = PromptTemplate("simple", "Header", "{answer} >>{text}", ">>{text}")
    fewshot = fewshot_from_dugs([make_dug("f", ">" + _STEM, [])])
    with pytest.raises(PromptBuildError):
        build_prompt(arrows, fewshot, make_dug("q", _STEM, []))


def test_the_query_check_at_the_prefix_boundary():
    # Every example answer is NONE, so the prefix and its blank line end "NONE\n\n".
    fewshot = fewshot_from_dugs([make_dug("f", "example", [])])
    straddling = make_dug("q", "E\n\nE\n\nE", [])  # also occurs three characters before its own start
    prompt = build_prompt(_BARE, fewshot, straddling)
    assert prompt.endswith("NONE\n\n" + straddling.text)
    assert prompt.find(straddling.text) == len(prompt) - len(straddling.text) - 3
    assert prompt.count(straddling.text) == 1
    with pytest.raises(PromptBuildError):  # ends the prefix, then the prompt
        build_prompt(_BARE, fewshot, make_dug("q", "NONE\n\n", []))


class _Recording:
    def __init__(self):
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return CompletionResponse("NONE")


def _digest_or_error(read):
    try:
        return read()
    except UnicodeEncodeError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["simple", "guided", "specialized"]),
    texts=st.lists(
        st.one_of(st.text(min_size=1, max_size=12), st.sampled_from(_QUERY_PIECES),
                  # lone surrogates too, which plain text() never draws
                  st.text(st.characters(categories=["Cs", "Ll", "Zs"]), min_size=1, max_size=12)).filter(str.strip),
        min_size=2, max_size=3, unique=True,
    ),
)
def test_every_request_extract_sends_carries_the_digest_of_its_prompt(kind, texts):
    *examples, text = texts
    fewshot = fewshot_from_dugs([make_dug(f"f{i}", example, []) for i, example in enumerate(examples)])
    dug = make_dug("q", text, [])  # its text is none of the examples', so it is not in the set
    client = _Recording()
    extract(dug, PromptStrategy(kind), fewshot, client)
    for request in client.requests:
        want = _digest_or_error(lambda: hashlib.sha256(request.prompt.encode("utf-8")).digest())
        # A strict UTF-8 prompt comes with its digest; any other raises on each read.
        assert ("fingerprint" in vars(request)) == isinstance(want, bytes)
        assert _digest_or_error(lambda: request.fingerprint) == want


def test_fingerprint_is_a_cached_digest_outside_equality_hash_and_repr():
    request = CompletionRequest("a prompt")
    twin = CompletionRequest("a prompt")
    assert request.fingerprint == hashlib.sha256(b"a prompt").digest()
    assert request.fingerprint is request.fingerprint
    assert request == twin and hash(request) == hash(twin) and repr(request) == repr(twin)
    assert "fingerprint" not in {f.name for f in fields(CompletionRequest)}
    with pytest.raises(AttributeError):
        request.fingerprint = b"x"


# ------------------------------------- the written-out dataclass __init__s

#: Each class whose ``__init__`` is written out, with one value for every field.
_WRITTEN_INIT = {
    CompletionRequest: ("a prompt", 0.5, 64),
    ExtractionRecord: (
        "d1", "specialized", (RawCall("2 times day", 2),), (CandidateResult("2 times day", True),),
        ("2 times day",), (grammar.parse_mtc("2 times day"),), ("before sleep",), "an error",
    ),
}


def _generated(cls):
    """A frozen dataclass of ``cls``'s name and fields, with the generated ``__init__``."""
    namespace = {"__annotations__": {f.name: f.type for f in fields(cls)}}
    namespace.update((f.name, f.default) for f in fields(cls) if f.default is not MISSING)
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _state(value) -> tuple:
    return type(value).__name__, repr(value), hash(value), vars(value)


@pytest.mark.parametrize("cls", list(_WRITTEN_INIT), ids=lambda c: c.__name__)
def test_written_init_has_the_generated_signature(cls):
    assert "__init__" in vars(cls)
    ours = list(inspect.signature(cls.__init__).parameters.values())
    generated = list(inspect.signature(_generated(cls).__init__).parameters.values())
    assert ours == generated
    assert [p.name for p in ours[1:]] == [f.name for f in fields(cls)]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in ours)


@pytest.mark.parametrize("cls", list(_WRITTEN_INIT), ids=lambda c: c.__name__)
def test_written_init_keeps_the_generated_value_semantics(cls):
    reference, values = _generated(cls), _WRITTEN_INIT[cls]
    names = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    calls = [  # positional, keyword, mixed and defaults
        (values, {}), ((), dict(zip(names, values))), (values[:1], dict(zip(names[1:], values[1:]))),
        (values[: len(required)], {}),
    ]
    for args, kwargs in calls:
        value, twin = cls(*args, **kwargs), reference(*args, **kwargs)
        assert _state(value) == _state(twin)
        assert value == cls(*args, **kwargs) and value != cls(*values[:-1], "other")
        assert _state(replace(value, **{names[0]: "changed"})) == _state(replace(twin, **{names[0]: "changed"}))
        assert asdict(value) == asdict(twin)
        for duplicate in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert duplicate is not value and _state(duplicate) == _state(value)
        for field in names:
            with pytest.raises(FrozenInstanceError):
                setattr(value, field, values[0])
            with pytest.raises(FrozenInstanceError):
                delattr(value, field)
    for args, kwargs in (((), {"unknown": 1, **dict(zip(required, values))}), (values + (None,), {}), ((), {})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            reference(*args, **kwargs)


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
def test_request_copies_keep_a_fingerprint_only_once_read(read):
    request = CompletionRequest("a prompt", 0.5, 64)
    if read:
        assert request.fingerprint == hashlib.sha256(b"a prompt").digest()
    for duplicate in (copy.copy(request), pickle.loads(pickle.dumps(request))):
        assert duplicate == request and ("fingerprint" in vars(duplicate)) == read
        assert duplicate.fingerprint == hashlib.sha256(b"a prompt").digest()
    changed = replace(request, prompt="another prompt")
    assert "fingerprint" not in vars(changed)
    assert changed.fingerprint == hashlib.sha256(b"another prompt").digest()


@pytest.mark.parametrize("where", ["guideline", "fewshot"])
def test_a_lone_surrogate_keeps_its_failed_replay_record(tmp_path, pool, where):
    texts = {"guideline": "Take twice daily \udcff.", "fewshot": pool[0].text + " \udcff"}
    fewshot = fewshot_from_dugs([replace(pool[0], text=texts["fewshot"]) if where == "fewshot" else pool[0], *pool[1:]])
    dug = make_dug("q", texts["guideline"] if where == "guideline" else "Take twice daily.", [])
    strategy = PromptStrategy.specialized()
    prompt = build_prompt(default_template("specialized"), fewshot, dug, strategy.types[0])
    client = ReplayClient(tmp_path / "fixtures.jsonl")
    client.store("an unrelated prompt", "2 times day")
    for run in range(2):  # cold, then with the prefix kept
        record = extract(dug, strategy, fewshot, client)
        assert record.raw_outputs == () and record.failed
        assert record.error == (
            "UnicodeEncodeError: 'utf-8' codec can't encode character '\\udcff' "
            f"in position {prompt.index(chr(0xDCFF))}: surrogates not allowed"
        )
