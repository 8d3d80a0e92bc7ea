"""The suite's pytest fixtures, loaded through ``pytest_plugins`` in ``conftest``."""

from __future__ import annotations

from pathlib import Path

import pytest

from mtckit import Dug, dump_dugs

from conftest import stratified_pool


@pytest.fixture
def pool() -> list[Dug]:
    return stratified_pool()


@pytest.fixture
def corpus_path(tmp_path, pool) -> Path:
    path = tmp_path / "corpus.jsonl"
    dump_dugs(pool, path)
    return path
