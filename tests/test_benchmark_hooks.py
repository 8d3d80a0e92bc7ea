"""The benchmark's tracing hooks install on the package and come off cleanly.

``perfbench/tracing.py`` wraps functions by their module attribute names;
a rename in ``src/`` that it still expects makes ``install`` raise here,
in well under a second, instead of only in the benchmark's self-test.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import mtckit.adherence as adherence
import mtckit.dataset as dataset
import mtckit.evaluation as evaluation
import mtckit.grammar as grammar
import mtckit.icl.prompts as prompts
import mtckit.rulebase as rulebase

# The package's ``extract`` function shadows the submodule attribute.
extract = importlib.import_module("mtckit.icl.extract")


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_OWNERS = {
    "grammar": grammar,
    "dataset": dataset,
    "adherence": adherence,
    "evaluation": evaluation,
    "prompts": prompts,
    "rulebase": rulebase,
    "extract": extract,
    "TypeRule": rulebase.TypeRule,
    "Timeline": adherence.Timeline,
}


def test_tracing_install_patches_every_layer_and_restore_puts_each_original_back():
    tracing = _tracing()
    before = {name: dict(vars(owner)) for name, owner in _OWNERS.items()}
    build = vars(adherence.Timeline)["build"]

    patches = tracing.install(tracing.Tracer())
    try:
        for name, owner in _OWNERS.items():
            changed = [key for key, value in vars(owner).items() if before[name].get(key) is not value]
            assert changed, f"install patched nothing on {name}"
        assert vars(adherence.Timeline)["build"] is not build
        assert isinstance(vars(adherence.Timeline)["build"], classmethod)
        assert extract.extract is not before["extract"]["extract"]
    finally:
        patches.restore()

    for name, owner in _OWNERS.items():
        after = vars(owner)
        assert after.keys() == before[name].keys(), name
        moved = [key for key, value in before[name].items() if after[key] is not value]
        assert moved == [], f"{name}: {moved} not restored"
    assert vars(adherence.Timeline)["build"] is build
