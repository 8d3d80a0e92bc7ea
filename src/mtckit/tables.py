"""The reader of the tab-separated tables: activity aliases, type rules, type guides."""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Callable

#: The tables shipped with the package.
DATA = resources.files("mtckit") / "data"


def read_table(path: str | Path, layout: str, row: Callable) -> list:
    """``row(*fields)`` for each row of a UTF-8 table, in file order.

    ``layout`` names the tab-separated fields (``"alias<TAB>canonical"``), and
    blank and ``#`` lines are skipped. A row with another field count or an
    empty field, or whose ``row`` call raises ``ValueError``, raises
    ``ValueError("<path>:<line>: <reason>: <row>")``.
    """
    width = layout.count("<TAB>") + 1
    rows = []
    text = (Path(path) if isinstance(path, str) else path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = [field.strip() for field in line.strip().split("\t")]
        if not fields[0] or fields[0].startswith("#"):
            continue
        try:
            if len(fields) != width or not all(fields):
                raise ValueError(f"expected '{layout}'")
            rows.append(row(*fields))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}: {line!r}") from None
    return rows
