"""The reader of every line-oriented input file: corpora, prediction records,
timelines, candidate lists and the tab-separated tables."""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Callable

#: The tables shipped with the package.
DATA = resources.files("mtckit") / "data"

#: How many bad lines a :class:`FileFormatError` message names as ``<path>:<line>: <reason>``.
SHOWN_PROBLEMS = 5


class FileFormatError(ValueError):
    """The bad lines of one file: ``path`` and ``problems``, ``(line, reason)`` pairs."""

    def __init__(self, path: str | Path, problems: list[tuple[int, str]]):
        self.path = path
        self.problems = problems
        shown = [f"{path}:{line}: {reason}" for line, reason in problems[:SHOWN_PROBLEMS]]
        if len(problems) > SHOWN_PROBLEMS:
            shown.append(f"and {len(problems) - SHOWN_PROBLEMS} more bad line(s)")
        super().__init__("; ".join(shown))


def universal_newlines(text: str) -> str:
    """``text`` with ``\\r\\n`` and a lone ``\\r`` turned into ``\\n``, as text-mode reading does."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_lines(path: str | Path, row: Callable[[str], object]) -> list:
    """``row(line)`` for each nonblank line of a UTF-8 file or package resource.

    Lines end at ``\\n`` only (a JSON record may hold a raw U+2028), and a
    ``\\r`` before it is dropped. Every line that is not UTF-8, or whose ``row``
    raises ``ValueError`` or ``RecursionError``, is a problem of one
    :class:`FileFormatError`.
    """
    rows = []
    problems = []
    data = (Path(path) if isinstance(path, str) else path).read_bytes()
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.removesuffix(b"\r").decode("utf-8")
            if line.strip():
                rows.append(row(line))
        except (ValueError, RecursionError) as exc:
            problems.append((lineno, str(exc)))
    if problems:
        raise FileFormatError(path, problems)
    return rows


def read_table(path: str | Path, layout: str, row: Callable) -> list:
    """``row(*fields)`` for each row of a UTF-8 table, in file order.

    ``layout`` names the tab-separated fields (``"alias<TAB>canonical"``), and
    blank and ``#`` lines are skipped. A row with another field count or an
    empty field, or whose ``row`` call raises ``ValueError``, is a problem.
    """
    width = layout.count("<TAB>") + 1

    def table_row(line: str):
        fields = [field.strip() for field in line.strip().split("\t")]
        if fields[0].startswith("#"):
            return None
        if len(fields) != width or not all(fields):
            raise ValueError(f"expected '{layout}'")
        return row(*fields)

    return [parsed for parsed in read_lines(path, table_row) if parsed is not None]
