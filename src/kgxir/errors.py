"""Exception types shared across the package, the one reader of input
files, and the one rule for decoding JSON in them.

Every input file is opened by :func:`read`, as UTF-8, and every line-based
format is split by :func:`rows` or, for the KG edge file read in bulk, by its
rule, so all formats share one rule: blank lines and lines starting with
``#`` are skipped, and a line with the wrong number of fields is a
:class:`DataFormatError` naming the file and the line.

How a bad input reaches the user:

* :class:`DataFormatError` -- a file's content is malformed or inconsistent
  (``kgxir`` exits 2, as for any other ``ValueError`` of the library);
* :class:`UsageError` -- the caller asked for something unusable: a bad
  mode, a missing KG or gold links, an index without an entity cache,
  ``k < 1`` (``kgxir`` exits 1);
* ``OSError`` -- a missing, unreadable or directory path, raised by
  ``open`` itself (``kgxir`` exits 1 and names the path).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class DataFormatError(ValueError):
    """A data file (corpus, KG, qrels, ...) violates its expected format.

    Messages include the offending path and 1-based line number where known.
    """


class UsageError(ValueError):
    """A caller mistake: an unknown mode, a missing input that the request
    needs, or an unusable value. Messages name the CLI flag in parentheses."""


class RelatednessUndefinedError(ValueError):
    """Raw-mode relatedness requested for a pair with no shared in-links."""


def rows(
    lines: Iterable[str], source: str, n_fields: int, sep: str | None = "\t"
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(1-based line number, fields)`` for each data line.

    Blank lines and lines starting with ``#`` are skipped. ``sep=None``
    splits the stripped line on runs of whitespace (qrels); otherwise the
    line, without its newline, is split on ``sep``.
    """
    kind = "tab" if sep == "\t" else "whitespace"
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n") if sep else raw.strip()
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(sep)
        if len(fields) != n_fields:
            raise DataFormatError(
                f"{source}:{lineno}: expected {n_fields} {kind}-separated fields, got {len(fields)}"
            )
        yield lineno, fields


def read(path: str | Path, parse: Callable[..., T], *args: object) -> T:
    """Open ``path`` as UTF-8 and return ``parse(fh, *args, source=str(path))``.

    Bytes that are not UTF-8 raise :class:`DataFormatError` naming the file;
    ``OSError`` from opening the file propagates.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            return parse(fh, *args, source=str(path))
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def decode_json(text: str, where: str) -> object:
    """``json.loads(text)``; text that does not decode, or nests too deeply
    to, raises :class:`DataFormatError` at ``where`` (a file, or its line)."""
    try:
        return json.loads(text)
    except RecursionError:
        raise DataFormatError(f"{where}: invalid JSON (nested too deeply)") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past CPython's digit limit
        raise DataFormatError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
