"""JSONL reading/writing with byte-deterministic output."""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class MalformedLine(ValueError):
    """A JSONL line that is not JSON, or whose value its reader cannot decode."""


def dumps(obj: Any) -> str:
    # Compact separators and raw UTF-8 keep output bytes stable across runs.
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each of ``lines`` and a newline; returns the count.

    The lines go to a temp file beside ``path``, renamed onto it once ``lines``
    is exhausted. If ``lines`` raises part way (say, a lazily read input has a
    bad record), the temp file is removed and a file already at ``path`` keeps
    its bytes; ``path`` may also be the file ``lines`` reads from.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    f = open(tmp, "w", encoding="utf-8", newline="\n")
    n = 0
    try:
        with f:
            for line in lines:
                f.write(line)
                f.write("\n")
                n += 1
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return n


def write_jsonl(path: str | Path, objs: Iterable[Any]) -> int:
    """``write_lines`` of one ``dumps`` line per value of ``objs``; returns the count."""
    return write_lines(path, map(dumps, objs))


def parse_json(data: bytes) -> Any:
    """The JSON value of the UTF-8 text ``data``.

    Raises:
        ValueError: ``data`` is not UTF-8 or not JSON, nests deeper than the
            parser can recurse, or holds an integer too long to convert; the
            message says which, without naming where ``data`` came from.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except json.JSONDecodeError as err:
        at = f"column {err.colno}" if err.lineno == 1 else f"line {err.lineno}, column {err.colno}"
        raise ValueError(f"{err.msg} ({at})") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """``parse_json`` of each non-blank line; a line ends at each newline byte.

    Raises:
        MalformedLine: a line fails ``parse_json``; the message leads with
            ``path:line``.
    """
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    value = parse_json(line)
                except ValueError as err:
                    raise MalformedLine(f"{path}:{lineno}: {err}") from None
                yield value


def read_records(path: str | Path, decode: Callable[[Any], T]) -> Iterator[T]:
    """``decode`` each value of ``read_jsonl(path)``.

    Raises:
        MalformedLine: a line is not JSON, or ``decode`` fails on its value; the
            message leads with ``path:line``, blank lines counted.
    """
    for k, obj in enumerate(read_jsonl(path)):
        try:
            rec = decode(obj)
        except (KeyError, TypeError, ValueError, AttributeError) as err:
            detail = f"missing key {err}" if isinstance(err, KeyError) else str(err)
            with open(path, "rb") as f:  # the k-th value's line, on failure only
                lineno = [n for n, line in enumerate(f, 1) if line.strip()][k]
            raise MalformedLine(f"{path}:{lineno}: {detail}") from None
        yield rec


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
