"""JSONL reading and writing with byte-deterministic output, and ``map_lines``: the
order-preserving map over the lines of a file that every per-line subcommand runs on,
in forked workers for CPU-bound work or on threads for I/O-bound work."""

from __future__ import annotations

import collections
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Non-blank lines per unit of work that ``map_lines`` hands a worker.
CHUNK_LINES = 128


class MalformedLine(ValueError):
    """A JSONL line that is not JSON, or whose value its reader cannot decode."""


def dumps(obj: Any) -> str:
    # Compact separators and raw UTF-8 keep output bytes stable across runs.
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_lines(path: str | Path, lines: Iterable[str], staged: list | None = None) -> int:
    """Write each of ``lines`` and a newline; returns the count.

    The lines go to a temp file beside ``path``, renamed onto it once ``lines``
    is exhausted, or with ``staged`` appended to it as ``(temp file, path)``. If
    ``lines`` raises part way (say, a lazily read input has a bad record), the
    temp file is removed and a file already at ``path`` keeps its bytes; ``path``
    may also be the file ``lines`` reads from. An ``OSError`` from opening the
    temp file names ``path``, the file the caller asked for.
    """
    tmp = f"{path}.{os.getpid()}.{len(staged or ())}.tmp"
    try:
        f = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as err:
        raise OSError(err.errno, err.strerror, str(path)) from None
    n = 0
    try:
        with f:
            for line in lines:
                f.write(line)
                f.write("\n")
                n += 1
        if staged is None:
            os.replace(tmp, path)
        else:
            staged.append((tmp, str(path)))
    except BaseException:
        os.unlink(tmp)
        raise
    return n


def write_jsonl(path: str | Path, objs: Iterable[Any], staged: list | None = None) -> int:
    """``write_lines`` of one ``dumps`` line per value of ``objs``; returns the count."""
    return write_lines(path, map(dumps, objs), staged)


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


def numbered_lines(path: str | Path) -> Iterator[tuple[int, int, bytes]]:
    """``(index, lineno, line)`` of each non-blank line; a line ends at each newline byte.

    ``index`` counts the non-blank lines from 0, ``lineno`` all lines from 1.
    """
    with open(path, "rb") as f:
        index = 0
        for lineno, line in enumerate(f, 1):
            if line.strip():
                yield index, lineno, line
                index += 1


def decode_line(path: str | Path, lineno: int, line: bytes,
                decode: Callable[[Any], T] | None = None) -> Any:
    """``parse_json`` of ``line``, then ``decode`` of its value if given.

    Raises:
        MalformedLine: ``line`` fails ``parse_json``, or ``decode`` fails on its
            value; the message leads with ``path:lineno``.
    """
    try:
        value = parse_json(line)
    except ValueError as err:
        raise MalformedLine(f"{path}:{lineno}: {err}") from None
    if decode is None:
        return value
    try:
        return decode(value)
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        detail = f"missing key {err}" if isinstance(err, KeyError) else str(err)
        raise MalformedLine(f"{path}:{lineno}: {detail}") from None


def read_records(path: str | Path, decode: Callable[[Any], T] | None = None) -> Iterator[Any]:
    """``decode_line`` of each of ``numbered_lines(path)``, with ``decode`` if given."""
    for _, lineno, line in numbered_lines(path):
        yield decode_line(path, lineno, line, decode)


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """The JSON value of each non-blank line of ``path``: ``read_records`` without ``decode``."""
    return read_records(path)


def _workers(path: str | Path) -> int:
    """How many processes ``map_lines`` forks for ``path``; 1 means none.

    One per CPU of this process's affinity set, and no more than ``path`` has
    chunks (at least one); none where ``os.fork`` is missing or another thread is running,
    since a forked copy of a running thread's locks could deadlock.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus == 1:
        return 1
    seen = sum(1 for _ in itertools.islice(numbered_lines(path), cpus * CHUNK_LINES))
    return max(1, min(cpus, -(-seen // CHUNK_LINES)))


def map_lines(path: str | Path, fn: Callable[[int, int, bytes], R],
              threads: int = 0) -> Iterator[R]:
    """Yield ``fn(index, lineno, line)`` for each of ``numbered_lines(path)``, in input order.

    ``threads`` picks the strategy. At 0, for CPU-bound ``fn``, forked workers
    run chunks of ``CHUNK_LINES`` lines where ``_workers`` allows more than one:
    worker ``w`` of ``n`` reads ``path`` itself, runs every chunk ``c`` with
    ``c % n == w`` and sends each chunk's results through its own pipe, so this
    process holds at most one chunk's results at a time. ``fn`` runs in a
    worker, so what it changes outside its result is lost, and its results and
    exceptions must pickle.

    Above 1, for I/O-bound ``fn``, one pool of ``threads`` threads of this
    process serves the whole run, so what each thread keeps (a connection, say)
    lasts the run. ``path`` is read at most ``4 * threads`` lines ahead of what
    was yielded, and calls not yet started are cancelled if the caller stops.
    At 1, or where no worker is forked, ``fn`` runs in this thread.

    Raises:
        Exception: the first one ``fn`` raises, in input order, after the
            results of the lines before it.
        OSError: a worker ended without reporting a chunk.
    """
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=threads)
        pending = collections.deque()
        try:
            for item in numbered_lines(path):
                pending.append(pool.submit(fn, *item))
                if len(pending) >= 4 * threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)
        return
    workers = 1 if threads else _workers(path)
    if workers == 1:
        for item in numbered_lines(path):
            yield fn(*item)
        return
    import pickle
    import signal

    pids: list[int] = []
    pipes: list[BinaryIO] = []
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(wfd)
                raise
            if pid == 0:
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends the workers
                    for f in pipes:
                        f.close()
                    _serve(path, fn, w, workers, open(wfd, "wb"))
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(wfd)
        for chunk in itertools.count():
            try:
                report = pickle.load(pipes[chunk % workers])
            except (EOFError, pickle.UnpicklingError):  # the worker died before its report
                first = chunk * CHUNK_LINES + 1
                raise OSError(f"{path}: worker {pids[chunk % workers]} ended without reporting "
                              f"non-blank lines {first}-{first + CHUNK_LINES - 1}") from None
            if report is None:
                return
            results, err = report
            yield from results
            if err is not None:
                raise err
    finally:
        for f in pipes:
            f.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(path: str | Path, fn: Callable[[int, int, bytes], Any], w: int, workers: int,
           out: BinaryIO) -> None:
    """Worker ``w`` of ``map_lines``: write one pickled report per chunk of its share.

    A report is ``(results, None)``, or ``(results so far, exception)`` for the
    chunk where ``fn`` raised, which is the last; ``None`` follows the last chunk.
    """
    import pickle

    def send(report: Any) -> None:
        out.write(pickle.dumps(report, pickle.HIGHEST_PROTOCOL))
        out.flush()

    mine = (item for item in numbered_lines(path) if item[0] // CHUNK_LINES % workers == w)
    for _, chunk in itertools.groupby(mine, key=lambda item: item[0] // CHUNK_LINES):
        results = []
        try:
            for item in chunk:
                results.append(fn(*item))
        except Exception as err:  # noqa: BLE001 - the parent raises it in input order
            send((results, err))
            return
        send((results, None))
    send(None)


def sha256_file(path: str | Path) -> str:
    import hashlib  # only commands that write a manifest hash

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
