"""Run one ``dialogforge.cli`` subcommand with span recorders around its layers.

Usage: ``python traced_cli.py <spans.json> <subcommand> [args ...]``

Each layer is a public function looked up by name in its defining module.
The recorder replaces every reference to that function held by a loaded
``dialogforge`` module, so calls made through ``from .x import f`` names are
seen too. A name that no longer exists is reported as absent rather than
failing the run. Spans stay in memory and are written once, when ``main``
returns: ``{"spans": [[id, parent, layer, start, end, count, error, extra]],
"absent": [layer, ...]}``. ``count`` is the layer's unit of work (records,
bytes or calls) and ``extra`` carries the stage reject count.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

# layer -> (module, attribute path, how a call's count is taken)
LAYERS: dict[str, tuple[str, str, str]] = {
    "stage_a": ("dialogforge.stage_a", "run_stage_a", "len_arg0"),
    "stage_b": ("dialogforge.stage_b", "run_stage_b", "len_arg0"),
    "stage_c": ("dialogforge.stage_c", "run_stage_c", "len_arg0"),
    "atomic_ops.invoke": ("dialogforge.atomic_ops", "invoke", "call"),
    "dialogue.validate": ("dialogforge.dialogue", "validate_dialogue", "call"),
    "dialogue.encode": ("dialogforge.dialogue", "dialogue_to_record", "call"),
    "dialogue.decode": ("dialogforge.dialogue", "dialogue_from_record", "call"),
    "stream.serialize": ("dialogforge.stream", "serialize", "call"),
    "stream.encode": ("dialogforge.stream", "stream_to_record", "call"),
    "stream.decode": ("dialogforge.stream", "stream_from_record", "call"),
    "stream.mask": ("dialogforge.stream", "mask_intervals", "call"),
    "io.read_jsonl": ("dialogforge.io", "read_jsonl", "generator"),
    "io.write_jsonl": ("dialogforge.io", "write_jsonl", "result"),
    "io.sha256_file": ("dialogforge.io", "sha256_file", "file_bytes"),
    "packing.sample": ("dialogforge.packing", "sample_stream", "call"),
    "packing.pack": ("dialogforge.packing", "pack_greedy", "len_arg0"),
}
# The backend object returned here gets its ``complete`` method recorded.
BACKEND_FACTORY = ("dialogforge.cli", "PipelineConfig.make_backend")
COMPLETE_LAYER = "atomic_ops.complete"


class Recorder:
    """Thread-safe in-memory span list with per-thread parent stacks.

    A span opened on a worker thread with no open span of its own is parented
    to the innermost open span of the main thread: the stage that started the
    worker pool is blocked on it.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def close(self, span: tuple[int, int, list[int]], layer: str, start: float,
              count: int, error: bool, extra: int = 0) -> None:
        span_id, parent, stack = span
        end = time.perf_counter()
        stack.pop()
        self.spans.append([span_id, parent, layer, start, end, count, error, extra])

    def wrap(self, layer: str, fn: Callable, count_kind: str) -> Callable:
        if count_kind == "generator":
            return self._wrap_generator(layer, fn)

        def recorded(*args, **kwargs):
            span = self.open()
            start = time.perf_counter()
            error, result = True, None
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                count, extra = _count(count_kind, args, result)
                self.close(span, layer, start, count, error, extra)

        recorded.__wrapped__ = fn
        return recorded

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        # A generator does its work in next(), so each next() is one span.
        def recorded(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    span = self.open()
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self.close(span, layer, start, 0, False)
                        return
                    except BaseException:
                        self.close(span, layer, start, 0, True)
                        raise
                    self.close(span, layer, start, 1, False)
                    yield item
            finally:
                it.close()

        recorded.__wrapped__ = fn
        return recorded


def _count(kind: str, args: tuple, result: Any) -> tuple[int, int]:
    """(count, extra) for one call; a shape this code does not know counts 1."""
    try:
        if kind == "len_arg0":
            rejects = len(result[1]) if isinstance(result, tuple) else 0
            return len(args[0]), rejects
        if kind == "result":
            return int(result), 0
        if kind == "file_bytes":
            return os.path.getsize(args[0]), 0
    except (TypeError, IndexError, ValueError, OSError):
        pass
    return 1, 0


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, value) for a dotted attribute path, or None if absent."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    return None if value is None else (owner, name, value)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dialogforge" or mod_name.startswith("dialogforge.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class _RecordedBackend:
    """Forwards to a completion backend, recording each ``complete`` call."""

    def __init__(self, backend: Any, recorder: Recorder) -> None:
        self._backend = backend
        self.complete = recorder.wrap(COMPLETE_LAYER, backend.complete, "call")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._backend, name)


def install(recorder: Recorder) -> None:
    """Put span recorders on every layer that exists; note the rest as absent."""
    importlib.import_module("dialogforge.cli")
    for layer, (module_name, path, count_kind) in LAYERS.items():
        found = _resolve(module_name, path)
        if found is None or not callable(found[2]):
            recorder.absent.append(layer)
            continue
        _, _, fn = found
        _replace_everywhere(fn, recorder.wrap(layer, fn, count_kind))
    found = _resolve(*BACKEND_FACTORY)
    if found is None:
        recorder.absent.append(COMPLETE_LAYER)
        return
    owner, name, factory = found

    def make_backend(*args, **kwargs):
        return _RecordedBackend(factory(*args, **kwargs), recorder)

    setattr(owner, name, make_backend)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    from dialogforge.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"spans": recorder.spans, "absent": recorder.absent}, f)


if __name__ == "__main__":
    sys.exit(main())
