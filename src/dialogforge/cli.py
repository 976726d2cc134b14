"""Command-line pipeline: synthesize, validate, serialize, mask, pack, stats.

All randomness flows from one root seed through per-record derived seeds, so
reruns are reproducible byte for byte under the mock backend.

Each subcommand loads only the layers it runs: ``io`` and ``stream`` load with
this module, ``dialogue`` and ``taxonomy`` where dialogues are read, ``packing``
in ``pack``, and the backend and the stages named in ``--stages`` in ``synthesize``.

``synthesize``, ``validate``, ``serialize``, ``mask`` and ``stats`` read
``--in`` through one reader, ``_read``, which maps its lines with
``io.map_lines`` and yields in input order: chunks of the file run in one forked
worker per CPU, except for remote ``synthesize``, whose backend calls wait on
the network and run on one pool of ``--concurrency`` threads. ``pack`` reads its
stream files in this process.

``synthesize``, ``serialize``, ``mask`` and ``pack`` end through one manifest
writer, ``_finish``: it writes a manifest next to the output (argv, config,
input/output hashes, counts), renames every staged output into place and prints
the ``<command>: ... -> <out>`` line. ``stats --out`` writes its JSON with none.

Exit codes: 0 success, 1 validation violations, 2 configuration error,
3 I/O error or an input the stream layer rejects, 4 backend failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from . import io
from .stream import (EmptyText, InvalidStream, StreamConfig, UnitOverflow, loss_summary,
                     mask_intervals, serialize, stream_from_record, stream_to_record)

if TYPE_CHECKING:
    from .atomic_ops import CompletionBackend, MockBackend, RemoteBackend
    from .dialogue import Dialogue
    from .stage_b import DistractorPool

ENV_BACKEND_URL = "DF_BACKEND_URL"
ENV_SEED = "DF_SEED"
# Remote calls in flight at most: each holds a thread and a connection.
MAX_CONCURRENCY = 256


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    backend: str = "mock"
    backend_url: str | None = None
    seed: int = 0
    concurrency: int = 8  # remote calls in flight; mock runs use one process per CPU
    retries: int = 2
    k_min: int = 1
    k_max: int = 3
    apply_fraction: float = 1.0
    l_min: int = 62464
    l_max: int = 65536
    vit_patch: int = StreamConfig.vit_patch
    vae_patch: int = StreamConfig.vae_patch
    max_image_units: int = StreamConfig.max_image_units

    def validate(self) -> None:
        if self.backend not in ("mock", "remote"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "remote":
            if not self.backend_url:
                raise ConfigError("remote backend needs a backend_url "
                                  f"(flag, config file, or {ENV_BACKEND_URL})")
            from .atomic_ops import split_backend_url

            try:
                split_backend_url(self.backend_url)
            except ValueError as err:
                raise ConfigError(str(err)) from None
        if not 1 <= self.k_min <= self.k_max:
            raise ConfigError(f"invalid k range [{self.k_min}, {self.k_max}]")
        if not 0.0 <= self.apply_fraction <= 1.0:
            raise ConfigError("apply_fraction must lie in [0, 1]")
        if not 0 < self.l_min <= self.l_max:
            raise ConfigError(f"invalid length bounds [{self.l_min}, {self.l_max}]")
        if not 1 <= self.concurrency <= MAX_CONCURRENCY:
            raise ConfigError(f"concurrency must lie in [1, {MAX_CONCURRENCY}], "
                              f"not {self.concurrency}")
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        if min(self.vit_patch, self.vae_patch, self.max_image_units) < 1:
            raise ConfigError("patch sizes and the image-unit cap must be positive")

    def make_backend(self) -> MockBackend | RemoteBackend:
        from .atomic_ops import MockBackend, RemoteBackend

        if self.backend == "mock":
            return MockBackend()
        return RemoteBackend(url=self.backend_url)

    def stream_config(self) -> StreamConfig:
        return StreamConfig(self.vit_patch, self.vae_patch, self.max_image_units)


def _json_types(hint: Any) -> tuple[type, ...]:
    """The types a JSON config value may have for a field annotated ``hint``."""
    types = typing.get_args(hint) or (hint,)
    return (*types, int) if float in types else types


# Config-file key -> the value types it accepts; the keys are exactly the fields.
_HINTS = typing.get_type_hints(PipelineConfig)
_CONFIG_TYPES = {f.name: _json_types(_HINTS[f.name]) for f in fields(PipelineConfig)}


def _read_json(path: str, what: str) -> Any:
    """The JSON value of the file at ``path``; ``what`` names it in a ``ConfigError``."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return io.parse_json(data)
    except ValueError as err:
        raise ConfigError(f"{what} {path}: {err}") from None


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        file_cfg = _read_json(args.config, "config file")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            if type(value) not in _CONFIG_TYPES[key]:
                wanted = " or ".join(t.__name__ for t in _CONFIG_TYPES[key])
                raise ConfigError(f"config key {key!r} takes {wanted}, "
                                  f"not {type(value).__name__}")
            setattr(cfg, key, value)
    if os.environ.get(ENV_BACKEND_URL):
        cfg.backend_url = os.environ[ENV_BACKEND_URL]
    if os.environ.get(ENV_SEED):
        try:
            cfg.seed = int(os.environ[ENV_SEED])
        except ValueError as err:
            raise ConfigError(f"{ENV_SEED} must be an integer") from err
    # CLI flags win over env and file values.
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _digests(paths: Sequence[str]) -> dict[str, str]:
    return {p: io.sha256_file(p) for p in paths}


def _read(path: str, decode: Callable[[Any], Any] | None, fn: Callable[[int, Any], Any], *,
          signature: str | None = None, threads: int = 0) -> Iterator[Any]:
    """``fn(index, item)`` for each non-blank line of ``path``, in input order, run by
    ``io.map_lines`` with ``threads``; ``index`` counts those lines and ``item`` is
    the line's ``io.decode_line`` with ``decode``.

    With ``signature``, a dialogue whose signature is another is skipped; so is
    a None result. The stream layer's refusal of an item is led by ``path:lineno``.

    Raises:
        ConfigError: ``signature`` is not a task signature; raised by the call
            itself, before ``path`` is read.
    """
    wanted = None
    if signature:
        from .taxonomy import SignatureError, parse_signature
        try:
            wanted = parse_signature(signature)
        except SignatureError as err:
            raise ConfigError(f"--signature: {err}") from None

    def line(index: int, lineno: int, raw: bytes) -> Any:
        item = io.decode_line(path, lineno, raw, decode)
        if wanted is not None and item.signature != wanted:
            return None
        try:
            return fn(index, item)
        except (EmptyText, UnitOverflow, InvalidStream) as err:
            raise type(err)(f"{path}:{lineno}: {err}") from None

    return (out for out in io.map_lines(path, line, threads) if out is not None)


def _finish(args: argparse.Namespace, argv: Sequence[str], cfg: PipelineConfig,
            inputs: dict[str, str], counts: dict[str, int], summary: str) -> int:
    """Stage the manifest at ``--manifest`` (default ``<out>.manifest.json``), rename each
    output in ``args.staged`` into place, print ``<command>: <summary> -> <out>``, return 0.

    ``inputs`` are the ``_digests`` of the inputs, taken before the run wrote
    anything: an output may replace its input.
    """
    io.write_lines(args.manifest or f"{args.out}.manifest.json", [io.dumps({
        "command": args.command,
        "argv": list(argv),
        "config": asdict(cfg),
        "inputs": inputs,
        "outputs": {path: io.sha256_file(tmp) for tmp, path in args.staged},
        "counts": counts,
    })], args.staged)
    while args.staged:
        os.replace(*args.staged[0])
        del args.staged[0]
    print(f"{args.command}: {summary} -> {args.out}")
    return 0


def record_synthesizer(stages: Sequence[str], backend: CompletionBackend, cfg: PipelineConfig,
                       *, task: str | None = None, pool: DistractorPool | None = None
                       ) -> Callable[[int, Any], tuple[str, str] | dict[str, Any]]:
    """``one(index, item)``: ``(id, line)`` of the dialogue ``item`` becomes in
    ``stages``, ``line`` its record as written, or that stage's reject.

    ``item`` is an ingest record for ``task`` when ``stages`` starts with a, a
    dialogue otherwise, and ``index`` counts the items. A stage's reject is
    ``{stage, index, error, record}`` for stage a, ``{stage, id, error}`` for
    stages b and c. ``BackendUnavailable`` propagates.
    """
    from .atomic_ops import BackendUnavailable
    from .dialogue import dialogue_to_record

    if "a" in stages:
        from .stage_a import BUILDERS
        parse, build = BUILDERS[task]
    if "b" in stages:
        from .stage_b import insert_distractors
    if "c" in stages:
        from .stage_c import interleave

    def one(index: int, d: Any) -> tuple[str, str] | dict[str, Any]:
        stage = stages[0]
        try:
            if stage == "a":
                d = build(parse(d), backend, seed=cfg.seed, retries=cfg.retries)
            if "b" in stages:
                stage = "b"
                d = insert_distractors(d, pool, (cfg.k_min, cfg.k_max), cfg.seed, backend,
                                       retries=cfg.retries)
            if "c" in stages:
                stage = "c"
                d = interleave(d, backend, apply_fraction=cfg.apply_fraction, seed=cfg.seed,
                               retries=cfg.retries)
        except BackendUnavailable:
            raise
        except Exception as err:  # noqa: BLE001 - per-record errors become rejects
            if stage == "a":
                return {"stage": "a", "index": index, "error": str(err), "record": d}
            return {"stage": stage, "id": d.id, "error": str(err)}
        return d.id, io.dumps(dialogue_to_record(d))

    return one


def _synthesized_lines(path: str, decode: Callable[[Any], Any] | None,
                       one: Callable[[int, Any], tuple[str, str] | dict[str, Any]],
                       rejects: list[dict[str, Any]], threads: int, stage: str) -> Iterator[str]:
    """The line of ``one`` on each ``decode``d line of ``path``, run by ``_read``
    with ``threads``; a reject is appended to ``rejects`` instead.

    A dialogue whose id an earlier line's dialogue has is the reject
    ``{stage, id, error}`` of ``stage``, the last stage run.
    """
    ids: set[str] = set()  # workers see one chunk each, so the id check runs here
    for out in _read(path, decode, one, threads=threads):
        if isinstance(out, dict):
            rejects.append(out)
        elif out[0] in ids:
            rejects.append({"stage": stage, "id": out[0],
                            "error": "duplicate-id: an earlier dialogue has this id"})
        else:
            ids.add(out[0])
            yield out[1]


def cmd_synthesize(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .atomic_ops import BackendUnavailable
    from .dialogue import dialogue_from_record

    cfg = _load_config(args)
    if args.stages is None:
        raise ConfigError("synthesize needs --stage or --stages")
    stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    if not stages or any(s not in ("a", "b", "c") for s in stages):
        raise ConfigError(f"stages must be drawn from a,b,c: {args.stages!r}")
    if stages != sorted(stages) or len(set(stages)) != len(stages):
        raise ConfigError("stages must be in order and unique, e.g. a,b,c")
    if "a" in stages:
        from .stage_a import BUILDERS
        if args.task not in BUILDERS:
            raise ConfigError(f"stage a needs --task, one of {', '.join(BUILDERS)}: "
                              f"{args.task!r}")
    if "b" in stages and not args.pool:
        raise ConfigError("stage b needs --pool <jsonl>")

    inputs = _digests([args.in_path, args.pool] if "b" in stages else [args.in_path])
    pool = None
    if "b" in stages:
        from .stage_b import DistractorPool, entry_from_record
        pool = DistractorPool(tuple(io.read_records(args.pool, entry_from_record)))
        if not pool.entries:
            raise ConfigError(f"distractor pool {args.pool} is empty")
        report = pool.validate(cfg.stream_config())
        if not report.ok:
            first = report.violations[0]
            raise ConfigError(f"distractor pool {args.pool}: entry {first.where}: {first.detail}")
    decode = None if "a" in stages else dialogue_from_record
    backend = cfg.make_backend()
    one = record_synthesizer(stages, backend, cfg, task=args.task, pool=pool)
    rejects: list[dict[str, Any]] = []
    # remote calls are I/O-bound: threads, each with its own connection;
    # mock runs are CPU-bound: forked workers, one per CPU
    threads = cfg.concurrency if cfg.backend == "remote" else 0
    lines = _synthesized_lines(args.in_path, decode, one, rejects, threads, stages[-1])
    try:
        written = io.write_lines(args.out, lines, args.staged)
    except BackendUnavailable as err:
        print(f"backend failure: {err}", file=sys.stderr)
        return 4
    finally:
        backend.close()
    io.write_jsonl(args.rejects or f"{args.out}.rejects.jsonl", rejects, args.staged)
    return _finish(args, argv, cfg, inputs, {"written": written, "rejected": len(rejects)},
                   f"{written} dialogues, {len(rejects)} rejects")


def cmd_validate(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .dialogue import dialogue_from_record, validate_dialogue

    del argv
    stream_cfg = _load_config(args).stream_config()

    def violations(index: int, d: Dialogue) -> tuple[str, list[str]]:
        return d.id, [f"{d.id}: {v.rule}{'' if v.where is None else f' (round {v.where})'}: "
                      f"{v.detail}" for v in validate_dialogue(d, stream_cfg).violations]

    bad = 0
    ids: set[str] = set()  # workers see one chunk each, so the corpus rule runs here
    for dialogue_id, lines in _read(args.in_path, dialogue_from_record, violations,
                                    signature=args.signature):
        if dialogue_id in ids:
            lines.append(f"{dialogue_id}: id-unique: an earlier dialogue has this id")
        ids.add(dialogue_id)
        if lines:
            bad += 1
            print("\n".join(lines))
    print(f"validate: {bad} dialogues with violations")
    return 0 if bad == 0 else 1


def cmd_serialize(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .dialogue import dialogue_from_record

    cfg = _load_config(args)
    stream_cfg = cfg.stream_config()
    streams = _read(args.in_path, dialogue_from_record,
                    lambda index, d: io.dumps(stream_to_record(serialize(d, stream_cfg))),
                    signature=args.signature)
    inputs = _digests([args.in_path])
    written = io.write_lines(args.out, streams, args.staged)
    return _finish(args, argv, cfg, inputs, {"written": written}, f"{written} streams")


def cmd_mask(args: argparse.Namespace, argv: Sequence[str]) -> int:
    cfg = _load_config(args)
    masks = _read(args.in_path, stream_from_record, lambda index, s: mask_intervals(s))
    inputs = _digests([args.in_path])
    written = io.write_lines(args.out, masks, args.staged)
    return _finish(args, argv, cfg, inputs, {"written": written}, f"{written} masks")


def cmd_pack(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .packing import SamplingConfig, pack_corpus, pack_to_record

    cfg = _load_config(args)
    if args.n < 1:
        raise ConfigError(f"--n must be >= 1, not {args.n}")
    weights = _read_json(args.sampling_config, "sampling config")
    if not isinstance(weights, dict):
        raise ConfigError("sampling config must map category names to weights")
    sampling = SamplingConfig(weights)
    try:
        sampling.validate()
    except ValueError as err:
        raise ConfigError(f"sampling config {args.sampling_config}: {err}") from err

    seen: set[str] = set()  # the dialogue ids of the stream file being read

    def sample(rec: Any) -> tuple[str, int]:
        s = stream_from_record(rec)
        if s.total_len > cfg.l_max:
            raise ValueError(f"stream {s.dialogue_id!r}: total_len {s.total_len} "
                             f"is over l_max {cfg.l_max}")
        if s.dialogue_id in seen:
            raise ValueError(f"stream {s.dialogue_id!r}: dialogue_id repeats an earlier stream's")
        seen.add(s.dialogue_id)
        return s.dialogue_id, s.total_len

    in_dir = Path(args.in_dir)
    corpora: dict[str, list[tuple[str, int]]] = {}
    inputs = _digests([args.sampling_config])
    for category, weight in weights.items():
        if weight <= 0:
            continue
        path = in_dir / f"{category}.jsonl"
        if not path.exists():
            raise ConfigError(f"category {category!r}: no stream file at {path}")
        inputs[str(path)] = io.sha256_file(path)
        seen.clear()
        corpora[category] = list(io.read_records(path, sample))
        if not corpora[category]:
            raise ConfigError(f"category {category!r}: stream file {path} is empty")

    packs, stats = pack_corpus(sampling, corpora, args.n, cfg.l_min, cfg.l_max, cfg.seed)
    io.write_jsonl(args.out, (pack_to_record(p) for p in packs), args.staged)
    io.write_lines(args.stats, [io.dumps(stats)], args.staged)
    return _finish(args, argv, cfg, inputs,
                   {"packs": len(packs), "samples": stats["sample_count"]},
                   f"{len(packs)} packs (bound {stats['lower_bound']}, "
                   f"{stats['underfull_count']} underfull)")


def cmd_stats(args: argparse.Namespace, argv: Sequence[str]) -> int:
    from .dialogue import dialogue_from_record
    from .taxonomy import format_signature

    del argv
    cfg = _load_config(args)
    stream_cfg = cfg.stream_config()

    def record_stats(index: int, d: Dialogue) -> tuple[Any, ...]:
        s = serialize(d, stream_cfg)
        return (format_signature(d.signature),
                str(d.dep_depth_value) if d.dep_depth_value is not None else "0",
                sum(1 for r in d.rounds if r.user.is_distractor),
                loss_summary(s), s.total_len)

    signatures: dict[str, int] = {}
    depths: dict[str, int] = {}
    distractor_rounds = 0
    loss = {"ce": 0, "mse": 0, "none": 0, "total": 0}
    for sig, depth_key, distractors, positions, total in _read(
            args.in_path, dialogue_from_record, record_stats, signature=args.signature):
        signatures[sig] = signatures.get(sig, 0) + 1
        depths[depth_key] = depths.get(depth_key, 0) + 1
        distractor_rounds += distractors
        for key, count in positions.items():
            loss[key] += count
        loss["total"] += total
    result = {
        "dialogues": sum(signatures.values()),
        "signatures": {k: signatures[k] for k in sorted(signatures)},
        "depth_values": {k: depths[k] for k in sorted(depths, key=lambda x: (len(x), x))},
        "distractor_rounds": distractor_rounds,
        "loss": loss,
    }
    text = json.dumps(result, indent=2, sort_keys=False)
    if args.out:
        io.write_lines(args.out, [text])
    else:
        print(text)
    return 0


def _add_common(p: argparse.ArgumentParser, *, needs_backend: bool = False) -> None:
    p.add_argument("--config", help="JSON config file merged under CLI flags")
    p.add_argument("--seed", type=int, default=None, help="root seed (env DF_SEED)")
    if needs_backend:
        p.add_argument("--backend", choices=["mock", "remote"], default=None)
        p.add_argument("--backend-url", dest="backend_url", default=None,
                       help=f"remote completion endpoint (env {ENV_BACKEND_URL})")
        p.add_argument("--retries", type=int, default=None)
        p.add_argument("--concurrency", type=int, default=None)


def _add_stream_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vit-patch", dest="vit_patch", type=int, default=None)
    p.add_argument("--vae-patch", dest="vae_patch", type=int, default=None)
    p.add_argument("--max-image-units", dest="max_image_units", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogforge",
        description="Synthesize multi-turn multimodal dialogues and serialize "
                    "them into packed training streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="run pipeline stages a, b, c")
    p.add_argument("--stages", "--stage", dest="stages", default=None,
                   help="comma-separated stages in order, e.g. a or a,b,c")
    p.add_argument("--task", help="stage-a task signature, e.g. t_i_i1_1")
    p.add_argument("--in", dest="in_path", required=True, help="records or dialogues JSONL")
    p.add_argument("--out", required=True, help="output dialogues JSONL")
    p.add_argument("--pool", help="distractor pool JSONL (stage b)")
    p.add_argument("--rejects", help="rejects JSONL (default <out>.rejects.jsonl)")
    p.add_argument("--manifest", help="manifest path (default <out>.manifest.json)")
    p.add_argument("--k-min", dest="k_min", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--apply-fraction", dest="apply_fraction", type=float, default=None)
    _add_common(p, needs_backend=True)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("validate", help="check dialogue invariants")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--signature", help="only dialogues with this signature")
    _add_stream_flags(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("serialize", help="dialogues -> token streams")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--signature", help="only dialogues with this signature")
    p.add_argument("--manifest", default=None)
    _add_stream_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_serialize)

    p = sub.add_parser("mask", help="token streams -> attention-mask intervals")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_mask)

    p = sub.add_parser("pack", help="weighted sampling + packing with no sample twice in a pack")
    p.add_argument("--config", dest="sampling_config", required=True,
                   help="JSON map of category -> weight")
    p.add_argument("--in-dir", dest="in_dir", required=True,
                   help="directory of <category>.jsonl stream files")
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.add_argument("--l-min", dest="l_min", type=int, default=None)
    p.add_argument("--l-max", dest="l_max", type=int, default=None)
    p.add_argument("--out", required=True, help="packs JSONL")
    p.add_argument("--stats", required=True, help="stats JSON")
    p.add_argument("--manifest", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_pack)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--signature", help="only dialogues with this signature")
    p.add_argument("--out", help="write JSON here instead of stdout")
    _add_stream_flags(p)
    _add_common(p)
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.staged = []  # (temp file, path) of each output written, for ``_finish`` to rename
    try:
        return args.fn(args, argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, io.MalformedLine) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3
    except (InvalidStream, UnitOverflow, EmptyText) as err:
        print(f"stream error: {err}", file=sys.stderr)
        return 3
    finally:
        for tmp, _ in args.staged:  # a failed run renames no output into place
            os.unlink(tmp)


def run() -> None:
    """The ``dialogforge`` script and ``python -m dialogforge.cli``: ``main``, then
    flush stdout and stderr and end the process with ``os._exit``.

    Every output file is closed by the time ``main`` returns, so the exit skips
    only the interpreter's teardown, which frees every object one by one. An
    exception from ``main``, ``SystemExit`` from argparse among them, ends the
    process the usual way. Callers in the same process use ``main``.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
