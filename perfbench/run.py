#!/usr/bin/env python3
"""Pipeline benchmark: the dialogforge CLI chain, run as a user runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload edit_deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Inputs come from ``dialogforge.fixtures`` and are a pure function of
``--seed``, which is also the CLI's root seed. Each subcommand runs as a fresh
``python -m dialogforge.cli`` process, so interpreter start and imports count,
and CLI defaults apply unless the workload below says otherwise. Passes of
the whole chain repeat until ``--seconds`` have elapsed; timings are medians
over passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones, where each subcommand runs under
``traced_cli.py`` with span recorders around its layers, and prints the
per-layer metrics. End-to-end numbers never come from a traced pass.

A correctness gate runs outside the timed region (see ``gate``). The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a table of the same metrics goes to standard
error. Count metrics (output bytes, pack figures, backend calls, retries,
rejects) repeat exactly for one workload and seed. The exit code is 0 when
every check passed, 1 when one failed, 2 when the checkout has no
``src/dialogforge`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED_CLI = HERE / "traced_cli.py"

# Set-ups timed before each untraced pass, so that the setup_s median samples
# the same stretch of the run as the passes do.
SETUPS_PER_PASS = 4
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    """One input corpus and the CLI chain it goes through."""

    name: str
    kind: str  # "edit": stages a,b,c in one call; "t2i": stage a, then stage c
    records: int
    draws_per_record: int
    remote: bool = False

    @property
    def category(self) -> str:
        return "t_ti_i1_n" if self.kind == "edit" else "t_ti_0_0"


# Why each workload exists is recorded in BENCHMARK.json; in short:
# edit_deep has long streams and underfull next-fit packs (stream format and
# packer work shows), t2i_flat has short streams, no stage-b work and more
# processes per unit of work (import, dialogue decode and packing cost show),
# remote_edit is dominated by backend round-trips (session, concurrency and
# retry work shows).
WORKLOADS = {
    "edit_deep": Workload("edit_deep", "edit", records=2000, draws_per_record=10),
    "t2i_flat": Workload("t2i_flat", "t2i", records=2000, draws_per_record=20),
    "remote_edit": Workload("remote_edit", "edit", records=300, draws_per_record=10,
                            remote=True),
}
POOL_PER_CATEGORY = 64
REMOTE_CONCURRENCY = 2

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes_per_record": "B",
    "pack_fill": "ratio",
    "pack_count_ratio": "ratio",
    "yield_share": "ratio",
}

SUBCOMMANDS = ("synthesize", "validate", "serialize", "mask", "pack", "stats")
SPAN_LAYERS = ("stage_a", "stage_b", "stage_c", "atomic_ops.invoke", "atomic_ops.complete",
               "dialogue.validate", "dialogue.encode", "dialogue.decode",
               "stream.serialize", "stream.encode", "stream.decode", "stream.mask",
               "io.read_jsonl", "io.write_jsonl", "io.sha256_file",
               "packing.sample", "packing.pack")
# Layers whose work is reported as a raw count of this unit; the rest report
# rec_per_s, their count of records (or calls) divided by busy_s.
LAYER_COUNTS = {"io.read_jsonl": "records", "io.write_jsonl": "records",
                "io.sha256_file": "bytes", "atomic_ops.invoke": "calls",
                "atomic_ops.complete": "calls", "packing.sample": "calls",
                "packing.pack": "records"}


def _per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    units.update({f"cli.{sub}.wall_s": "s" for sub in SUBCOMMANDS})
    for layer in SPAN_LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
        count = LAYER_COUNTS.get(layer)
        if count is None:
            units[f"{layer}.rec_per_s"] = "1/s"
        else:
            units[f"{layer}.{count}"] = "B" if count == "bytes" else "count"
    for stage in ("stage_a", "stage_b", "stage_c"):
        units[f"{stage}.rejects"] = "count"
    units.update({
        "atomic_ops.complete.p50_ms": "ms",
        "atomic_ops.complete.p99_ms": "ms",
        "atomic_ops.retries": "count",
        "atomic_ops.failed": "count",
        "atomic_ops.calls_per_record": "ratio",
        "stream.blocks": "count",
        "stream.positions_mean": "count",
        "stream.positions_max": "count",
        "stream.bytes": "B",
        "stream.mask_bytes": "B",
        "packing.draws_per_s": "1/s",
        "packing.packs": "count",
        "packing.lower_bound": "count",
        "packing.underfull_share": "ratio",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


# --- inputs -------------------------------------------------------------------


def write_inputs(w: Workload, seed: int, in_dir: Path, scale: float) -> int:
    """Generate and write the workload's inputs; returns the record count."""
    from dialogforge import io
    from dialogforge.fixtures import make_distractor_pool, make_edit_records, make_t2i_records
    from dialogforge.stage_b import entry_to_record

    if in_dir.exists():
        shutil.rmtree(in_dir)
    in_dir.mkdir(parents=True)
    n = max(4, round(w.records * scale))
    make = make_edit_records if w.kind == "edit" else make_t2i_records
    io.write_jsonl(in_dir / "records.jsonl", make(n, seed=seed))
    if w.kind == "edit":
        pool = make_distractor_pool(POOL_PER_CATEGORY, seed=seed + 1)
        io.write_jsonl(in_dir / "pool.jsonl", (entry_to_record(e) for e in pool.entries))
    (in_dir / "weights.json").write_text(json.dumps({w.category: 1.0}) + "\n")
    return n


def chain(w: Workload, seed: int, n: int, backend_url: str | None) -> list[list[str]]:
    """The subcommands of one pass, run from the work directory."""
    s = str(seed)
    stream_file = f"out/streams/{w.category}.jsonl"
    if w.kind == "edit":
        synth = [["synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
                  "--in", "in/records.jsonl", "--pool", "in/pool.jsonl",
                  "--out", "out/dialogues.jsonl", "--seed", s]]
        if backend_url:
            synth[0] += ["--backend", "remote", "--backend-url", backend_url,
                         "--concurrency", str(REMOTE_CONCURRENCY)]
    else:
        synth = [["synthesize", "--stage", "a", "--task", "t_i_0_0",
                  "--in", "in/records.jsonl", "--out", "out/basic.jsonl", "--seed", s],
                 ["synthesize", "--stage", "c", "--in", "out/basic.jsonl",
                  "--out", "out/dialogues.jsonl", "--seed", s]]
    tail = [["validate", "--in", "out/dialogues.jsonl"],
            ["serialize", "--in", "out/dialogues.jsonl", "--out", stream_file],
            ["mask", "--in", stream_file, "--out", "out/masks.jsonl"]]
    if w.kind == "t2i":
        tail.append(["stats", "--in", "out/dialogues.jsonl", "--out", "out/corpus_stats.json"])
    tail.append(["pack", "--config", "in/weights.json", "--in-dir", "out/streams",
                 "--n", str(n * w.draws_per_record), "--seed", s,
                 "--out", "out/packs.jsonl", "--stats", "out/pack_stats.json"])
    return synth + tail


# --- child processes ----------------------------------------------------------


@dataclass
class Child:
    argv: list[str]
    code: int
    wall_s: float
    rss_kb: int
    stdout: str


def run_child(cmd: list[str], cwd: Path, env: dict[str, str], log: Path) -> Child:
    """Run one process to completion; peak RSS comes from its own rusage."""
    with open(log, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            # wait4, unlike Popen.wait, returns the child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return Child(cmd, proc.returncode, wall, usage.ru_maxrss, text)


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    children: list[Child] = field(default_factory=list)
    spans: list[dict[str, Any]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    stub: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.code == 0 for c in self.children)


def run_pass(steps: list[list[str]], work: Path, env: dict[str, str], traced: bool,
             stub: Any) -> Pass:
    out = work / "out"
    if out.exists():
        shutil.rmtree(out)
    (out / "streams").mkdir(parents=True)
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    before = stub.counts() if stub else {}
    p = Pass(traced)
    start = time.perf_counter()
    for i, argv in enumerate(steps):
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(logs / f"spans{i}.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "dialogforge.cli", *argv]
        child = run_child(cmd, work, env, logs / f"step{i}.log")
        p.children.append(child)
        if child.code != 0:
            break
    p.wall_s = time.perf_counter() - start
    if stub:
        after = stub.counts()
        p.stub = {k: after[k] - before[k] for k in after}
    if traced:
        for i in range(len(p.children)):
            path = logs / f"spans{i}.json"
            if path.exists():
                p.spans.append(json.loads(path.read_text()))
    p.digests = {str(f.relative_to(out)): _sha256(f)
                 for f in sorted(out.rglob("*")) if f.is_file()}
    return p


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("DF_SEED", None)
    env.pop("DF_BACKEND_URL", None)
    # The stub is on loopback; a proxy from the environment must not sit in between.
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


# --- correctness gate -----------------------------------------------------------


def gate(w: Workload, n: int, out: Path, passes: list[Pass]) -> tuple[list[str], dict[str, Any]]:
    """Check the last pass's outputs; returns (errors, facts measured on them).

    The facts are empty unless every check passed.

    Checks: every subcommand exited 0 and validate found no violations; every
    stream record decodes and passes ``validate_stream``; every stream has one
    mask record whose rows match ``_mask_rows`` of its blocks; packs conserve
    draws and tokens and stay within ``l_max``; every pass, traced or not,
    wrote the same bytes.
    """
    from dialogforge.stream import stream_from_record, validate_stream

    errors: list[str] = []
    facts: dict[str, Any] = {}
    for i, p in enumerate(passes):
        for c in p.children:
            if c.code != 0:
                errors.append(f"pass {i}: {' '.join(c.argv[3:])} exited {c.code}: "
                              f"{c.stdout.strip()[-300:]}")
            if "validate" in c.argv and c.code == 0 and "validate: 0 dialogues" not in c.stdout:
                errors.append(f"pass {i}: validate reported violations")
    if errors:
        return errors, facts
    first = passes[0].digests
    for i, p in enumerate(passes[1:], 1):
        if p.digests != first:
            diff = sorted(k for k in set(first) | set(p.digests) if first.get(k) != p.digests.get(k))
            errors.append(f"pass {i} outputs differ from pass 0: {diff}")
        if p.stub != passes[0].stub:
            errors.append(f"pass {i} stub counts {p.stub} differ from {passes[0].stub}")

    lengths: dict[str, int] = {}
    stream_blocks: dict[str, list[tuple[str, int, int]]] = {}
    blocks = 0
    stream_path = out / "streams" / f"{w.category}.jsonl"
    with open(stream_path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            try:
                s = stream_from_record(json.loads(line))
            except (ValueError, KeyError, TypeError) as err:
                errors.append(f"{stream_path.name}:{line_no}: does not decode: {err}")
                continue
            report = validate_stream(s)
            if not report.ok:
                v = report.violations[0]
                errors.append(f"{stream_path.name}:{line_no}: {v.rule}: {v.detail}")
            lengths[s.dialogue_id] = s.total_len
            stream_blocks[s.dialogue_id] = [(b.kind.value, b.start, b.end) for b in s.blocks]
            blocks += len(s.blocks)
    dialogues = _count_lines(out / "dialogues.jsonl")
    if len(lengths) != dialogues:
        errors.append(f"{len(lengths)} streams for {dialogues} dialogues")
    with open(out / "masks.jsonl", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            try:
                rec = json.loads(line)
                sid, total_len, rows = rec["dialogue_id"], rec["total_len"], rec["rows"]
            except (ValueError, KeyError, TypeError) as err:
                errors.append(f"masks.jsonl:{line_no}: unreadable mask: {err}")
                continue
            expected = stream_blocks.pop(sid, None)
            if expected is None or total_len != lengths[sid]:
                errors.append(f"masks.jsonl:{line_no}: {sid} matches no stream of length {total_len}")
            elif rows != _mask_rows(expected):
                errors.append(f"masks.jsonl:{line_no}: rows of {sid} are not its stream's mask")
    if stream_blocks:
        errors.append(f"{len(stream_blocks)} streams have no mask record")

    manifest = json.loads((out / "packs.jsonl.manifest.json").read_text())
    l_min, l_max = manifest["config"]["l_min"], manifest["config"]["l_max"]
    stats = json.loads((out / "pack_stats.json").read_text())
    draws = n * w.draws_per_record
    packs = totals = samples = underfull = 0
    with open(out / "packs.jsonl", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            try:
                pk = json.loads(line)
                ids, lens, total = pk["sample_ids"], pk["lengths"], pk["total"]
            except (ValueError, KeyError, TypeError) as err:
                errors.append(f"packs.jsonl:{line_no}: unreadable pack: {err}")
                continue
            packs += 1
            samples += len(ids)
            totals += total
            underfull += total < l_min
            if len(ids) != len(lens) or sum(lens) != total or total > l_max:
                errors.append(f"packs.jsonl:{line_no}: lengths {sum(lens)} / total {total} "
                              f"/ l_max {l_max} inconsistent")
            for sid, length in zip(ids, lens):
                if lengths.get(sid) != length:
                    errors.append(f"packs.jsonl:{line_no}: {sid} has no stream of length {length}")
                    break
    if samples != draws or samples != stats.get("sample_count"):
        errors.append(f"packs hold {samples} samples for {draws} draws")
    if totals != stats.get("token_count"):
        errors.append(f"packs hold {totals} tokens, stats say {stats.get('token_count')}")
    if packs == 0:
        errors.append("no packs written")
    facts.update(
        dialogues=dialogues, packs=packs, tokens=totals, l_max=l_max, underfull=underfull,
        lower_bound=math.ceil(totals / l_max), blocks=blocks,
        positions_mean=statistics.fmean(lengths.values()) if lengths else 0.0,
        positions_max=max(lengths.values(), default=0),
        stream_bytes=stream_path.stat().st_size,
        mask_bytes=(out / "masks.jsonl").stat().st_size,
        output_bytes=sum(f.stat().st_size for f in _output_files(out)),
    )
    return errors, ({} if errors else facts)


def _mask_rows(blocks: list[tuple[str, int, int]]) -> list[dict[str, Any]]:
    """The mask rows of a stream, from its (kind, start, end) blocks.

    Written from the mask rule in ``docs/stream-format.md`` rather than by
    calling the program: each block sees the merged [start, end) runs of the
    earlier blocks that are not noised, and attends bidirectionally within
    itself only when it is noised.
    """
    rows: list[dict[str, Any]] = []
    context: list[list[int]] = []
    for i, (kind, start, end) in enumerate(blocks):
        noised = kind == "vae_noised"
        rows.append({"block": i, "kind": kind, "start": start, "end": end,
                     "context": [list(iv) for iv in context],
                     "within": "bidirectional" if noised else "causal"})
        if noised:
            continue
        if context and context[-1][1] == start:
            context[-1][1] = end
        else:
            context.append([start, end])
    return rows


def _output_files(out: Path) -> list[Path]:
    """Dialogues, streams, masks and packs: what a user keeps from a run."""
    keep = [f for f in out.glob("*.jsonl") if not f.name.endswith(".rejects.jsonl")]
    return keep + list((out / "streams").glob("*.jsonl"))


def _count_lines(path: Path) -> int:
    with open(path, "rb") as f:
        return sum(1 for line in f if line.strip())


def check_against_mock(w: Workload, seed: int, n: int, work: Path,
                       env: dict[str, str]) -> list[str]:
    """A remote run must write the same dialogues as the mock backend."""
    steps = chain(w, seed, n, backend_url=None)
    argv = [a.replace("out/dialogues.jsonl", "mock/dialogues.jsonl") for a in steps[0]]
    (work / "mock").mkdir(exist_ok=True)
    child = run_child([sys.executable, "-m", "dialogforge.cli", *argv], work, env,
                      work / "logs" / "mock.log")
    if child.code != 0:
        return [f"mock-backend synthesize exited {child.code}"]
    if _sha256(work / "mock" / "dialogues.jsonl") != _sha256(work / "out" / "dialogues.jsonl"):
        return ["remote-backend dialogues differ from the mock-backend run"]
    return []


# --- spans ----------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(w: Workload, n: int, span_files: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer figures of one traced pass, from every process's spans."""
    busy = dict.fromkeys(SPAN_LAYERS, 0.0)
    self_s = dict.fromkeys(SPAN_LAYERS, 0.0)
    count = dict.fromkeys(SPAN_LAYERS, 0)
    errors = dict.fromkeys(SPAN_LAYERS, 0)
    rejects = {"stage_a": 0, "stage_b": 0, "stage_c": 0}
    complete_ms: list[float] = []
    for sf in span_files:
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, start, end, *_ in sf["spans"]:
            children.setdefault(parent, []).append((start, end))
        for span_id, _, layer, start, end, cnt, err, extra in sf["spans"]:
            if layer not in busy:
                continue
            dur = end - start
            busy[layer] += dur
            self_s[layer] += dur - _covered(children.get(span_id, []), start, end)
            count[layer] += cnt
            errors[layer] += bool(err)
            if layer in rejects:
                rejects[layer] += extra
            if layer == "atomic_ops.complete":
                complete_ms.append(dur * 1e3)
    m: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.self_s"] = self_s[layer]
        unit = LAYER_COUNTS.get(layer)
        if unit is None:
            m[f"{layer}.rec_per_s"] = count[layer] / busy[layer] if busy[layer] else 0.0
        else:
            m[f"{layer}.{unit}"] = count[layer]
    for stage, r in rejects.items():
        m[f"{stage}.rejects"] = r
    calls = count["atomic_ops.complete"]
    m["atomic_ops.complete.p50_ms"] = _quantile(complete_ms, 0.50)
    m["atomic_ops.complete.p99_ms"] = _quantile(complete_ms, 0.99)
    m["atomic_ops.failed"] = errors["atomic_ops.complete"]
    m["atomic_ops.retries"] = calls - count["atomic_ops.invoke"]
    m["atomic_ops.calls_per_record"] = calls / n
    pack_busy = busy["packing.sample"] + busy["packing.pack"]
    m["packing.draws_per_s"] = n * w.draws_per_record / pack_busy if pack_busy else 0.0
    return m


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --- one run --------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    errors: list[str]

    def to_json(self) -> dict[str, Any]:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()}}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def set_up(w: Workload, seed: int, work: Path, scale: float) -> tuple[int, Any, float]:
    """Write the inputs and start the stub if the workload has one.

    Returns the record count, the stub (or None) and the time it took.
    """
    from stub import StubBackend

    start = time.perf_counter()
    n = write_inputs(w, seed, work / "in", scale)
    stub = StubBackend() if w.remote else None
    return n, stub, time.perf_counter() - start


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Result:
    """One run; ``scale`` shrinks the record count for the self-test only."""
    work = WORK / w.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = child_env()

    # Every pass uses the first set-up's stub: its URL is in the synthesize
    # manifest, so a new port would change the outputs between passes.
    n, stub, elapsed = set_up(w, seed, work, scale)
    setup_times = [elapsed]
    try:
        steps = chain(w, seed, n, stub.url if stub else None)

        (work / "logs").mkdir(exist_ok=True)
        import_cmd = [sys.executable, "-c", "import dialogforge.cli"]
        imports = [run_child(import_cmd, work, env, work / "logs" / "import.log")
                   for _ in range(IMPORT_REPEATS if trace else 1)]

        passes: list[Pass] = []
        deadline = time.perf_counter() + seconds
        # Start another pass only if at least half of it fits before the deadline.
        while not passes or time.perf_counter() + passes[-1].wall_s / 2 < deadline:
            for _ in range(0 if trace else SETUPS_PER_PASS):
                _, extra, elapsed = set_up(w, seed, work, scale)
                setup_times.append(elapsed)
                if extra:
                    extra.close()
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(steps, work, env, traced, stub))
            if not passes[-1].ok:
                break
        if trace and len(passes) == 1 and passes[0].ok:
            passes.append(run_pass(steps, work, env, True, stub))

        errors, facts = gate(w, n, work / "out", passes)
        if not errors and w.remote:
            errors += check_against_mock(w, seed, n, work, env)
    finally:
        if stub:
            stub.close()

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    for label, group in (("untraced", plain), ("traced", traced_passes)):
        if group:
            print(f"{w.name}: {len(group)} {label} passes, wall s: "
                  + " ".join(f"{p.wall_s:.3f}" for p in group), file=sys.stderr)
    attempted = sum(len(p.children) for p in passes)
    failed = sum(c.code != 0 for p in passes for c in p.children)
    if any(c.code != 0 for c in imports):
        errors.append("importing dialogforge.cli failed")

    if not trace:
        values = {
            "records_per_s": n / _median([p.wall_s for p in plain]),
            "setup_s": _median(setup_times),
            "peak_rss_mb": _median([max(c.rss_kb for c in p.children) / 1024 for p in plain]),
            "output_bytes_per_record": facts.get("output_bytes", 0) / n,
            "pack_fill": facts["tokens"] / (facts["packs"] * facts["l_max"]) if facts else 0.0,
            "pack_count_ratio": facts["packs"] / facts["lower_bound"] if facts else 0.0,
            "yield_share": facts.get("dialogues", 0) / n,
        }
        metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    else:
        values = {"cli.import_s": _median([c.wall_s for c in imports])}
        for sub in SUBCOMMANDS:
            values[f"cli.{sub}.wall_s"] = _median(
                [sum(c.wall_s for c in p.children if c.argv[3:4] == [sub]) for p in plain])
        per_pass = [layer_metrics(w, n, p.spans) for p in traced_passes if p.ok]
        for layer in sorted({a for p in traced_passes for sf in p.spans for a in sf["absent"]}):
            print(f"layer {layer}: absent (no function of that name), reported as 0",
                  file=sys.stderr)
        for key in per_pass[0] if per_pass else ():
            values[key] = _median([m[key] for m in per_pass])
        if facts:
            values.update({
                "stream.blocks": facts["blocks"],
                "stream.positions_mean": facts["positions_mean"],
                "stream.positions_max": facts["positions_max"],
                "stream.bytes": facts["stream_bytes"],
                "stream.mask_bytes": facts["mask_bytes"],
                "packing.packs": facts["packs"],
                "packing.lower_bound": facts["lower_bound"],
                "packing.underfull_share": facts["underfull"] / facts["packs"],
            })
        values["trace.overhead_s"] = (_median([p.wall_s for p in traced_passes])
                                      - _median([p.wall_s for p in plain]))
        if w.remote and traced_passes and not errors:
            errors += _check_stub_counts(traced_passes[0], values)
        metrics = {k: (values.get(k, 0.0), u) for k, u in PER_LAYER_UNITS.items()}
    return Result(not errors and failed == 0, attempted, failed, metrics, errors)


def _check_stub_counts(p: Pass, values: dict[str, float]) -> list[str]:
    """What the stub saw must match what the traced backend recorded."""
    seen = (p.stub["requests"], p.stub["errors"], p.stub["retries"], p.stub["bad"])
    recorded = (values["atomic_ops.complete.calls"], values["atomic_ops.failed"],
                values["atomic_ops.retries"], 0)
    if seen != recorded:
        return [f"stub saw requests/503s/retries/bad {seen}, traced backend recorded {recorded}"]
    if p.stub["errors"] == 0:
        return ["the stub answered no request with 503, so retries went unexercised"]
    return []


# --- output -----------------------------------------------------------------------


def print_table(name: str, result: Result) -> None:
    print(f"== {name}: correct={result.correct} attempted={result.attempted} "
          f"failed={result.failed}", file=sys.stderr)
    for key, (value, unit) in result.metrics.items():
        print(f"  {key:40s} {value:>16.6g} {unit}", file=sys.stderr)
    for err in result.errors[:20]:
        print(f"  GATE FAILED: {err}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dialogforge" / "cli.py").is_file():
        print(f"no dialogforge sources under {SRC}; run from a dialogforge checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
        print_table(f"{args.workload} trace={args.trace}", result)
        print(json.dumps(result.to_json()))
        return 0 if result.correct else 1

    results = {}
    for name, w in WORKLOADS.items():
        for trace in (False, True):
            result = run_workload(w, args.seed, args.seconds, trace)
            print_table(f"{name} trace={int(trace)}", result)
            results[f"{name}/trace={int(trace)}"] = result.to_json()
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
