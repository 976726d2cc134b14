#!/usr/bin/env python3
"""Small-N self-test of the benchmark harness.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``

1. Runs every workload of BENCHMARK.json once per trace mode at 5% of its
   size and checks that each run is correct and reports exactly the metrics
   BENCHMARK.json names, with their units.
2. Checks that the correctness gate fails on corrupted outputs: a pack over
   ``l_max``, a lost draw, a stream that breaks the grammar, a mask record
   with no rows, and outputs that differ between passes.
3. Checks that the benchmark refuses to run without the sources: in a
   directory holding only BENCHMARK.json and this directory, it exits non-zero
   and prints no result.

Exits 0 when every check holds and prints one line per failure otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SCALE = 0.05


def check_metrics(spec: dict) -> list[str]:
    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run_workload(run.WORKLOADS[w["name"]], 3, 1, bool(trace), SCALE)
            where = f"{w['name']} trace={trace}"
            result = json.loads(json.dumps(result.to_json()))  # as it is printed
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: not correct: {result}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
                failures.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    return failures


def _rewrite_line(path: Path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = json.dumps(edit(json.loads(lines[index])))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _overfull(pack: dict) -> dict:
    pack["lengths"][0] += 10 ** 6
    pack["total"] += 10 ** 6
    return pack


def _lost_draw(pack: dict) -> dict:
    pack["total"] -= pack["lengths"].pop()
    pack["sample_ids"].pop()
    return pack


def _broken_grammar(stream: dict) -> dict:
    stream["blocks"] = stream["blocks"][1:]
    return stream


def _empty_rows(mask: dict) -> dict:
    mask["rows"] = []
    return mask


def check_gate_fails() -> list[str]:
    """Each corruption of one good pass must make the gate report an error."""
    w = run.WORKLOADS["edit_deep"]
    work = run.WORK / "selftest"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = run.child_env()
    n = run.write_inputs(w, 5, work / "in", SCALE)
    steps = run.chain(w, 5, n, backend_url=None)
    good = run.run_pass(steps, work, env, traced=False, stub=None)
    out = work / "out"
    errors, _ = run.gate(w, n, out, [good])
    if errors:
        return [f"gate fails an uncorrupted pass: {errors[:3]}"]

    failures = []
    stream_file = out / "streams" / f"{w.category}.jsonl"
    corruptions = {
        "pack over l_max": (out / "packs.jsonl", _overfull),
        "lost draw": (out / "packs.jsonl", _lost_draw),
        "stream grammar": (stream_file, _broken_grammar),
        "mask without rows": (out / "masks.jsonl", _empty_rows),
    }
    for name, (path, edit) in corruptions.items():
        saved = path.read_bytes()
        _rewrite_line(path, 0, edit)
        errors, _ = run.gate(w, n, out, [good])
        path.write_bytes(saved)
        if not errors:
            failures.append(f"gate missed corruption: {name}")
    other = copy.deepcopy(good)
    other.digests["packs.jsonl"] = "0" * 64
    errors, _ = run.gate(w, n, out, [good, other])
    if not errors:
        failures.append("gate missed outputs that differ between passes")
    shutil.rmtree(work)
    return failures


def check_refuses_without_sources() -> list[str]:
    bare = run.WORK / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = check_metrics(spec) + check_gate_fails() + check_refuses_without_sources()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
