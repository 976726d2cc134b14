#!/usr/bin/env python3
"""Pack one stream file's draws at a range of draw seeds, and say how close each came.

Usage, with the package importable (installed, or ``PYTHONPATH=src``):

    python3 scripts/pack_sweep.py out/streams/t_ti_0_0.jsonl --n 40000 --seeds 1-20

For each draw seed the script draws ``--n`` streams of the file uniformly with
replacement, as ``pack`` does for a one-category config, packs them with
``pack_greedy`` at the default ``l_min`` and ``l_max`` and prints one line: the
seed, the pack count, the lower bound ``ceil(sum of lengths / l_max)``, the
packs over it, and the seconds ``pack_greedy`` took. A last line sums them up.
"""

import argparse
import statistics
import sys
import time

from dialogforge import io
from dialogforge.cli import PipelineConfig
from dialogforge.packing import SamplingConfig, pack_greedy, sample_stream
from dialogforge.stream import stream_from_record


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("streams", help="a stream JSONL file, as serialize writes it")
    ap.add_argument("--n", type=int, required=True, help="draws per seed")
    ap.add_argument("--seeds", type=seed_range, required=True, help="draw seeds, as A-B or A")
    args = ap.parse_args(argv)
    cfg = PipelineConfig()
    streams = [(s.dialogue_id, s.total_len)
               for s in io.read_records(args.streams, stream_from_record)]
    over, seconds = [], []
    print("seed\tpacks\tbound\tover\tpack_s")
    for seed in args.seeds:
        draws = [draw for _, draw in
                 sample_stream(SamplingConfig({"all": 1.0}), {"all": streams}, args.n, seed)]
        start = time.perf_counter()
        packs = pack_greedy(draws, cfg.l_min, cfg.l_max)
        seconds.append(time.perf_counter() - start)
        bound = -(-sum(length for _, length in draws) // cfg.l_max)
        over.append(len(packs) - bound)
        print(f"{seed}\t{len(packs)}\t{bound}\t{over[-1]}\t{seconds[-1]:.3f}")
    print(f"{len(over)} seeds: {over.count(0)} at the bound, {sum(over)} packs over it "
          f"(mean {statistics.fmean(over):.2f}, max {max(over)}), "
          f"median {statistics.median(seconds):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
