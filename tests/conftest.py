import itertools
import json

import pytest

from dialogforge import cli, io
from dialogforge.atomic_ops import MockBackend
from dialogforge.dialogue import dialogue_from_record, dialogue_to_record


@pytest.fixture(scope="session")
def backend():
    return MockBackend()


@pytest.fixture()
def synthesize(tmp_path):
    """``synthesize(items, stages, backend, cfg, *, task, pool, threads)``: ``(records, rejects)``.

    ``items`` go through the pipeline of the ``synthesize`` subcommand, written
    one per line of an input file and run by ``io.map_lines`` with ``threads``:
    ingest records when ``stages`` starts with a, dialogues otherwise. Returns
    the dialogue records written and the rejects, each in input order.
    """
    names = itertools.count()

    def run(items, stages, backend, cfg, *, task=None, pool=None, threads=0):
        path = str(tmp_path / f"synthesize-{next(names)}.jsonl")
        decode = None if "a" in stages else dialogue_from_record
        io.write_jsonl(path, items if decode is None else map(dialogue_to_record, items))
        one = cli.record_synthesizer(stages, backend, cfg, task=task, pool=pool)
        rejects = []
        lines = cli._synthesized_lines(path, decode, one, rejects, threads, stages[-1])
        return [json.loads(line) for line in lines], rejects

    return run
