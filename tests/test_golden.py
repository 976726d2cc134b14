"""Pinned output bytes of the mock pipeline.

Runs ``synthesize --stages a,b,c`` for every stage-a task (together they call
all ten atomic ops), then ``serialize`` and ``mask`` on each output, one
``pack`` over the streams and one ``stats``, all at seed 7 over ``tests/data``.
Every data output must hash to its recorded digest, so a refactor that changes
output bytes fails here even when it changes them the same way on every run.
Manifests are left out: they record the config, not the data.
"""

import hashlib
import json
from pathlib import Path

from dialogforge.cli import main

DATA = Path(__file__).parent / "data"
SEED = "7"

# task -> the tests/data records its stage a reads
TASKS = {
    "t_i_0_0": "t2i_records_20.jsonl",
    "t_i_t1_1": "t2i_records_20.jsonl",
    "ti_i_0_0": "edit_records_20.jsonl",
    "t_i_i1_1": "edit_records_20.jsonl",
    "t_i_in_1": "subject_records_20.jsonl",
    "ti_i_i1_1": "subject_records_20.jsonl",
}

# Re-record (``python tests/test_golden.py``) only for an intended output change.
GOLDEN = {
    "dialogues/t_i_0_0.jsonl":
        "58422ea272b4f44d8597a70cdc31c2e8047c220e247c07164c7538671de531ea",
    "dialogues/t_i_0_0.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/t_i_i1_1.jsonl":
        "2ea7a32f72ec3d40a15de0200ed6aeba2e7ccb98a3f2709d1cdeaaf52817df10",
    "dialogues/t_i_i1_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/t_i_in_1.jsonl":
        "dde76dbb49a030768f709e36a54c34c2f641d0bfd1e750630d5af6c39497d95f",
    "dialogues/t_i_in_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/t_i_t1_1.jsonl":
        "90c8b8ea06530d83c874a7efb249878f69cd5a5fdf140ddb557353d8cee91ca4",
    "dialogues/t_i_t1_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/ti_i_0_0.jsonl":
        "de31cd7b831696b0fa259a865ae7969390ec882cff52ee8d95c82bc2a06e22e4",
    "dialogues/ti_i_0_0.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/ti_i_i1_1.jsonl":
        "55a853a382f3880837f4a9ee664096f5738338410cfad2ac41de67a1f7337cdb",
    "dialogues/ti_i_i1_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "masks/t_i_0_0.jsonl":
        "d716d7dc2842d4d84aa14b99f3ddca749d8cf157eceb2e3d9262b042b6b9fd47",
    "masks/t_i_i1_1.jsonl":
        "677fb0cb44ee102157513f553d76ffa9e0f920a4bec787ba2d36ecc92e0b83bf",
    "masks/t_i_in_1.jsonl":
        "41a988645d278c0656625fecfb13edcdb783a143f789f884537ba210f48fef6a",
    "masks/t_i_t1_1.jsonl":
        "6575c830bb38790cfea9961a609438148168802d3d878ae4daecfa0900cb6436",
    "masks/ti_i_0_0.jsonl":
        "dd5262dc96d92bde96f2974c69acea7995b4a8b95517ee2ef8dee71e44d05c89",
    "masks/ti_i_i1_1.jsonl":
        "6a988fda3e1dc6e24f696f7d3d4258d4672d7a87dc630937f7b1ccdcd73e7861",
    "pack_stats.json":
        "633e9ecbec933369c32fcd6ecda8c2d5bcd5f1fb0aadf4ae25b6b9382ac6af7e",
    "packs.jsonl":
        "d00b522405a737f19de02abcd7da2fe594a8e356185f10b994f5f02505bbf5a7",
    "stats.json":
        "00435a127c4b327341f05e30e3a875950e68f8fdd3b0ac2552020fc4fd310052",
    "streams/t_i_0_0.jsonl":
        "aaa4d22a05865aca5ebf19af2e38b825a788694f413b7b943b4d4f91317000f7",
    "streams/t_i_i1_1.jsonl":
        "11f52c9c797d5279d691e8125a119fa5e58eeef13841820ee042a16c72253b04",
    "streams/t_i_in_1.jsonl":
        "687ad5a06917e7c9c6341960a93aa1b9d3c8b14f2f16b131b2809829a9fea665",
    "streams/t_i_t1_1.jsonl":
        "5213c838c570b1db1f0d74d4e6996007678c40c30d09f15d2843e751e43b9548",
    "streams/ti_i_0_0.jsonl":
        "c1ae12e9c99c8ccd0e747ae62c21ee247c1d4c63b3cee2f228258faa280eeec6",
    "streams/ti_i_i1_1.jsonl":
        "b6d25213212d0cc26ac72aeda53f6bc93dd81d52d4ef1f13850f3bbf05624701",
}


def run_chain(root: Path) -> dict[str, str]:
    """Run the chain, writing under ``root``; the sha256 of each data output."""
    (root / "dialogues").mkdir()
    (root / "streams").mkdir()
    (root / "masks").mkdir()
    for task, records in TASKS.items():
        dialogues = root / "dialogues" / f"{task}.jsonl"
        streams = root / "streams" / f"{task}.jsonl"
        assert main(["synthesize", "--stages", "a,b,c", "--task", task,
                     "--in", str(DATA / records), "--pool", str(DATA / "pool.jsonl"),
                     "--out", str(dialogues), "--seed", SEED]) == 0
        assert main(["serialize", "--in", str(dialogues), "--out", str(streams)]) == 0
        assert main(["mask", "--in", str(streams),
                     "--out", str(root / "masks" / f"{task}.jsonl")]) == 0
    weights = root / "weights.json"
    weights.write_text(json.dumps({task: 1.0 + i for i, task in enumerate(TASKS)}))
    assert main(["pack", "--config", str(weights), "--in-dir", str(root / "streams"),
                 "--n", "300", "--l-min", "8000", "--l-max", "16000", "--seed", SEED,
                 "--out", str(root / "packs.jsonl"),
                 "--stats", str(root / "pack_stats.json")]) == 0
    assert main(["stats", "--in", str(root / "dialogues" / "t_i_i1_1.jsonl"),
                 "--out", str(root / "stats.json")]) == 0
    return {
        f.relative_to(root).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*"))
        if f.is_file() and not f.name.endswith(".manifest.json") and f != weights
    }


def test_mock_outputs_match_golden_digests(tmp_path):
    assert run_chain(tmp_path) == GOLDEN


if __name__ == "__main__":
    # Print the digests of the current code, e.g. to record GOLDEN.
    import contextlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        digests = run_chain(Path(tmp))
    json.dump(digests, sys.stdout, indent=4)
    print()
