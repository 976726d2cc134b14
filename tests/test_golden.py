"""Pinned output bytes of the mock pipeline.

Runs ``synthesize --stages a,b,c`` for every stage-a task (together they call
all ten atomic ops), then ``serialize`` and ``mask`` on each output, one
``pack`` over the streams and one ``stats``, all at seed 7 over ``tests/data``.
Every output, manifests included, must hash to its recorded digest, so a
refactor that changes output bytes fails here even when it changes them the
same way on every run. The chain runs in a scratch directory on copies of its
inputs, so every path a manifest records is relative and its bytes are fixed.
"""

import hashlib
import json
import os
import shutil
from pathlib import Path

from dialogforge.cli import ENV_BACKEND_URL, ENV_SEED, main

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
    "dialogues/t_i_0_0.jsonl.manifest.json":
        "749f34e51e2611c5de77db19e966b01ccdec31f03018f3564cc58b3d2f524041",
    "dialogues/t_i_0_0.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/t_i_i1_1.jsonl":
        "2ea7a32f72ec3d40a15de0200ed6aeba2e7ccb98a3f2709d1cdeaaf52817df10",
    "dialogues/t_i_i1_1.jsonl.manifest.json":
        "6dff26fa70b34daa13f6e13913b9502b7c56a84130b5fa2aabddd0756e9b7221",
    "dialogues/t_i_i1_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/t_i_in_1.jsonl":
        "dde76dbb49a030768f709e36a54c34c2f641d0bfd1e750630d5af6c39497d95f",
    "dialogues/t_i_in_1.jsonl.manifest.json":
        "c219222d6e077792b73e9650f945c32f6cc0d15d4e6313b32cf4e032191a550c",
    "dialogues/t_i_in_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/t_i_t1_1.jsonl":
        "90c8b8ea06530d83c874a7efb249878f69cd5a5fdf140ddb557353d8cee91ca4",
    "dialogues/t_i_t1_1.jsonl.manifest.json":
        "1ca98092c6f1daade0d74af318d516424117ff38a1df4f8b85cc92e864d9ad60",
    "dialogues/t_i_t1_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/ti_i_0_0.jsonl":
        "de31cd7b831696b0fa259a865ae7969390ec882cff52ee8d95c82bc2a06e22e4",
    "dialogues/ti_i_0_0.jsonl.manifest.json":
        "2a21a1c4c6a6e98b0c5270a3b8b49b0507de4ed0f529ebba420eafd3ce9cce09",
    "dialogues/ti_i_0_0.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "dialogues/ti_i_i1_1.jsonl":
        "55a853a382f3880837f4a9ee664096f5738338410cfad2ac41de67a1f7337cdb",
    "dialogues/ti_i_i1_1.jsonl.manifest.json":
        "b2d04852943b842d2b60e2cbcf4e9f355e483f71662b3f9b69d8557adf518853",
    "dialogues/ti_i_i1_1.jsonl.rejects.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "masks/t_i_0_0.jsonl":
        "d716d7dc2842d4d84aa14b99f3ddca749d8cf157eceb2e3d9262b042b6b9fd47",
    "masks/t_i_0_0.jsonl.manifest.json":
        "77cf1a7f4e606f5e417382d344e9bc87567191499bb70bc766100a06bb459a70",
    "masks/t_i_i1_1.jsonl":
        "677fb0cb44ee102157513f553d76ffa9e0f920a4bec787ba2d36ecc92e0b83bf",
    "masks/t_i_i1_1.jsonl.manifest.json":
        "d494b3f13ae3cdfb7a0a9a49c188666a16becd4a0085ba6345fe7feb6aaea58a",
    "masks/t_i_in_1.jsonl":
        "41a988645d278c0656625fecfb13edcdb783a143f789f884537ba210f48fef6a",
    "masks/t_i_in_1.jsonl.manifest.json":
        "65f23a2090ccc1c110aad32887d3ef9376772a737357984b53644ed65bcadb53",
    "masks/t_i_t1_1.jsonl":
        "6575c830bb38790cfea9961a609438148168802d3d878ae4daecfa0900cb6436",
    "masks/t_i_t1_1.jsonl.manifest.json":
        "4bc188e5f043158dec0c90f0d0879bd5e88eb88c7f240dfac01c0349f9082c9f",
    "masks/ti_i_0_0.jsonl":
        "dd5262dc96d92bde96f2974c69acea7995b4a8b95517ee2ef8dee71e44d05c89",
    "masks/ti_i_0_0.jsonl.manifest.json":
        "d5b62c584a2a53d4d50a5322acfffaf312f89b26c66bac7c40e47b8d6f91613f",
    "masks/ti_i_i1_1.jsonl":
        "6a988fda3e1dc6e24f696f7d3d4258d4672d7a87dc630937f7b1ccdcd73e7861",
    "masks/ti_i_i1_1.jsonl.manifest.json":
        "6eae02df222f8c55658c611203265165c38024760d0b54f3710652c014a553aa",
    "pack_stats.json":
        "633e9ecbec933369c32fcd6ecda8c2d5bcd5f1fb0aadf4ae25b6b9382ac6af7e",
    "packs.jsonl":
        "d00b522405a737f19de02abcd7da2fe594a8e356185f10b994f5f02505bbf5a7",
    "packs.jsonl.manifest.json":
        "89f75aac93b3c1e4ad6785b21a3893e28495652c84de70a7946eda9818dc3982",
    "stats.json":
        "00435a127c4b327341f05e30e3a875950e68f8fdd3b0ac2552020fc4fd310052",
    "streams/t_i_0_0.jsonl":
        "aaa4d22a05865aca5ebf19af2e38b825a788694f413b7b943b4d4f91317000f7",
    "streams/t_i_0_0.jsonl.manifest.json":
        "c2619b782df2acf7b20fd416640c919f85252da2acb51b6c48152d5ab405c2b9",
    "streams/t_i_i1_1.jsonl":
        "11f52c9c797d5279d691e8125a119fa5e58eeef13841820ee042a16c72253b04",
    "streams/t_i_i1_1.jsonl.manifest.json":
        "46211db26d44756659ee70875e6dae96da66d5cc6a46a28770257f7b69a0b30b",
    "streams/t_i_in_1.jsonl":
        "687ad5a06917e7c9c6341960a93aa1b9d3c8b14f2f16b131b2809829a9fea665",
    "streams/t_i_in_1.jsonl.manifest.json":
        "b29c16778c7dcf6d297478864b108fcd0f0f283844cb7b181e51cd6a9c700bcc",
    "streams/t_i_t1_1.jsonl":
        "5213c838c570b1db1f0d74d4e6996007678c40c30d09f15d2843e751e43b9548",
    "streams/t_i_t1_1.jsonl.manifest.json":
        "f07713be2c2ef91d1ad3b4c37a6e8fcb3d8c9c3dd4b543f8a3321c203ed6b959",
    "streams/ti_i_0_0.jsonl":
        "c1ae12e9c99c8ccd0e747ae62c21ee247c1d4c63b3cee2f228258faa280eeec6",
    "streams/ti_i_0_0.jsonl.manifest.json":
        "03c8ad8dd7ff5bce7b55bba9dcb47dfa47de8e7d163e2bc9ebc846627e8771e8",
    "streams/ti_i_i1_1.jsonl":
        "b6d25213212d0cc26ac72aeda53f6bc93dd81d52d4ef1f13850f3bbf05624701",
    "streams/ti_i_i1_1.jsonl.manifest.json":
        "4d2064b983854454a4c78a99221c51e15f53499b9b781a323514de7ae95dec10",
}


def run_chain() -> dict[str, str]:
    """Run the chain in the current directory; the sha256 of each output file."""
    Path("in").mkdir()
    for name in {*TASKS.values(), "pool.jsonl"}:
        shutil.copy(DATA / name, Path("in") / name)
    Path("dialogues").mkdir()
    Path("streams").mkdir()
    Path("masks").mkdir()
    for task, records in TASKS.items():
        dialogues = f"dialogues/{task}.jsonl"
        streams = f"streams/{task}.jsonl"
        assert main(["synthesize", "--stages", "a,b,c", "--task", task,
                     "--in", f"in/{records}", "--pool", "in/pool.jsonl",
                     "--out", dialogues, "--seed", SEED]) == 0
        assert main(["serialize", "--in", dialogues, "--out", streams]) == 0
        assert main(["mask", "--in", streams, "--out", f"masks/{task}.jsonl"]) == 0
    Path("weights.json").write_text(json.dumps({task: 1.0 + i for i, task in enumerate(TASKS)}))
    assert main(["pack", "--config", "weights.json", "--in-dir", "streams",
                 "--n", "300", "--l-min", "8000", "--l-max", "16000", "--seed", SEED,
                 "--out", "packs.jsonl", "--stats", "pack_stats.json"]) == 0
    assert main(["stats", "--in", "dialogues/t_i_i1_1.jsonl", "--out", "stats.json"]) == 0
    return {
        f.as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path().rglob("*"))
        if f.is_file() and f.parts[0] != "in" and f.name != "weights.json"
    }


def test_mock_outputs_match_golden_digests(tmp_path, monkeypatch):
    # the manifests record the config, which these would change
    monkeypatch.delenv(ENV_SEED, raising=False)
    monkeypatch.delenv(ENV_BACKEND_URL, raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_chain() == GOLDEN


if __name__ == "__main__":
    # Print the digests of the current code, e.g. to record GOLDEN.
    import contextlib
    import sys
    import tempfile

    os.environ.pop(ENV_SEED, None)
    os.environ.pop(ENV_BACKEND_URL, None)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        os.chdir(tmp)
        digests = run_chain()
    json.dump(digests, sys.stdout, indent=4)
    print()
