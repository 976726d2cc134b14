import time

import pytest

from dialogforge.atomic_ops import BackendUnavailable, OpKind, OpRequest, invoke, mock_complete
from dialogforge.util import run_records


def item_reject(item, err):
    return {"item": item, "error": str(err)}


class SlowFirst:
    def complete(self, prompt, seed):
        if "INPUT caption: first" in prompt:
            time.sleep(0.05)
        return mock_complete(prompt, seed)


def test_run_records_preserves_order():
    captions = ["first", "second", "third", "fourth"]
    reqs = [OpRequest(OpKind.CAPTION2QUERY, {"caption": c}, 0) for c in captions]
    outputs, rejects = run_records(lambda r: invoke(r, SlowFirst()), reqs, 4, item_reject)
    assert [r.fields["query"] for r in outputs] == [
        f"Please generate an image of {c}" for c in captions
    ]
    assert rejects == []


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_records_errors_become_rejects_in_order(concurrency):
    def fn(x):
        if x == 0:
            time.sleep(0.05)
        if x % 3 == 1:
            raise ValueError(f"bad {x}")
        return x * 10

    outputs, rejects = run_records(fn, range(8), concurrency, item_reject)
    assert outputs == [0, 20, 30, 50, 60]
    assert rejects == [{"item": 1, "error": "bad 1"}, {"item": 4, "error": "bad 4"},
                       {"item": 7, "error": "bad 7"}]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_records_backend_unavailable_propagates(concurrency):
    def fn(x):
        if x == 2:
            raise BackendUnavailable("down")
        return x

    with pytest.raises(BackendUnavailable):
        run_records(fn, range(6), concurrency, item_reject)
