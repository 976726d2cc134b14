import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogforge.atomic_ops import (
    OPS,
    BackendUnavailable,
    MissingInput,
    MockBackend,
    OpKind,
    OpRequest,
    RemoteBackend,
    UnknownTemplate,
    UnparseableResponse,
    invoke,
    mock_complete,
    parse_response,
    render_prompt,
)

CAPTION = "A golden retriever is running on the grass"


def full_inputs(kind: OpKind) -> dict[str, str]:
    base = {
        "caption": CAPTION,
        "caption_a": "a white cat lying on an open notebook",
        "caption_b": "a golden retriever lying on a table",
        "caption_history": "a white cat lying on an open book",
        "query": "Add a red hat",
        "target_caption": "a golden retriever reading a book",
        "question": "What are the key features of golden retrievers?",
    }
    return {k: base[k] for k in OPS[kind].inputs}


def test_registry_has_all_ten_ops():
    assert len(OpKind) == 10
    assert set(OPS) == set(OpKind)


def test_render_contains_inputs_verbatim():
    prompt = render_prompt(OpRequest(OpKind.CAPTION2QUERY, {"caption": CAPTION}, 0))
    assert CAPTION in prompt
    assert prompt.startswith("### op: caption2query")


def test_render_missing_input():
    with pytest.raises(MissingInput):
        render_prompt(OpRequest(OpKind.QUERY2DEP_Q, {"query": "", "target_caption": "x"}, 0))
    with pytest.raises(MissingInput):
        render_prompt(OpRequest(OpKind.QUERY2DEP_Q, {"query": "Add a hat"}, 0))


def test_render_deterministic():
    req = OpRequest(OpKind.DRIVE_HS, full_inputs(OpKind.DRIVE_HS), 5)
    assert render_prompt(req) == render_prompt(req)


def test_parse_single_tag():
    resp = parse_response(OpKind.CAPTION2QUERY, "QUERY: Draw a golden retriever running on grass")
    assert resp.fields == {"query": "Draw a golden retriever running on grass"}
    assert resp.raw.startswith("QUERY:")


def test_parse_missing_tag():
    with pytest.raises(UnparseableResponse):
        parse_response(OpKind.CAPTION2QA_Q, "Q: what?\nQUERY: make one")


def test_parse_empty_payload():
    with pytest.raises(UnparseableResponse):
        parse_response(OpKind.CAPTION2QUERY, "QUERY:   ")


def test_parse_first_occurrence_wins():
    resp = parse_response(OpKind.Q_FROM_CAPTION, "Q: first question\nQ: second question")
    assert resp.fields["q"] == "first question"


def test_parse_ignores_extra_lines_and_requires_no_more():
    raw = "preamble chatter\nQ: What are the features of Golden Retrievers?\ntrailing notes"
    resp = parse_response(OpKind.Q_FROM_CAPTION, raw)
    assert resp.fields == {"q": "What are the features of Golden Retrievers?"}


def test_query_tag_does_not_satisfy_q():
    # "QUERY:" must not be mistaken for a "Q:" line.
    with pytest.raises(UnparseableResponse):
        parse_response(OpKind.Q_FROM_CAPTION, "QUERY: not a question line")


def test_mock_caption2query_golden():
    prompt = render_prompt(OpRequest(OpKind.CAPTION2QUERY, {"caption": CAPTION}, 0))
    assert mock_complete(prompt, 0) == f"QUERY: Please generate an image of {CAPTION}"


def test_mock_query2dep_golden():
    req = OpRequest(OpKind.QUERY2DEP_Q,
                    {"query": "Add a red hat",
                     "target_caption": "a golden retriever reading a book"}, 0)
    resp = invoke(req, MockBackend())
    assert resp.fields["query"] == (
        "Add a red hat — apply this to the image showing: a golden retriever reading a book"
    )
    # the original query survives as a prefix, so rewrite always differs
    assert resp.fields["query"].startswith("Add a red hat")
    assert resp.fields["query"] != "Add a red hat"


def test_mock_drive_hs_mentions_both_captions():
    req = OpRequest(OpKind.DRIVE_HS, full_inputs(OpKind.DRIVE_HS), 0)
    resp = invoke(req, MockBackend())
    assert full_inputs(OpKind.DRIVE_HS)["caption_a"] in resp.fields["query"]
    assert full_inputs(OpKind.DRIVE_HS)["caption_b"] in resp.fields["query"]


def test_mock_unknown_template():
    with pytest.raises(UnknownTemplate):
        mock_complete("please write me a poem about retrievers", 0)
    with pytest.raises(UnknownTemplate):
        mock_complete("### op: not_a_real_op\nINPUT caption: x", 0)


def test_mock_all_kinds_all_tags():
    for kind in OpKind:
        raw = mock_complete(render_prompt(OpRequest(kind, full_inputs(kind), 0)), 0)
        resp = parse_response(kind, raw)
        assert set(resp.fields) == set(OPS[kind].outputs)
        assert all(v.strip() for v in resp.fields.values())


@settings(max_examples=60)
@given(kind=st.sampled_from(list(OpKind)), seed=st.integers(0, 2**32 - 1))
def test_mock_parseable_for_any_seed(kind, seed):
    resp = invoke(OpRequest(kind, full_inputs(kind), seed), MockBackend(), retries=0)
    assert set(resp.fields) == set(OPS[kind].outputs)


def test_invoke_mock_deterministic():
    req = OpRequest(OpKind.CAPTION2QA_Q, {"caption": CAPTION}, 123)
    assert invoke(req, MockBackend()) == invoke(req, MockBackend())


class FlakyParse:
    """Returns garbage until the seed reaches a threshold."""

    def __init__(self, good_from: int):
        self.good_from = good_from
        self.seeds = []

    def complete(self, prompt, seed):
        self.seeds.append(seed)
        if seed >= self.good_from:
            return mock_complete(prompt, seed)
        return "no tags here"


def test_invoke_retries_with_seed_schedule():
    req = OpRequest(OpKind.CAPTION2QUERY, {"caption": CAPTION}, 10)
    flaky = FlakyParse(good_from=12)
    resp = invoke(req, flaky, retries=3)
    assert flaky.seeds == [10, 11, 12]
    assert resp.fields["query"]


def test_invoke_exhausts_retries():
    req = OpRequest(OpKind.CAPTION2QUERY, {"caption": CAPTION}, 10)
    with pytest.raises(UnparseableResponse):
        invoke(req, FlakyParse(good_from=100), retries=2)


class AlwaysDown:
    def complete(self, prompt, seed):
        raise BackendUnavailable("nope")


def test_invoke_backend_down():
    req = OpRequest(OpKind.CAPTION2QUERY, {"caption": CAPTION}, 0)
    with pytest.raises(BackendUnavailable):
        invoke(req, AlwaysDown(), retries=2)


# --- remote wire contract ------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    bodies = []
    mode = "ok"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _Handler.bodies.append(body)
        if _Handler.mode == "error":
            self.send_response(500)
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        if _Handler.mode == "garbage":
            self.wfile.write(b"not json at all")
        elif _Handler.mode == "wrong-shape":
            self.wfile.write(json.dumps({"completion": "x"}).encode())
        else:
            self.wfile.write(json.dumps(
                {"text": mock_complete(body["prompt"], body["seed"])}).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_backend():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.bodies = []
    _Handler.mode = "ok"
    yield RemoteBackend(url=f"http://127.0.0.1:{server.server_port}/complete", timeout=5)
    server.shutdown()


def test_remote_wire_format(http_backend):
    req = OpRequest(OpKind.CAPTION2QUERY, {"caption": CAPTION}, 77)
    resp = invoke(req, http_backend)
    assert resp.fields["query"] == f"Please generate an image of {CAPTION}"
    body = _Handler.bodies[0]
    assert set(body) == {"prompt", "seed", "max_tokens", "temperature"}
    assert (body["seed"], body["max_tokens"], body["temperature"]) == (77, 512, 0.7)
    assert CAPTION in body["prompt"]


def test_remote_http_error(http_backend):
    _Handler.mode = "error"
    with pytest.raises(BackendUnavailable):
        http_backend.complete("x", 0)


def test_remote_malformed_body(http_backend):
    _Handler.mode = "garbage"
    with pytest.raises(BackendUnavailable):
        http_backend.complete("x", 0)
    _Handler.mode = "wrong-shape"
    with pytest.raises(BackendUnavailable):
        http_backend.complete("x", 0)


def test_remote_connection_refused():
    backend = RemoteBackend(url="http://127.0.0.1:9/complete", timeout=0.5)
    with pytest.raises(BackendUnavailable):
        backend.complete("x", 0)
