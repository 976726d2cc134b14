"""LLM-powered text transformations used as pipeline building blocks.

Ten operations cover query synthesis from captions, Q&A generation,
subject-driven composition queries, history-dependent query rewriting, and
caption-grounded question answering. ``invoke(kind, inputs, seed, backend)``
runs one: it renders a prompt carrying a distinct header line, sends it to a
completion backend, and returns the fields of the tagged-line reply
(``QUERY:`` / ``Q:`` / ``A:``). The mock backend recognizes the header,
extracts the substituted inputs, and answers by fixed string rules, so the
whole pipeline runs offline and deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Protocol
from urllib.parse import SplitResult, unquote, urlsplit


class MissingInput(ValueError):
    """A required input key is absent or blank."""


class UnparseableResponse(ValueError):
    """A required tag is missing from the backend reply, or its payload is empty."""


class BackendUnavailable(RuntimeError):
    """Transport failure or malformed wire response from a completion backend."""


class UnknownTemplate(ValueError):
    """The mock backend received a prompt it did not render."""


class OpKind(Enum):
    CAPTION2QUERY = "caption2query"
    CAPTION2QA_Q = "caption2qa_q"
    DRIVE_HS = "drive_hs"
    DRIVE_I_H = "drive_i_h"
    QUERY2DEP_Q = "query2dep_q"
    CAPTION2QA_Q_DEP = "caption2qa_q_dep"
    DRIVE_HS_DEP = "drive_hs_dep"
    DRIVE_I_H_DEP = "drive_i_h_dep"
    Q_FROM_CAPTION = "q_from_caption"
    A_FROM_CAPTION = "a_from_caption"


_HEADER_PREFIX = "### op: "


@dataclass(frozen=True)
class OpSpec:
    """An op's input keys, reply tags, prompt instruction and mock reply.

    The instruction names every tag the parser requires; the mock reply is a
    format string over the inputs.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    instruction: str
    mock_reply: str


OPS: dict[OpKind, OpSpec] = {
    OpKind.CAPTION2QUERY: OpSpec(("caption",), ("query",),
        "Rewrite the image caption below as a natural user request asking for that image "
        "to be generated. Reply with a single line of the form \"QUERY: <request>\".",
        "QUERY: Please generate an image of {caption}"),
    OpKind.CAPTION2QA_Q: OpSpec(("caption",), ("q", "a", "query"),
        "From the image caption below, write a general question a curious user might ask "
        "about the subject, a factual answer, and a short follow-up request asking for such "
        "an image without naming the subject again. Reply with three lines: "
        "\"Q: <question>\", \"A: <answer>\", \"QUERY: <request>\".",
        "Q: What can you tell me about {caption}?\n"
        "A: Here is what I know: {caption}.\n"
        "QUERY: Create one for me."),
    OpKind.DRIVE_HS: OpSpec(("caption_a", "caption_b"), ("query",),
        "The two captions below describe subjects shown in the two immediately preceding "
        "turns of a conversation. Write one user request asking for a new image that "
        "combines both subjects. Reply with a single line \"QUERY: <request>\".",
        "QUERY: Please draw {caption_a} and {caption_b} together in one image."),
    OpKind.DRIVE_I_H: OpSpec(("caption_history",), ("query",),
        "The caption below describes the subject shown in the immediately preceding turn. "
        "Write one user request asking to combine that subject with the image the user is "
        "uploading alongside this message. Reply with a single line \"QUERY: <request>\".",
        "QUERY: Please combine {caption_history} with this image I uploaded."),
    OpKind.QUERY2DEP_Q: OpSpec(("query", "target_caption"), ("query",),
        "Rewrite the edit request below into a specific, self-contained instruction that "
        "names the subject of the target image, so the request stays unambiguous even after "
        "unrelated conversation in between. Reply with a single line \"QUERY: <instruction>\".",
        "QUERY: {query} — apply this to the image showing: {target_caption}"),
    OpKind.CAPTION2QA_Q_DEP: OpSpec(("caption",), ("q", "a", "query"),
        "From the image caption below, write a general question about the subject, a factual "
        "answer, and a request for such an image that explicitly points back to the earlier "
        "discussion of the subject (several unrelated turns will sit in between). Reply with "
        "three lines: \"Q: <question>\", \"A: <answer>\", \"QUERY: <request>\".",
        "Q: What can you tell me about {caption}?\n"
        "A: Here is what I know: {caption}.\n"
        "QUERY: Now generate the one we discussed earlier: {caption}."),
    OpKind.DRIVE_HS_DEP: OpSpec(("caption_a", "caption_b"), ("query",),
        "The two captions below describe subjects shown in earlier turns, now separated from "
        "the current turn by unrelated turns. Write one user request that explicitly names "
        "both subjects and asks for a new image combining them. Reply with a single line "
        "\"QUERY: <request>\".",
        "QUERY: Draw {caption_a} and {caption_b} together in the next image."),
    OpKind.DRIVE_I_H_DEP: OpSpec(("caption_history",), ("query",),
        "The caption below describes a subject shown several turns ago, separated from the "
        "current turn by unrelated turns. Write one user request that explicitly names that "
        "subject and asks to combine it with the image the user is uploading now. Reply with "
        "a single line \"QUERY: <request>\".",
        "QUERY: Draw {caption_history} together with this image I uploaded."),
    OpKind.Q_FROM_CAPTION: OpSpec(("caption",), ("q",),
        "Write one relevant general-knowledge question about the subject of the image "
        "caption below. Reply with a single line \"Q: <question>\".",
        "Q: What are the key features of {caption}?"),
    OpKind.A_FROM_CAPTION: OpSpec(("caption", "question"), ("a",),
        "Answer the question below factually, using the image caption as grounding. Reply "
        "with a single line \"A: <answer>\".",
        "A: Regarding the question {question!r}: the image shows {caption}."),
}


class CompletionBackend(Protocol):
    def complete(self, prompt: str, seed: int) -> str: ...


def render_prompt(kind: OpKind, inputs: Mapping[str, str]) -> str:
    """Deterministic prompt: header line, instruction, one tagged line per input.

    Raises:
        MissingInput: a required input key is absent or blank.
    """
    spec = OPS[kind]
    lines = [f"{_HEADER_PREFIX}{kind.value}", spec.instruction]
    for key in spec.inputs:
        value = inputs.get(key)
        if value is None or not value.strip():
            raise MissingInput(f"{kind.value}: required input {key!r} absent or blank")
        lines.append(f"INPUT {key}: {value}")
    return "\n".join(lines)


def parse_response(kind: OpKind, raw: str) -> dict[str, str]:
    """The kind's required tagged lines of ``raw``, by output key; first occurrence wins.

    Raises:
        UnparseableResponse: a required tag is missing or its payload is empty.
    """
    tags = {key: f"{key.upper()}:" for key in OPS[kind].outputs}  # QUERY: / Q: / A:
    found: dict[str, str] = {}
    for line in raw.splitlines():
        stripped = line.strip()
        for key, tag in tags.items():
            if key not in found and stripped.startswith(tag):
                found[key] = stripped[len(tag):].strip()
    for key, tag in tags.items():
        if key not in found:
            raise UnparseableResponse(f"{kind.value}: tag {tag!r} not found in reply")
        if not found[key]:
            raise UnparseableResponse(f"{kind.value}: tag {tag!r} has an empty payload")
    return {key: found[key] for key in tags}


def invoke(kind: OpKind, inputs: Mapping[str, str], seed: int, backend: CompletionBackend,
           retries: int = 2) -> dict[str, str]:
    """render -> complete -> parse, retrying with seed+attempt on failure; returns the fields.

    Raises:
        MissingInput: a required input key is absent or blank; nothing is sent.
        BackendUnavailable / UnparseableResponse: all attempts failed; the
        last attempt's error is raised.
    """
    prompt = render_prompt(kind, inputs)
    last_err: Exception | None = None
    for attempt in range(retries + 1):
        try:
            raw = backend.complete(prompt, seed + attempt)
        except BackendUnavailable as err:
            last_err = err
            continue
        try:
            return parse_response(kind, raw)
        except UnparseableResponse as err:
            last_err = err
    assert last_err is not None
    raise last_err


# --- Mock backend -------------------------------------------------------------


def mock_complete(prompt: str, seed: int) -> str:
    """Answer a rendered prompt by fixed string rules; pure in (prompt, seed).

    Raises:
        UnknownTemplate: the prompt lacks a known header or its input lines.
    """
    lines = prompt.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise UnknownTemplate("prompt does not start with an operation header")
    name = lines[0][len(_HEADER_PREFIX):].strip()
    try:
        kind = OpKind(name)
    except ValueError:
        raise UnknownTemplate(f"unknown operation header {name!r}") from None
    inputs: dict[str, str] = {}
    for line in lines[1:]:
        if line.startswith("INPUT ") and ": " in line:
            key, _, value = line[len("INPUT "):].partition(": ")
            inputs.setdefault(key, value)
    spec = OPS[kind]
    for key in spec.inputs:
        if key not in inputs:
            raise UnknownTemplate(f"prompt is missing the input line for {key!r}")
    return spec.mock_reply.format_map(inputs)


class MockBackend:
    """Deterministic offline backend answering rendered prompts by fixed rules."""

    def complete(self, prompt: str, seed: int) -> str:
        return mock_complete(prompt, seed)

    def close(self) -> None:
        """Nothing to release; here so that every backend the CLI makes can be closed."""


# --- Remote backend -----------------------------------------------------------


def split_backend_url(url: str) -> SplitResult:
    """``url`` split into its parts, once it is known to name an HTTP endpoint.

    Raises:
        ValueError: the scheme is not http or https, the host is missing, or
            the port is not a number in 0..65535.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"backend url {url!r} is not an http:// or https:// URL with a host")
    try:
        parts.port
    except ValueError as err:
        raise ValueError(f"backend url {url!r}: {err}") from None
    return parts


def _proxy(target: SplitResult) -> tuple[str, int, dict[str, str]] | None:
    """The proxy host, port and auth header for ``target``, from the environment.

    ``None`` when no proxy is set for its scheme or ``no_proxy`` covers it.
    """
    import urllib.request

    if urllib.request.proxy_bypass(target.netloc.rpartition("@")[2]):
        return None
    proxy = urllib.request.getproxies().get(target.scheme)
    if not proxy:
        return None
    via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    auth = {}
    if via.username is not None:
        import base64

        cred = f"{unquote(via.username)}:{unquote(via.password or '')}".encode()
        auth["Proxy-Authorization"] = "Basic " + base64.b64encode(cred).decode()
    return via.hostname, via.port or 80, auth


@dataclass
class RemoteBackend:
    """HTTP completion service speaking a one-endpoint JSON contract.

    POST ``{"prompt", "seed", "max_tokens", "temperature"}`` to ``url``;
    the service replies ``{"text": <completion>}``. Anything else (transport
    error, non-2xx, malformed body) raises BackendUnavailable.

    Each thread keeps one keep-alive connection; when a reused one turns out
    to have been closed by the server, the request is sent once more on a
    fresh one. ``http_proxy``, ``https_proxy`` and ``no_proxy`` are read once,
    here: an http URL goes to the proxy as an absolute URL, an https URL
    through a CONNECT tunnel.

    Raises:
        ValueError: ``url`` fails ``split_backend_url``.
    """

    url: str
    timeout: float = 30.0

    def __post_init__(self) -> None:
        # Imported here, not at module level, so that mock runs and the offline
        # subcommands never load an HTTP stack.
        import http.client
        import threading

        target = split_backend_url(self.url)
        https = target.scheme == "https"
        cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
        host, port, tunnel = target.hostname, target.port, None
        self._path = target.path or "/"
        if target.query:
            self._path += "?" + target.query
        self._headers = {"Content-Type": "application/json"}
        proxy = _proxy(target)
        if proxy is not None:
            proxy_host, proxy_port, auth = proxy
            if https:
                tunnel = (host, port, auth)
            else:
                self._path = self.url
                self._headers.update(auth)
            host, port = proxy_host, proxy_port

        def connect() -> http.client.HTTPConnection:
            conn = cls(host, port, timeout=self.timeout)
            if tunnel:
                conn.set_tunnel(*tunnel)
            return conn

        self._connect = connect
        self._local = threading.local()
        # Every connection opened, also those of worker threads that have exited
        # since, so that ``close`` reaches them all.
        self._conns: list[http.client.HTTPConnection] = []
        self._transport_errors = (OSError, http.client.HTTPException)

    def close(self) -> None:
        """Close every connection this backend opened; call it when no request is in flight.

        A later ``complete`` reopens its thread's connection.
        """
        for conn in list(self._conns):
            conn.close()

    def complete(self, prompt: str, seed: int) -> str:
        body = {"prompt": prompt, "seed": seed, "max_tokens": 512, "temperature": 0.7}
        payload = json.dumps(body).encode("utf-8")
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            self._conns.append(conn)
        while True:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._path, payload, self._headers)
                resp = conn.getresponse()
                status, raw = resp.status, resp.read()
                break
            except self._transport_errors as err:
                conn.close()
                # A server may close an idle keep-alive connection. Resend on a
                # fresh one: raising here would make invoke retry with seed + 1.
                if not (reused and isinstance(err, (ConnectionResetError, BrokenPipeError))):
                    raise BackendUnavailable(f"POST {self.url} failed: {err}") from err
        if not 200 <= status < 300:
            raise BackendUnavailable(f"POST {self.url} returned {status}")
        try:
            data = json.loads(raw)
        except ValueError as err:
            raise BackendUnavailable(f"{self.url}: response body is not JSON") from err
        text = data.get("text") if isinstance(data, dict) else None
        if not isinstance(text, str):
            raise BackendUnavailable(f"{self.url}: response lacks a string 'text' field")
        return text
