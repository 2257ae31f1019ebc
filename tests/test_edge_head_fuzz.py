"""Fuzzing the edge's one-read head parser over a live socket.

``EdgeServer`` reads a request head with one
``readuntil(b"\\r\\n\\r\\n")`` and splits it in memory.  Generated heads
check that the split keeps every cap and refusal, whatever the head
holds and however TCP cuts it: request-line and header sizes on both
sides of their caps, ``Content-Length`` spellings, a head sent down to
one byte per write, two pipelined requests in one write, and a
half-sent head followed by a close.  Every request is answered exactly
once (a refusal with ``Connection: close``), a half-sent head not at
all, and the server keeps serving after each.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.edge import EdgeConfig, EdgeServer
from repro.service.edge.server import (
    MAX_BODY_BYTES, MAX_HEADER_BYTES, MAX_REQUEST_LINE,
)

FUZZ = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def port():
    """One server for the module, on a loop in its own thread."""
    loop = asyncio.new_event_loop()
    edge = EdgeServer(EdgeConfig(port=0, workers=1,
                                 cold_executor="inline",
                                 warm_executor="inline"))
    loop.run_until_complete(edge.start())
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    yield edge.port
    asyncio.run_coroutine_threadsafe(edge.close(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)
    assert not thread.is_alive()
    loop.close()


def exchange(port: int, pieces, pause: float = 0.0):
    """Send ``pieces`` as separate writes, half-close, and read until
    the server closes -> the responses, as ``(status, headers,
    body)``."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for piece in pieces:
            sock.sendall(piece)
            if pause:
                time.sleep(pause)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    replies = []
    while data:
        head, found, data = data.partition(b"\r\n\r\n")
        assert found, head
        lines = head.decode("latin-1").split("\r\n")
        headers = {name.lower(): value.strip() for name, _, value in
                   (line.partition(":") for line in lines[1:])}
        length = int(headers["content-length"])
        replies.append((int(lines[0].split(" ")[1]), headers,
                        json.loads(data[:length])))
        data = data[length:]
    return replies


def cut(data: bytes, points) -> list:
    """``data`` split at ``points`` (offsets, any order)."""
    edges = [0, *sorted({p % (len(data) + 1) for p in points}), len(data)]
    return [data[a:b] for a, b in zip(edges, edges[1:]) if b > a]


def assert_answered_once(replies, status: int) -> None:
    assert [reply[0] for reply in replies] == [status]
    if status >= 400:
        code = replies[0][2]["error"]["code"]
        assert code != "internal_error"
    if status in (400, 413, 431, 501):
        assert replies[0][1]["connection"] == "close"


def assert_serving(port: int) -> None:
    replies = exchange(port, [b"GET /healthz HTTP/1.1\r\n\r\n"])
    assert [reply[0] for reply in replies] == [200]


def near(cap: int):
    """Sizes on both sides of ``cap``, and some far under it."""
    return st.one_of(st.integers(cap - 8, cap + 8), st.integers(16, 256))


@FUZZ
@given(line=near(MAX_REQUEST_LINE), fields=near(MAX_HEADER_BYTES),
       points=st.lists(st.integers(0, 1 << 16), max_size=3))
def test_caps_hold_on_both_sides(port, line, fields, points):
    """A request line of ``line`` bytes and a header block of
    ``fields`` bytes (each counting its CRLFs) is a 431 past either
    cap and an answer under both (404: the padded path is unknown)."""
    request_line = b"GET /" + b"a" * (line - 16) + b" HTTP/1.1\r\n"
    header = b"X-Pad: " + b"b" * (fields - 11) + b"\r\n"
    assert (len(request_line), len(header) + 2) == (line, fields)
    over = line > MAX_REQUEST_LINE or fields > MAX_HEADER_BYTES
    replies = exchange(port, cut(request_line + header + b"\r\n",
                                 points))
    assert_answered_once(replies, 431 if over else 404)
    assert_serving(port)


LENGTHS = st.one_of(
    st.integers(0, 64).map(str),
    st.tuples(st.integers(1, 4), st.integers(0, 64))
    .map(lambda t: "0" * t[0] + str(t[1])),
    st.integers(0, 64).map(lambda n: f" {n}\t"),
    st.integers(MAX_BODY_BYTES - 1, MAX_BODY_BYTES + 1).map(str),
    st.integers(19, 40).map(lambda n: "9" * n),
    st.sampled_from(["", " ", "-1", "+5", "1_0", "0x10", "5 5", "1e3",
                     "5,5", "\xb2", "\xb9", " 5"]),
)


@FUZZ
@given(length=LENGTHS,
       points=st.lists(st.integers(0, 1 << 16), max_size=3))
def test_content_length_spellings(port, length, points):
    """Plain ASCII digits (leading zeros and surrounding blanks
    allowed) frame a body; a value past the cap is a 413, any other
    spelling a 400, and neither reads a byte of body."""
    value = length.strip(" \t")
    if not (value.isascii() and value.isdigit()):
        status, body = 400, b""
    elif int(value) > MAX_BODY_BYTES:
        status, body = 413, b""
    else:
        status, body = 200, b"x" * int(value)
    data = (b"GET /healthz HTTP/1.1\r\nContent-Length: " +
            length.encode("latin-1") + b"\r\n\r\n" + body)
    assert_answered_once(exchange(port, cut(data, points)), status)
    assert_serving(port)


FIELD_NAMES = st.sampled_from(["Host", "Accept", "X-Trace", "User-Agent"])
FIELD_VALUES = st.text(st.characters(min_codepoint=0x21,
                                     max_codepoint=0x7e), max_size=12)
FIELDS = st.lists(st.tuples(FIELD_NAMES, FIELD_VALUES), max_size=4)


def head_with(fields, request_line: str = "GET /healthz HTTP/1.1") \
        -> bytes:
    lines = [request_line] + [f"{name}: {value}"
                              for name, value in fields]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


@settings(max_examples=15, deadline=None)
@given(fields=FIELDS, data=st.data())
def test_head_split_down_to_single_bytes(port, fields, data):
    """However TCP cuts a head, down to one byte per write, it is
    one request with one answer."""
    head = head_with(fields)
    if data.draw(st.booleans(), label="one byte per write"):
        pieces = [head[i:i + 1] for i in range(len(head))]
    else:
        pieces = cut(head, data.draw(st.lists(
            st.integers(0, len(head)), max_size=8), label="points"))
    assert_answered_once(exchange(port, pieces, pause=0.0002), 200)


ROUTES = st.sampled_from([
    (b"GET /healthz HTTP/1.1\r\n\r\n", 200),
    (b"GET /stats HTTP/1.1\r\n\r\n", 200),
    (b"GET /nope HTTP/1.1\r\n\r\n", 404),
    (b"POST /healthz HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc", 405),
    (b"POST /compile HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]", 400),
])


@FUZZ
@given(first=ROUTES, second=ROUTES)
def test_pipelined_pair_is_answered_in_order(port, first, second):
    """Two requests in one write: the bytes after the first head are
    the first body and then the second request, answered in order."""
    replies = exchange(port, [first[0] + second[0]])
    assert [reply[0] for reply in replies] == [first[1], second[1]]
    for (route, _), (_, _, body) in zip((first, second), replies):
        assert ("edge" in body) == route.startswith(b"GET /stats")


@FUZZ
@given(fields=FIELDS, keep=st.integers(0, 1 << 16))
def test_half_sent_head_then_close_is_dropped(port, fields, keep):
    """A head cut short by the peer's close is no request: no answer,
    and the server keeps serving."""
    head = head_with(fields)
    assert exchange(port, [head[:keep % (len(head) - 1)]]) == []
    assert_serving(port)


@pytest.mark.parametrize("head, status, message", [
    (b"GET\r\n\r\n", 400, "malformed HTTP request line"),
    (b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"b" * MAX_HEADER_BYTES +
     b"\r\n\r\n", 431, "headers too large"),
    (b"POST /healthz HTTP/1.1\r\n\r\n", 405, "/healthz is GET"),
    (b"DELETE /stats HTTP/1.1\r\n\r\n", 405, "/stats is GET"),
    (b"GET /deploy HTTP/1.1\r\n\r\n", 405, "/deploy is POST"),
], ids=["request line", "header block", "healthz", "stats", "deploy"])
def test_each_refusal_says_why(port, head, status, message):
    """One head per refusal the generators above need not draw: each
    is answered once, with its reason, and the server keeps
    serving."""
    replies = exchange(port, [head])
    assert_answered_once(replies, status)
    assert replies[0][2]["error"]["message"] == message
    assert_serving(port)
