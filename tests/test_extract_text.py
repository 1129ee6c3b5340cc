"""Byte-identity of ``extract_text_bytes`` against an independent reference.

The synthetic pages' ``text`` column is made by ``extract_text_bytes``
itself, so comparing the engine to it cannot catch a change in the
extractor.  Here the reference is the regex pipeline the extractor was
first written as, kept verbatim: whitespace collapsed by
``re.sub(rb"\\s+", b" ", s).strip()``.
"""
import re

import numpy as np
import pytest

from prclz_ray.io import synth
from prclz_ray.stages.extract_text import extract_text_bytes

_ENTITIES = [
    (b"&lt;", b"<"), (b"&gt;", b">"), (b"&quot;", b'"'),
    (b"&#39;", b"'"), (b"&amp;", b"&"),
]
ASCII_WS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
# bytes that neither a bytes-pattern \s nor bytes.split() treats as
# whitespace, though each is whitespace to str.split() as a code point
NOT_WS = [b"\x1c", b"\x1d", b"\x1e", b"\x1f", b"\x85", b"\xa0",
          b"\xc2\xa0", b"\xe3\x80\x80"]


def reference(html: bytes) -> str:
    s = re.sub(rb"<(script|style)\b.*?</\1>", b" ", html, flags=re.S | re.I)
    s = re.sub(rb"<[^>]*>", b" ", s)
    for ent, ch in _ENTITIES:
        s = s.replace(ent, ch)
    s = re.sub(rb"\s+", b" ", s).strip()
    return s.decode("utf-8", errors="replace")


def _check(html: bytes):
    assert extract_text_bytes(html) == reference(html), html


def test_whitespace_set_is_the_six_ascii_bytes():
    ws = [bytes([b]) for b in range(256) if re.fullmatch(rb"\s", bytes([b]))]
    assert sorted(ws) == sorted(ASCII_WS)


@pytest.mark.parametrize("w", ASCII_WS, ids=repr)
def test_each_ascii_whitespace_alone_and_in_runs(w):
    for n in (1, 2, 5):
        run = w * n
        for html in (run, b"a" + run + b"b", run + b"a" + run,
                     b"<p>a</p>" + run + b"<p>b</p>"):
            _check(html)
    _check(b"a" + b"".join(ASCII_WS) + w + b"b")


@pytest.mark.parametrize("b", NOT_WS, ids=repr)
def test_non_whitespace_bytes_survive(b):
    for html in (b, b"a" + b + b"c", b + b" a " + b, b + b"\n" + b,
                 b"<i>" + b + b"</i>"):
        _check(html)
    assert b.decode("utf-8", errors="replace") in extract_text_bytes(
        b"x " + b + b" y")


@pytest.mark.parametrize("html", [
    b"", b" ", b"\t\n\r\x0b\x0c ", b"<p></p>", b"<p> \n </p>",
    b"   lead", b"trail \n\t", b"\x0c\x0bboth\r\n",
], ids=repr)
def test_empty_and_edge_whitespace(html):
    _check(html)


@pytest.mark.parametrize("html", [
    b"<p>a</p><p>b</p>", b"<p> a </p>\n<p>\tb\t</p>",
    b"a<br>b", b"a <br/> b", b"<div\nclass='x'>\r\nbody\r\n</div>",
    b"x<script>var s = 'a  b';\n</script>y",
    b"x <STYLE type=\"t\">p {\n}</style> y",
    b"<script>\n</script>\t<style></style>",
    b"a &amp; b", b"a&lt;b&gt;c", b"&quot; &#39;", b"&amp;lt;",
    b"&nbsp;x", b" &amp; ", b"a\n&amp;\nb",
], ids=repr)
def test_tags_scripts_and_entities(html):
    _check(html)


@pytest.mark.parametrize("html", [
    b"\xff\xfe", b"a \xc3 b", b"\xe3\x80 x", b"\xc2\n\xa0", b"\x80\t\x80",
    b"<p>\xed\xa0\x80</p>",
], ids=repr)
def test_invalid_utf8(html):
    _check(html)


def test_seeded_random_byte_strings():
    rng = np.random.default_rng(20260517)
    # half uniform bytes, half drawn from the bytes that matter here
    alphabet = np.frombuffer(
        b" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\xc2\xe3\x80<>/&;#ltgampquos"
        b"criptyleabxyz39", dtype=np.uint8)
    for i in range(10_000):
        n = int(rng.integers(0, 48))
        pool = alphabet if i % 2 else np.arange(256, dtype=np.uint8)
        _check(rng.choice(pool, n).tobytes())


def test_synthetic_pages():
    pages = synth.pages_batch(np.arange(300), 300, body_paras=3)
    for html in pages["html"].to_pylist():
        _check(html)
