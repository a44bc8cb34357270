"""Tests for HTTP request/response objects and size accounting."""

import pytest

from repro.appserver.http import (
    DEFAULT_RESPONSE_HEADER_BYTES,
    HttpRequest,
    HttpResponse,
)
from repro.errors import ConfigurationError


class TestHttpRequest:
    def test_url_sorts_params(self):
        request = HttpRequest("/catalog.jsp", {"b": "2", "a": "1"})
        assert request.url == "/catalog.jsp?a=1&b=2"

    def test_url_without_params(self):
        assert HttpRequest("/home.jsp").url == "/home.jsp"

    def test_same_url_different_users(self):
        """Bob and Alice: identical URL, different identity."""
        bob = HttpRequest("/catalog.jsp", {"c": "Fiction"}, user_id="bob")
        alice = HttpRequest("/catalog.jsp", {"c": "Fiction"}, user_id=None)
        assert bob.url == alice.url
        assert bob.user_id != alice.user_id

    def test_payload_bytes_counts_request_line_and_headers(self):
        request = HttpRequest("/x", header_bytes=100)
        # "GET /x HTTP/1.1\r\n" = 3 + 1 + 2 + 11 = 17
        assert request.payload_bytes == 17 + 100

    def test_payload_bytes_counts_utf8_bytes(self):
        # "GET /p?q=café HTTP/1.1\r\n": "é" is one character, two bytes.
        request = HttpRequest("/p", {"q": "café"}, header_bytes=0)
        assert request.payload_bytes == 3 + 1 + len("/p?q=caf") + 2 + 11
        assert request.payload_bytes == HttpRequest(
            "/p", {"q": "cafe"}, header_bytes=0
        ).payload_bytes + 1

    def test_url_is_injective_over_params(self):
        smuggled = HttpRequest("/p", {"a": "1&b=2"})
        honest = HttpRequest("/p", {"a": "1", "b": "2"})
        assert honest.url == "/p?a=1&b=2"
        assert smuggled.url == "/p?a=1%26b%3D2"
        assert HttpRequest("/p", {"a=1&b": "2"}).url != honest.url
        assert HttpRequest("/p", {"a": "%26"}).url == "/p?a=%2526"

    def test_url_is_rendered_once(self):
        request = HttpRequest("/catalog.jsp", {"b": "2", "a": "1"})
        assert request.url is request.url

    def test_path_must_be_absolute(self):
        with pytest.raises(ConfigurationError):
            HttpRequest("relative")

    def test_negative_header_rejected(self):
        with pytest.raises(ConfigurationError):
            HttpRequest("/x", header_bytes=-1)

    def test_param_with_default(self):
        request = HttpRequest("/x", {"a": "1"})
        assert request.param("a") == "1"
        assert request.param("zzz", "fallback") == "fallback"


class TestHttpResponse:
    def test_payload_is_body_plus_headers(self):
        response = HttpResponse(body="x" * 100)
        assert response.body_bytes == 100
        assert response.payload_bytes == 100 + DEFAULT_RESPONSE_HEADER_BYTES

    def test_utf8_body_bytes(self):
        assert HttpResponse(body="é", header_bytes=0).payload_bytes == 2

    def test_custom_header_bytes(self):
        assert HttpResponse(body="ab", header_bytes=10).payload_bytes == 12

    def test_negative_header_rejected(self):
        with pytest.raises(ConfigurationError):
            HttpResponse(body="", header_bytes=-1)

    def test_meta_annotations(self):
        response = HttpResponse(body="", meta={"hits": 3})
        assert response.meta["hits"] == 3
