"""Completion-service clients: a live HTTP client and a replay client.

The wire protocol is a single JSON POST to a configurable base URL with a
flat body ``{model, prompt | messages, temperature, max_tokens}``; the
``model`` is the client's own, the decoding settings come with each
request. The completion text is read from ``choices[0].text`` (prompt
mode) or ``choices[0].message.content`` (messages mode), falling back to a
top-level ``text`` key. The API key comes from the ``MTC_API_KEY``
environment variable unless given explicitly.

The replay client serves canned responses from one UTF-8 JSON-lines
fixtures file of ``{"fingerprint": <sha256 hex of the prompt bytes>,
"text": <response>}`` records, which makes whole extraction runs
reproducible byte-for-byte and testable offline. The file is read once,
when the client is built, into one table; a bad line fails that load as a
:class:`~mtckit.tables.FileFormatError` naming ``path:line``, and a later
line for the same fingerprint wins. ``store`` appends one line. The table
in memory maps the raw 32-byte sha256 digest, not its hex form, to one
:class:`CompletionResponse` per distinct text, which every fixture with
that text shares. A call looks up its request's
:attr:`~CompletionRequest.fingerprint`, which ``extract`` computes from
the hashed prompt prefix, so such a call hashes nothing itself; the file
format stays the same, with hex fingerprints, and a call builds the hex
form only to name a missing fixture.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

from ..tables import read_lines, universal_newlines

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "MTC_API_KEY"


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call's prompt and decoding settings.

    Frozen, with the dataclass's ``==``, ``hash`` and ``repr``. One is
    built per call, so its ``__init__`` is written out: it takes the
    generated one's parameters and fills the instance ``__dict__``
    directly, where the generated one of a frozen class sets each field
    through ``object.__setattr__``.
    """

    prompt: str
    temperature: float = 0.0
    max_tokens: int = 256

    def __init__(self, prompt: str, temperature: float = 0.0, max_tokens: int = 256) -> None:
        fields = self.__dict__
        fields["prompt"] = prompt
        fields["temperature"] = temperature
        fields["max_tokens"] = max_tokens

    @cached_property
    def fingerprint(self) -> bytes:
        """Raw sha256 digest of the prompt's UTF-8 bytes (the replay fixture key).

        Computed on first read and kept in the instance ``__dict__`` under
        this name; :func:`~mtckit.icl.extract.extract` puts it there when it
        builds the request, from its prompt prefix's kept hash state. It is
        not a field, so equality, hashing and ``repr`` ignore it; the
        request is frozen, so it cannot be assigned. A prompt that is not
        strict UTF-8 raises ``UnicodeEncodeError`` on every read.
        """
        import hashlib  # here, not at module level: see prompt_fingerprint

        return hashlib.sha256(self.prompt.encode("utf-8")).digest()


@dataclass(frozen=True)
class CompletionResponse:
    text: str


class ServiceError(RuntimeError):
    """A completion call failed (after retries, for retryable failures)."""

    def __init__(self, message: str, status: int | None = None, attempt: int = 1):
        super().__init__(message)
        self.status = status
        self.attempt = attempt


class CompletionClient(Protocol):
    def complete(self, request: CompletionRequest) -> CompletionResponse: ...


def prompt_fingerprint(prompt: str) -> str:
    """Stable hex key of a prompt's UTF-8 bytes (the replay fixture key)."""
    # Imported here: its OpenSSL pages cost megabytes of resident memory in
    # every process that imports the package, and only replay fixtures are
    # keyed by this hash.
    import hashlib

    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


_FINGERPRINT = re.compile("[0-9a-f]{64}")


def _fixture_row(line: str) -> tuple[bytes, str]:
    record = json.loads(line)
    if not (
        isinstance(record, dict)
        and record.keys() == {"fingerprint", "text"}
        and isinstance(record["fingerprint"], str)
        and _FINGERPRINT.fullmatch(record["fingerprint"])
        and isinstance(record["text"], str)
    ):
        raise ValueError('expected {"fingerprint": <sha256 hex>, "text": <string>}')
    return bytes.fromhex(record["fingerprint"]), universal_newlines(record["text"])


class ReplayClient:
    """Serves responses from a JSON-lines fixtures file, read once when built.

    A missing file is an empty table. A file that cannot be read raises
    ``OSError``, and a bad line :class:`~mtckit.tables.FileFormatError`.
    """

    def __init__(self, path: str | Path):
        import hashlib  # here, not at module level: see prompt_fingerprint

        self._sha256 = hashlib.sha256
        self.path = Path(path)
        try:
            rows = read_lines(self.path, _fixture_row)
        except FileNotFoundError:
            rows = []
        self._shared: dict[str, CompletionResponse] = {}
        self._responses: dict[bytes, CompletionResponse] = {
            digest: self._response(text) for digest, text in rows
        }

    def _response(self, text: str) -> CompletionResponse:
        """The one response this client serves for ``text``."""
        response = self._shared.get(text)
        if response is None:
            response = self._shared[text] = CompletionResponse(text)
        return response

    def store(self, prompt: str, response_text: str) -> Path:
        """Append a fixture for ``prompt`` to the file; returns the file path.

        A ``response_text`` that is not a ``str`` raises ``TypeError`` and
        writes nothing.
        """
        if not isinstance(response_text, str):
            raise TypeError(f"response_text must be a string, got {type(response_text).__name__}")
        digest = self._sha256(prompt.encode("utf-8")).digest()
        # The bytes json.dumps gives for the record, without its slower dict path.
        line = f'{{"fingerprint": "{digest.hex()}", "text": {json.dumps(response_text)}}}\n'
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o666)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o666)
        try:
            # One write per line: an appended line is never interleaved.
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        self._responses[digest] = self._response(universal_newlines(response_text))
        return self.path

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """The stored response for the prompt; a missing fingerprint raises :class:`ServiceError`."""
        digest = request.fingerprint
        response = self._responses.get(digest)
        if response is None:
            raise ServiceError(f"no replay fixture {digest.hex()} in {self.path}")
        return response


class HttpCompletionClient:
    """Live client with bounded retries and exponential backoff.

    Server errors (5xx) and transport failures are retried up to
    ``max_attempts`` with backoff ``backoff * 2**attempt`` seconds; client
    errors (4xx) fail immediately. ``max_attempts`` below 1 raises ``ValueError``.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        use_messages: bool = False,
        timeout: float = 60.0,
        max_attempts: int = 3,
        backoff: float = 1.0,
        session: requests.Session | None = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
        self.base_url = base_url
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.use_messages = use_messages
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        if session is None:
            # Imported here, not at module level: most runs use the replay
            # client, and importing requests takes longer than the package.
            import requests

            session = requests.Session()
        self._session = session

    def _body(self, request: CompletionRequest) -> dict:
        body: dict = {
            "model": self.model,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if self.use_messages:
            body["messages"] = [{"role": "user", "content": request.prompt}]
        else:
            body["prompt"] = request.prompt
        return body

    def _extract_text(self, data: object) -> str:
        if not isinstance(data, dict):
            raise ServiceError("response body is not a JSON object")
        choices = data.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            choice = choices[0]
            if self.use_messages:
                message = choice.get("message", {})
                if isinstance(message, dict) and isinstance(message.get("content"), str):
                    return message["content"]
            if isinstance(choice.get("text"), str):
                return choice["text"]
        if isinstance(data.get("text"), str):
            return data["text"]
        raise ServiceError("completion text not found in response body")

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = self._body(request)
        last_error: ServiceError | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                response = self._session.post(
                    self.base_url, json=body, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = ServiceError(f"request failed: {exc}", attempt=attempt)
            else:
                if response.status_code >= 500:
                    last_error = ServiceError(
                        f"server error {response.status_code}",
                        status=response.status_code,
                        attempt=attempt,
                    )
                elif response.status_code >= 400:
                    raise ServiceError(
                        f"client error {response.status_code}: {response.text[:200]}",
                        status=response.status_code,
                        attempt=attempt,
                    )
                else:
                    try:
                        data = response.json()
                    except ValueError:
                        raise ServiceError("response body is not JSON", attempt=attempt) from None
                    return CompletionResponse(self._extract_text(data))
            if attempt < self.max_attempts:
                time.sleep(self.backoff * 2 ** (attempt - 1))
        raise last_error
