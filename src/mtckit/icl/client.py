"""Completion-service clients: a live HTTP client and a replay client.

The wire protocol is a single JSON POST to a configurable base URL with a
flat body ``{model, prompt | messages, temperature, max_tokens}``; the
``model`` is the client's own, the decoding settings come with each
request. The completion text is read from ``choices[0].text`` (prompt
mode) or ``choices[0].message.content`` (messages mode), falling back to a
top-level ``text`` key. The API key comes from the ``MTC_API_KEY``
environment variable unless given explicitly.

The replay client serves canned responses from a fixtures directory keyed
by a stable hash of the prompt bytes, which makes whole extraction runs
reproducible byte-for-byte and testable offline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "MTC_API_KEY"


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 256


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
    """Stable hex key of a prompt's UTF-8 bytes (replay fixture filename)."""
    # Imported here: its OpenSSL pages cost megabytes of resident memory in
    # every process that imports the package, and only replay fixtures are
    # keyed by this hash.
    import hashlib

    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ReplayClient:
    """Serves responses from ``<fixtures_dir>/<prompt_fingerprint>.txt``."""

    def __init__(self, fixtures_dir: str | Path):
        self.fixtures_dir = Path(fixtures_dir)
        self._prefix = os.path.join(self.fixtures_dir, "")

    def _path(self, prompt: str) -> Path:
        return self.fixtures_dir / f"{prompt_fingerprint(prompt)}.txt"

    def store(self, prompt: str, response_text: str) -> Path:
        """Write a fixture for ``prompt``; returns the fixture path."""
        self.fixtures_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(prompt)
        path.write_text(response_text, encoding="utf-8")
        return path

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """The fixture's text, as ``Path.read_text(encoding="utf-8")`` returns it.

        A fixture that is missing, unreadable or not UTF-8 raises
        :class:`ServiceError`.
        """
        name = f"{prompt_fingerprint(request.prompt)}.txt"
        try:
            data = _read_file(self._prefix + name)
        except FileNotFoundError:
            raise ServiceError(f"no replay fixture {name} in {self.fixtures_dir}") from None
        except OSError as exc:
            raise ServiceError(f"cannot read replay fixture {name} in {self.fixtures_dir}: {exc}") from None
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError(f"replay fixture {name} in {self.fixtures_dir} is not UTF-8: {exc}") from None
        if "\r" in text:
            # Universal newlines, as text-mode reading applies them.
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return CompletionResponse(text)


#: Bytes asked for per read; a fixture is one short answer.
_READ_SIZE = 4096


def _read_file(path: str) -> bytes:
    """Whole contents of a regular file, read without a buffered file object.

    A short read from a regular file marks its end, so a fixture smaller
    than ``_READ_SIZE`` costs one ``open``, one ``read`` and one ``close``.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = [os.read(fd, _READ_SIZE)]
        while len(chunks[-1]) == _READ_SIZE:
            chunks.append(os.read(fd, _READ_SIZE))
        return b"".join(chunks)
    finally:
        os.close(fd)


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
