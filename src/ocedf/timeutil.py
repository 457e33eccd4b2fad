"""Timestamp parsing/formatting helpers.

All timestamps in a log are timezone-aware, normalized to UTC and truncated
to millisecond precision. Naive inputs are assumed to be UTC.
"""

from __future__ import annotations

from datetime import datetime, timezone
from itertools import repeat
from operator import add

from .errors import DataError

# The format most sources use, and its one shape parsed without strptime (_plain_block).
_PLAIN_SECONDS = "%Y-%m-%d %H:%M:%S"


def to_utc_ms(dt: datetime) -> datetime:
    """Normalize to UTC and truncate microseconds to whole milliseconds.

    A datetime that is already normalized is returned as it is, so normalizing
    a stored time again costs no copy."""
    tz = dt.tzinfo
    if tz is not None and tz is not timezone.utc:
        dt = dt.astimezone(timezone.utc)
    sub_ms = dt.microsecond % 1000
    if tz is None or sub_ms:
        return dt.replace(tzinfo=timezone.utc, microsecond=dt.microsecond - sub_ms)
    return dt


def as_utc(dt: datetime) -> datetime:
    """``dt`` with a naive time read as UTC. Unlike ``to_utc_ms`` it keeps the
    precision, so a bound compares exactly with stored times."""
    return dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt


def parse_iso(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; a trailing ``Z`` is accepted for UTC.

    ``text`` is stripped, a ``Z``/``z`` suffix read as ``+00:00``, parsed by
    ``datetime.fromisoformat`` and normalized by ``to_utc_ms``, which returns
    a time already in UTC and whole milliseconds (as ``format_iso`` writes
    it) as it is. A ``text`` that is not a ``str`` raises ``DataError``."""
    if not isinstance(text, str):
        raise DataError(f"timestamp {text!r} is not a string")
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        return to_utc_ms(datetime.fromisoformat(cleaned))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r}: {exc}") from None


def parse_with_format(text: str, fmt: str) -> datetime:
    """Parse the stripped ``text`` with a strftime pattern by ``strptime``;
    naive results are assumed UTC. A block of cells is read by
    ``parse_block``, which skips ``strptime`` for the plain format."""
    try:
        return to_utc_ms(datetime.strptime(text.strip(), fmt))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r} for format {fmt!r}: {exc}") from None


def _plain_block(texts: list[str]) -> list[datetime] | None:
    """Each of ``texts`` read as UTC by ``datetime.fromisoformat``, when each
    has the plain shape: 19 characters with the plain format's separators at
    their places. Otherwise None.

    The shape is checked over the texts joined by newlines, with no call per
    text: the join holds only its own k - 1 newlines, each 19 characters
    after the last, so no text holds one and each has 19 characters; the
    separators are at their places in every text. Then ``fromisoformat``
    reads the six fields as ASCII digits in range, as ``YYYY-MM-DD
    HH:MM:SS``, or raises ``ValueError``, which gives None. The ``+00:00``
    offset makes each result aware, in ``timezone.utc`` itself and in whole
    seconds, so it is normalized as it is."""
    k, joined = len(texts), "\n".join(texts)
    if not (len(joined) == 20 * k - 1 and joined.count("\n") == k - 1 and joined[19::20] == "\n" * (k - 1)
            and all(joined[i::20] == sep * k for i, sep in zip(range(4, 19, 3), "-- ::"))):
        return None
    try:
        return [*map(datetime.fromisoformat, map(add, texts, repeat("+00:00")))]
    except ValueError:
        return None


def parse_block(texts: list[str], fmt: str) -> list[datetime]:
    """``[parse_with_format(t, fmt) for t in texts]``, raising the first
    failing text's error. A block of the plain format whose texts all have
    the plain shape is read by ``_plain_block`` at once, with no call per
    text; any other block is read text by text."""
    if fmt == _PLAIN_SECONDS and (whens := _plain_block(texts)) is not None:
        return whens
    return [*map(parse_with_format, texts, repeat(fmt))]


def format_iso(dt: datetime) -> str:
    """Render as ISO-8601 with explicit UTC offset and millisecond precision."""
    return to_utc_ms(dt).isoformat(timespec="milliseconds")
