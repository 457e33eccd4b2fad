"""Timestamp parsing/formatting helpers.

All timestamps in a log are timezone-aware, normalized to UTC and truncated
to millisecond precision. Naive inputs are assumed to be UTC.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone

from .errors import DataError

# The format most sources use, and the one shape of it parsed without strptime.
_PLAIN_SECONDS = "%Y-%m-%d %H:%M:%S"
_PLAIN_SECONDS_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")


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

    Fast path: when ``datetime.fromisoformat`` reads ``text`` as it is, in
    UTC and whole milliseconds (as ``format_iso`` writes it), that very
    datetime is returned, since normalizing it would return it too. Any other
    text, a failure of that parse included, is stripped, a ``Z``/``z`` suffix
    read as ``+00:00``, parsed by the same ``fromisoformat`` and normalized
    by ``to_utc_ms``, so every result and error is what that path gives."""
    try:
        dt = datetime.fromisoformat(text)
    except (TypeError, ValueError):
        pass
    else:
        if dt.tzinfo is timezone.utc and not dt.microsecond % 1000:
            return dt
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        return to_utc_ms(datetime.fromisoformat(cleaned))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r}: {exc}") from None


def parse_with_format(text: str, fmt: str) -> datetime:
    """Parse with a strftime pattern; naive results are assumed UTC.

    Fast path: with ``fmt`` ``%Y-%m-%d %H:%M:%S`` and a stripped ``text`` of
    exactly that shape in ASCII digits (``2024-09-02 10:00:00``), the time is
    read as UTC by ``datetime.fromisoformat``, which gives what ``strptime``
    gives there. Any other text, and a field out of range on the fast path,
    falls back to ``strptime``, so every error carries its message."""
    cleaned = text.strip()
    if fmt == _PLAIN_SECONDS and _PLAIN_SECONDS_SHAPE.fullmatch(cleaned):
        try:   # the offset makes the result aware, so to_utc_ms has nothing to copy
            return to_utc_ms(datetime.fromisoformat(cleaned + "+00:00"))
        except ValueError:
            pass
    try:
        return to_utc_ms(datetime.strptime(cleaned, fmt))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r} for format {fmt!r}: {exc}") from None


def format_iso(dt: datetime) -> str:
    """Render as ISO-8601 with explicit UTC offset and millisecond precision."""
    return to_utc_ms(dt).isoformat(timespec="milliseconds")
