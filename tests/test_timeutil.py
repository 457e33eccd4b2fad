"""``to_utc_ms`` against the two-step normalization it replaced,
``parse_with_format`` against ``strptime`` alone, and ``parse_iso`` against
a reference written out here."""

from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ocedf import DataError, timeutil
from ocedf.timeutil import parse_block, parse_iso, parse_with_format, to_utc_ms
from reference_extraction import parse_with_format as reference_parse
from test_extraction import BAD_TIMES, GOOD_TIMES


def reference_to_utc_ms(dt: datetime) -> datetime:
    """The normalization as it was: to UTC first, then truncate to milliseconds."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    else:
        dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=(dt.microsecond // 1000) * 1000)


# Fixed offsets down to the microsecond, which move the sub-millisecond part.
OFFSETS = st.timedeltas(min_value=-timedelta(hours=23, minutes=59),
                        max_value=timedelta(hours=23, minutes=59)).map(timezone)
ZONES = st.none() | st.just(timezone.utc) | OFFSETS | st.just(timezone(timedelta(0), "Z"))
DATETIMES = st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30), timezones=ZONES)
WHOLE_MS = DATETIMES.map(lambda dt: dt.replace(microsecond=dt.microsecond - dt.microsecond % 1000))


def normalized(dt: datetime) -> bool:
    return dt.tzinfo is timezone.utc and dt.microsecond % 1000 == 0


@given(dt=DATETIMES | WHOLE_MS)
@settings(max_examples=500, deadline=None)
def test_matches_the_reference(dt):
    got = to_utc_ms(dt)
    want = reference_to_utc_ms(dt)
    assert got == want
    assert (got.year, got.month, got.day, got.hour, got.minute, got.second, got.microsecond) == \
        (want.year, want.month, want.day, want.hour, want.minute, want.second, want.microsecond)
    assert normalized(got)
    assert to_utc_ms(got) is got
    if normalized(dt):
        assert got is dt


def test_normalized_input_is_returned_as_it_is():
    dt = datetime(2024, 9, 2, 10, 0, 0, 123000, tzinfo=timezone.utc)
    assert to_utc_ms(dt) is dt
    for other in (dt.replace(tzinfo=None), dt.replace(microsecond=123456),
                  dt.astimezone(timezone(timedelta(hours=2)))):
        assert to_utc_ms(other) is not other and normalized(to_utc_ms(other))


# -- parse_with_format's fast path against strptime ---------------------------

PLAIN = "%Y-%m-%d %H:%M:%S"
# Formats other than the plain one, some matching its shape with other fields.
OTHER_FORMATS = ["%Y-%d-%m %H:%M:%S", "%Y-%m-%d %M:%H:%S", "%Y-%m-%dT%H:%M:%S",
                 "%Y-%m-%d %H:%M:%S%z", "%Y-%m-%d %H:%M", "%d/%m/%Y %H:%M:%S"]
# ASCII digits, and digits of other scripts that strptime's \\d matches.
DIGITS = st.sampled_from("0123456789") | st.sampled_from("\u0661\u0664\u0669\uff10\uff15\u096b")
SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\u3000"])


def _field(width: int):
    """A number printed in ``width`` digits, or unpadded, or with any digits."""
    return (st.integers(0, 10 ** width - 1).map(lambda n: f"{n:0{width}d}")
            | st.integers(0, 10 ** width - 1).map(str)
            | st.lists(DIGITS, min_size=1, max_size=width + 1).map("".join))


@st.composite
def timestamps(draw):
    """Text of about the plain shape: out-of-range, unpadded and non-ASCII
    fields, surrounding whitespace, and a trailing ``Z``, offset or fraction."""
    y, mo, d, h, mi, sec = (draw(_field(w)) for w in (4, 2, 2, 2, 2, 2))
    suffix = draw(st.sampled_from(["", "", "", "Z", "+00:00", "+02:00", ".5", ":00"]))
    return f"{draw(SPACES)}{y}-{mo}-{d} {h}:{mi}:{sec}{suffix}{draw(SPACES)}"


def _parse_outcome(parse, text: str, fmt: str):
    try:
        return parse(text, fmt)
    except DataError as exc:
        return str(exc)


@given(text=timestamps(), fmt=st.sampled_from([PLAIN, PLAIN, PLAIN, *OTHER_FORMATS]))
@example(text="2024-13-01 10:00:00", fmt=PLAIN)
@example(text="2023-02-29 10:00:00", fmt=PLAIN)
@example(text="2024-02-30 10:00:00", fmt=PLAIN)
@example(text="2024-09-02 24:00:00", fmt=PLAIN)
@example(text="2024-09-02 10:00:60", fmt=PLAIN)
@example(text="2024-09-02 10:00:61", fmt=PLAIN)
@example(text="0000-01-01 00:00:00", fmt=PLAIN)
@example(text="2024-9-2 8:08:00", fmt=PLAIN)
@example(text="\uff12\uff10\uff12\uff14-09-02 10:00:00", fmt=PLAIN)
@example(text=" 2024-09-02 10:00:00\n", fmt=PLAIN)
@example(text="2024-09-02 10:00:00Z", fmt=PLAIN)
@example(text="2024-09-02 10:00:00+02:00", fmt=PLAIN)
@example(text="2024-09-02 10:00:00", fmt="%Y-%d-%m %H:%M:%S")
@settings(max_examples=600, deadline=None)
def test_parse_with_format_matches_strptime(text, fmt):
    got = _parse_outcome(parse_with_format, text, fmt)
    assert got == _parse_outcome(reference_parse, text, fmt)
    if isinstance(got, datetime):
        assert got.tzinfo is timezone.utc and got.microsecond % 1000 == 0


@pytest.mark.parametrize("text, fmt, fast, slow", [
    ("2024-09-02 10:00:00", PLAIN, True, False),
    ("  2024-09-02 10:00:00 ", PLAIN, False, True),   # padding leaves the plain shape
    ("2024-02-30 10:00:00", PLAIN, True, True),    # the fast path fails, strptime words the error
    ("2024-9-2 8:08:00", PLAIN, False, True),
    ("2024-09-02 10:00:00", "%Y-%d-%m %H:%M:%S", False, True),
    ("2024-09-02T10:00:00", "%Y-%m-%dT%H:%M:%S", False, True),
])
def test_fast_path_taken_only_for_the_plain_shape(text, fmt, fast, slow):
    """In a block of one, ``fromisoformat`` runs only for text of the plain
    shape, and ``strptime`` only for other text or when that parse fails."""
    with mock.patch.object(timeutil, "datetime", wraps=datetime) as spy:
        _parse_outcome(lambda t, f: parse_block([t], f), text, fmt)
    assert (spy.fromisoformat.called, spy.strptime.called) == (fast, slow)


# -- parse_block against parse_with_format, text by text ------------------------

PARSER_CASES = sorted({
    *(t for ts in GOOD_TIMES.values() for t in ts), *BAD_TIMES,
    " 2024-09-02 10:00:00", "2024-09-02 10:00:00 ", "\t2024-09-02 10:00:00\n", "\u30002024-09-02 10:00:00",
    "\u0662\u0660\u0662\u0664-\u0660\u0669-\u0660\u0662 \u0661\u0660:\u0660\u0660:\u0660\u0660",
    "\uff12\uff10\uff12\uff14-09-02 10:00:00", "2024-09-02 1\u0660:00:00",
    "2024-02-30 10:00:00", "2023-02-29 10:00:00", "2024-13-01 10:00:00", "2024-00-10 10:00:00",
    "0000-01-01 00:00:00", "2024-09-02 10:60:00", "2024-W36-1 10:00:00", "2024-09-02T10:00:00",
    "20240902 10:00:00.5", "2024-09-02 10:00:0.", "2024-09-02 +1:00:00", "2024-09-02 10:00:00.5",
})
# Any text of the plain shape's length with its separators at their places.
SHAPE_CHARS = st.sampled_from("0123456789" * 4 + "WTZ+-:., \t\u0661\uff10")
PLAIN_SHAPES = st.lists(SHAPE_CHARS, min_size=14, max_size=14).map(
    lambda c: "".join(c[:4]) + "-" + "".join(c[4:6]) + "-" + "".join(c[6:8]) + " " + "".join(c[8:10])
    + ":" + "".join(c[10:12]) + ":" + "".join(c[12:]))
# Texts that fromisoformat reads but that are not of the plain shape (the
# first four have its length), and texts that hold a newline, which the
# plain block's join must not hide.
OTHER_ISO_SHAPES = ["2024-W36-1 10:00:00", "2024-09-02 100000.0", "2024-09-02 10:00.00", "20240902 10:00:00.5",
                    "2024-09-02T10:00:00", "2024-09-02 10:00", "2024-09-02 10:00:00.123", "2024-09-02 10",
                    "20240902T100000", "2024-09-02", "2024-09-02\n10:00:00", "2024-09-02 10:00:0",
                    "2024-09-02 10:00:00\n2024-09-02 10:00:00", "2024-09-02 10:00:00\n", ""]
BLOCK_TEXTS = st.sampled_from(["2024-09-02 10:00:00", "2024-02-29 23:59:59", *OTHER_ISO_SHAPES]) \
    | PLAIN_SHAPES | timestamps()


def _outcomes(parse, texts: list[str]):
    """Each text's datetime with its tzinfo, or the error's message."""
    try:
        return [(dt, dt.tzinfo) for dt in parse(texts)]
    except DataError as exc:
        return str(exc)


def _assert_parse_block_agrees(texts: list[str], fmt: str) -> None:
    """``parse_block`` reads each text as ``parse_with_format`` and the
    strptime reference read it, or raises the first failing text's error."""
    got = _outcomes(lambda ts: parse_block(ts, fmt), texts)
    assert got == _outcomes(lambda ts: [parse_with_format(t, fmt) for t in ts], texts), texts
    assert got == _outcomes(lambda ts: [reference_parse(t, fmt) for t in ts], texts), texts


@pytest.mark.parametrize("fmt", [*GOOD_TIMES, *OTHER_FORMATS])
def test_parse_block_gives_what_parse_with_format_gives(fmt):
    """Each case alone, the cases the format reads as one block, as they are
    and stripped, and all the cases, which raise the first bad one's error."""
    read = [t for t in PARSER_CASES if isinstance(_outcomes(lambda ts: [reference_parse(t, fmt)], [t]), list)]
    for texts in (*([t] for t in PARSER_CASES), read, [t.strip() for t in read], PARSER_CASES):
        _assert_parse_block_agrees(texts, fmt)


@given(texts=st.lists(BLOCK_TEXTS, max_size=8), fmt=st.sampled_from([PLAIN, PLAIN, PLAIN, *OTHER_FORMATS]))
@example(texts=["2024-W36-1 10:00:00"], fmt=PLAIN)
@example(texts=["2024-09-02 10:00:00", "2024-02-29 23:59:59"], fmt=PLAIN)
@example(texts=["2024-09-02 10:00:00", "2024-9-2 8:08:00", "2024-09-02 10:00:00\n"], fmt=PLAIN)
@settings(max_examples=800, deadline=None)
def test_parse_block_matches_parse_with_format_on_drawn_blocks(texts, fmt):
    _assert_parse_block_agrees(texts, fmt)


# -- parse_iso against its reference ------------------------------------------


def reference_parse_iso(text: str) -> datetime:
    """The reference for ``parse_iso``: reject a value that is not a ``str``,
    strip, read a ``Z``/``z`` suffix as ``+00:00``, parse, normalize."""
    if not isinstance(text, str):
        raise DataError(f"timestamp {text!r} is not a string")
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        return to_utc_ms(datetime.fromisoformat(cleaned))
    except ValueError as exc:
        raise DataError(f"unparseable timestamp {text!r}: {exc}") from None


TIMESPECS = ["auto", "hours", "minutes", "seconds", "milliseconds", "microseconds"]


@st.composite
def iso_texts(draw):
    """A datetime's ``isoformat`` at some ``timespec``, naive or at any offset;
    half the time with a ``Z``/``z`` suffix, in place of a ``+00:00`` offset
    or after any other; with whitespace around it or none."""
    dt = draw(DATETIMES | WHOLE_MS)
    text = dt.isoformat(sep=draw(st.sampled_from("T ")), timespec=draw(st.sampled_from(TIMESPECS)))
    suffix = draw(st.sampled_from(["", "", "Z", "z"]))
    if suffix and text.endswith("+00:00"):
        text = text[:-6]
    text += suffix
    return draw(st.sampled_from(["", " ", "\n", "\t "])) + text + draw(st.sampled_from(["", " ", "\r\n"]))


NOT_TEXT = st.sampled_from([None, 5, 1.5, b"2024-09-02T10:00:00+00:00",
                            datetime(2024, 9, 2, tzinfo=timezone.utc)])


def _iso_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@given(text=iso_texts() | st.text(max_size=40) | NOT_TEXT)
@example(text="2024-09-02T10:00:00.123+00:00")
@example(text="2024-09-02T10:00:00.123456+00:00")
@example(text="2024-09-02T10:00:00Z")
@example(text="2024-09-02T10:00:00z")
@example(text=" 2024-09-02T10:00:00+00:00")
@example(text="2024-09-02T10:00:00-00:00")
@example(text="2024-09-02T12:00:00+02:00")
@example(text="2024-09-02T10:00:00")
@example(text="2024-09-02")
@example(text="2024-09-02T10:00:00+00:00Z")
@example(text="")
@example(text=None)
@settings(max_examples=800, deadline=None)
def test_parse_iso_matches_the_path_without_its_fast_path(text):
    got = _iso_outcome(parse_iso, text)
    assert got == _iso_outcome(reference_parse_iso, text)
    if isinstance(got, datetime):
        assert got.tzinfo is timezone.utc and to_utc_ms(got) is got


@pytest.mark.parametrize("value", [None, 5, 1.5, ["2024-09-02"], b"2024-09-02T10:00:00+00:00",
                                   datetime(2024, 9, 2, tzinfo=timezone.utc)])
def test_parse_iso_names_a_value_that_is_not_a_string(value):
    with pytest.raises(DataError) as err:
        parse_iso(value)
    assert str(err.value) == f"timestamp {value!r} is not a string"


@pytest.mark.parametrize("text, want", [
    ("2024-01-01T10:00:00.5Z", datetime(2024, 1, 1, 10, 0, 0, 500_000, timezone.utc)),
    ("2024-01-01T10:00:00+0000", datetime(2024, 1, 1, 10, tzinfo=timezone.utc)),
    ("20240101T100000Z", datetime(2024, 1, 1, 10, tzinfo=timezone.utc)),
])
def test_parse_iso_reads_the_forms_python_3_11_reads(text, want):
    """Fractions of any length, offsets without a colon and the basic
    format: ``datetime.fromisoformat`` reads these from Python 3.11 on, the
    floor ``pyproject.toml`` declares."""
    assert parse_iso(text) == want
