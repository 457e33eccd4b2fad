"""``to_utc_ms`` against the two-step normalization it replaced."""

from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from ocedf.timeutil import to_utc_ms


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
