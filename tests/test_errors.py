"""Exceptions survive pickling, so a library caller may send them through
a process pool of its own."""

import pickle

import pytest

from slopespectra.errors import (
    CollinearTriple,
    DuplicatePoints,
    NotConvexPosition,
    ParseError,
)


@pytest.mark.parametrize("exc,attrs", [
    (DuplicatePoints(0, 2), {"indices": (0, 2)}),
    (ParseError(3, "cannot parse coordinate 'x'"), {"line_no": 3}),
    (NotConvexPosition(4), {"index": 4}),
    (CollinearTriple((1, 2, 5)), {"witness": (1, 2, 5)}),
])
def test_pickle_round_trip(exc, attrs):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    for name, value in attrs.items():
        assert getattr(back, name) == value
