"""Tests for data-item helpers."""

import pytest

from repro.streams import SOURCE_KEY, item_arrival

from .helpers import make_item


class TestMakeItem:
    def test_stamps_reserved_keys(self):
        item = make_item({"x": 1}, time=10, arrival=12, source="bus")
        assert item_arrival(item) == 12
        assert item[SOURCE_KEY] == "bus"
        assert item["x"] == 1

    def test_partial_stamps(self):
        item = make_item({"x": 1}, time=10)
        assert item_arrival(item) == 10  # falls back to event time

    def test_unstamped_time_raises(self):
        with pytest.raises(KeyError):
            item_arrival(make_item({"x": 1}))
