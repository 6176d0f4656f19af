"""Tests for the shard message bus and its transport abstraction."""

import pytest

from repro.shard import (
    PipeTransport,
    ShardBus,
    ShardConnectionLost,
)


class TestPipeTransport:
    def test_pair_roundtrip_both_directions(self):
        ours, theirs = PipeTransport().pair()
        ours.send(("query", {"step": 3, "q": 900}))
        assert theirs.recv() == ("query", {"step": 3, "q": 900})
        theirs.send(("snapshot", {"region": "north"}))
        assert ours.recv() == ("snapshot", {"region": "north"})
        ours.close()
        theirs.close()

    def test_poll_reports_readiness(self):
        ours, theirs = PipeTransport().pair()
        assert not ours.poll(0.0)
        theirs.send(("heartbeat", {}))
        assert ours.poll(1.0)
        ours.recv()
        assert not ours.poll(0.0)
        ours.close()
        theirs.close()

    def test_peer_close_normalised_to_connection_lost(self):
        ours, theirs = PipeTransport().pair()
        theirs.close()
        with pytest.raises(ShardConnectionLost):
            ours.recv()

    def test_endpoint_close_is_idempotent(self):
        ours, theirs = PipeTransport().pair()
        ours.close()
        ours.close()
        theirs.close()


class TestShardBus:
    def test_send_addresses_one_shard(self):
        bus = ShardBus(PipeTransport())
        worker_ends = {
            region: bus.open_channel(region) for region in ("north", "south")
        }
        bus.send("north", "query", step=1, q=300)
        assert worker_ends["north"].recv() == ("query", {"step": 1, "q": 300})
        assert not worker_ends["south"].poll(0.0)
        bus.close()

    def test_open_channel_replaces_previous_channel(self):
        bus = ShardBus(PipeTransport())
        first = bus.open_channel("north")
        second = bus.open_channel("north")
        bus.send("north", "query", step=9, q=2700)
        assert second.recv() == ("query", {"step": 9, "q": 2700})
        with pytest.raises(ShardConnectionLost):
            first.recv()  # old channel was closed on replacement
        assert sorted(bus._endpoints) == ["north"]
        bus.close()

    def test_detach_forgets_the_shard(self):
        bus = ShardBus(PipeTransport())
        bus.open_channel("north")
        bus.detach("north")
        bus.detach("north")  # idempotent
        assert sorted(bus._endpoints) == []
        with pytest.raises(KeyError):
            bus.send("north", "query", step=0, q=0)
