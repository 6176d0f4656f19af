"""Message bus between the coordinator and its shard workers.

The sharded runtime talks to each per-region recognition worker over a
duplex channel carrying ``(kind, payload)`` tuples — ``"init"`` /
``"restore"`` / ``"feed"`` / ``"query"`` / ``"shutdown"`` downstream,
``"ready"`` / ``"snapshot"`` / ``"heartbeat"`` / ``"error"`` / ``"bye"``
upstream.  :class:`ShardBus` keeps the coordinator's end of every
channel and addresses one shard per ``send``; fanning a feed batch out
to every shard is the runtime's loop over them.

The wire itself is abstracted behind :class:`Transport` /
:class:`Endpoint` so the stdlib :class:`PipeTransport`
(``multiprocessing.Pipe``) can later be swapped for a ZeroMQ
PUB/SUB + PUSH/PULL transport (the `Mundolel__Distribuidos` /DSCEP
deployment shape) without touching the runtime, the workers or the
supervisor.  Transport failures — a dead peer, a closed pipe — are
normalised to :class:`ShardConnectionLost` so the supervisor has a
single signal for "this worker is gone".
"""

from __future__ import annotations

import abc
import multiprocessing
from typing import Any, Optional

__all__ = [
    "ShardConnectionLost",
    "Message",
    "Endpoint",
    "Transport",
    "PipeEndpoint",
    "PipeTransport",
    "ShardBus",
]

#: One bus message: a kind tag plus a JSON-able/picklable payload dict.
Message = tuple[str, dict]


class ShardConnectionLost(RuntimeError):
    """The transport to a peer died (EOF, broken pipe, closed fd)."""


class Endpoint(abc.ABC):
    """One end of a duplex shard channel."""

    @abc.abstractmethod
    def send(self, message: Message) -> None:
        """Send one message; raises :class:`ShardConnectionLost` when
        the peer is gone."""

    @abc.abstractmethod
    def recv(self) -> Message:
        """Block for the next message; raises
        :class:`ShardConnectionLost` on EOF."""

    @abc.abstractmethod
    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a message is ready within ``timeout`` seconds."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the endpoint (idempotent)."""


class Transport(abc.ABC):
    """Factory for duplex channels; the ZeroMQ seam."""

    @abc.abstractmethod
    def pair(self) -> tuple[Endpoint, Endpoint]:
        """A fresh ``(coordinator_end, worker_end)`` channel pair.

        The worker end must survive being shipped to a child process
        (for :class:`PipeTransport`, via the multiprocessing pickler).
        """


class PipeEndpoint(Endpoint):
    """An :class:`Endpoint` over one ``multiprocessing.Connection``."""

    def __init__(self, connection):
        self._connection = connection

    def send(self, message: Message) -> None:
        try:
            self._connection.send(message)
        except (BrokenPipeError, OSError) as error:
            raise ShardConnectionLost(f"send failed: {error}") from error

    def recv(self) -> Message:
        try:
            return self._connection.recv()
        except EOFError as error:
            raise ShardConnectionLost("peer closed the channel") from error
        except (BrokenPipeError, OSError) as error:
            raise ShardConnectionLost(f"recv failed: {error}") from error

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            return self._connection.poll(timeout)
        except (BrokenPipeError, EOFError, OSError) as error:
            raise ShardConnectionLost(f"poll failed: {error}") from error

    def close(self) -> None:
        try:
            self._connection.close()
        except OSError:
            pass


class PipeTransport(Transport):
    """Stdlib transport: duplex ``multiprocessing.Pipe`` channels.

    Parameters
    ----------
    context:
        The multiprocessing context the worker processes are spawned
        from (``fork`` / ``spawn`` / ``forkserver``); defaults to the
        interpreter's default context.
    """

    def __init__(self, context=None):
        self._context = context or multiprocessing.get_context()

    def pair(self) -> tuple[Endpoint, Endpoint]:
        ours, theirs = self._context.Pipe(duplex=True)
        return PipeEndpoint(ours), PipeEndpoint(theirs)


class ShardBus:
    """The coordinator's view of all shard channels.

    Holds the coordinator-side endpoint per shard; :meth:`send`
    addresses one shard.
    """

    def __init__(self, transport: Transport):
        self.transport = transport
        self._endpoints: dict[str, Endpoint] = {}

    def open_channel(self, shard: str) -> Endpoint:
        """Create a channel for ``shard``; returns the *worker* end to
        hand to the new process (the coordinator end is attached)."""
        ours, theirs = self.transport.pair()
        old = self._endpoints.get(shard)
        if old is not None:
            old.close()
        self._endpoints[shard] = ours
        return theirs

    def endpoint(self, shard: str) -> Endpoint:
        """The coordinator-side endpoint for ``shard``."""
        return self._endpoints[shard]

    def detach(self, shard: str) -> None:
        """Close and forget the channel for ``shard`` (idempotent)."""
        endpoint = self._endpoints.pop(shard, None)
        if endpoint is not None:
            endpoint.close()

    # ------------------------------------------------------------------
    def send(self, shard: str, kind: str, **payload: Any) -> None:
        """Send one message to one shard."""
        self._endpoints[shard].send((kind, payload))

    def close(self) -> None:
        """Close every channel."""
        for shard in list(self._endpoints):
            self.detach(shard)
