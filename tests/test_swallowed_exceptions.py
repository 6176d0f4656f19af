"""Every fallback is counted: no ``except`` under ``src/`` swallows
silently unless it is listed here with the reason it may.

An ``except`` whose whole body is ``pass`` / ``continue`` leaves no
trace of what it caught.  The walk below finds every one; each must be
on :data:`ALLOWED` — ``(file, enclosing function) -> why no counter is
needed`` — and the list must not outlive the handlers it names.  The
two handlers of ``shard/runtime.py`` that used to be on it count
instead; the tests at the bottom pin their counters.
"""

import ast
from pathlib import Path

import repro
from repro.core import Event
from repro.obs import Registry
from repro.shard import ShardedRuntime
from repro.shard.runtime import ShardHandle

SRC = Path(repro.__file__).parent

ALLOWED = {
    ("ioutils.py", "atomic_write_bytes"): (
        "cleanup of the temporary file on the way out of a failure "
        "that is re-raised"
    ),
    ("shard/bus.py", "close"): "closing an endpoint that is already closed",
    ("shard/worker.py", "shard_worker_main"): (
        "the error report to a coordinator that went away; the exit "
        "code is what the coordinator counts (shard.deaths)"
    ),
    ("streams/xmlconfig.py", "coerce_attribute"): (
        "not an int / not a float: the next coercion is tried, and the "
        "string itself is the answer"
    ),
}


def _silent_handlers():
    """``(file, function, line)`` of every handler that only passes."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.ExceptHandler) and all(
                    isinstance(stmt, (ast.Pass, ast.Continue))
                    for stmt in node.body
                ):
                    yield (
                        path.relative_to(SRC).as_posix(),
                        function.name,
                        node.lineno,
                    )


def test_every_silent_except_is_on_the_allowlist():
    handlers = list(_silent_handlers())
    found = {(file, function) for file, function, _ in handlers}
    unlisted = sorted(
        f"{file}:{line} in {function}()"
        for file, function, line in handlers
        if (file, function) not in ALLOWED
    )
    assert not unlisted, (
        "these handlers swallow without a trace — count what they "
        f"catch, or list the reason in ALLOWED: {unlisted}"
    )
    assert not set(ALLOWED) - found, "ALLOWED names a handler that is gone"


class _Gone:
    """A worker process that has exited."""

    exitcode = 1

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


def _runtime_with_a_dead_worker(tmp_path):
    metrics = Registry()
    runtime = ShardedRuntime(["north"], metrics=metrics, directory=tmp_path)
    runtime.bus.open_channel("north").close()  # the worker's end
    runtime.handles["north"] = ShardHandle(
        "north", _Gone(), runtime.bus.endpoint("north")
    )
    return runtime, metrics


def test_a_feed_sent_to_a_dead_worker_is_counted(tmp_path):
    runtime, metrics = _runtime_with_a_dead_worker(tmp_path)
    runtime.publish_feed(1, [Event("crowd", 310, {"value": "positive"})])
    assert metrics.counters()["shard.feed.dropped_sends"] == 1
    runtime.shutdown()


def test_an_unanswered_shutdown_handshake_is_counted(tmp_path):
    runtime, metrics = _runtime_with_a_dead_worker(tmp_path)
    assert runtime.shutdown() == []
    assert metrics.counters()["shard.shutdown.unanswered"] == 1
    assert not runtime.handles
