"""Asyncio unix-socket front-end for the placement daemon.

The event loop owns only transport concerns — framing newline-JSON
lines in and out of many concurrent connections.  Every decoded
request is dispatched to :meth:`PlacementService.handle` on the
default executor, because the service core is synchronous and may
block (a ``poll`` with ``wait``, a spool write); the loop itself never
stalls behind one slow tenant.

Shutdown is graceful by construction: SIGTERM/SIGINT set a stop event,
the listener closes (no new connections), and
:meth:`PlacementService.close` drains — committed sessions finish,
open streams abort with a durable reason, shared segments unlink.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading

from repro.serve.protocol import (
    ERR_PROTOCOL,
    ProtocolError,
    decode_line,
    encode_message,
    error_response,
    line_limit,
)


class ServeDaemon:
    """One daemon instance: a service bound to a unix-socket path.

    ``run()`` blocks until :meth:`request_stop` is called (thread-safe)
    or, when ``handle_signals`` is on, SIGTERM/SIGINT arrives.  The
    ``ready`` event lets a test thread wait for the listener before
    connecting.
    """

    def __init__(self, service, path: str) -> None:
        self.service = service
        self.path = str(path)
        #: Longest request line read; derived from the chunk cap so the
        #: largest legal append always fits.
        self.limit = line_limit(service.config.max_chunk_accesses)
        self.ready = threading.Event()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._stop: "asyncio.Event | None" = None
        self._conns: "set[tuple]" = set()  # (task, writer) per connection

    # -- control -------------------------------------------------------

    def run(self, handle_signals: bool = True) -> dict:
        """Serve until stopped; returns the drained session states."""
        asyncio.run(self._main(handle_signals))
        return self.service.close()

    def request_stop(self) -> None:
        """Ask a running daemon to shut down (callable from any thread)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed

    # -- event-loop side -----------------------------------------------

    async def _main(self, handle_signals: bool) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        if handle_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, RuntimeError):
                    pass  # not the main thread / unsupported platform
        if os.path.exists(self.path):
            os.unlink(self.path)  # stale socket from a killed daemon
        server = await asyncio.start_unix_server(
            self._serve_connection, path=self.path, limit=self.limit)
        self.ready.set()
        try:
            async with server:
                await self._stop.wait()
            # Hang up lingering connections and let their handler
            # tasks finish normally, so loop teardown never cancels a
            # handler mid-write (which asyncio logs as an error).
            for task, writer in list(self._conns):
                writer.close()
            tasks = [task for task, _ in self._conns]
            if tasks:
                await asyncio.wait(tasks, timeout=5.0)
        finally:
            self.ready.clear()
            try:
                os.unlink(self.path)
            except OSError:
                pass

    async def _serve_connection(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        entry = (asyncio.current_task(), writer)
        self._conns.add(entry)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF, maybe after a final line
                except asyncio.LimitOverrunError as exc:
                    # Framing survives an over-long line: skip through
                    # its newline, answer, and keep the connection.
                    await _skip_line(reader, exc.consumed)
                    writer.write(encode_message(error_response(
                        ERR_PROTOCOL, f"request line exceeds the "
                        f"{self.limit}-byte limit; split the append")))
                    await writer.drain()
                    continue
                if not line:
                    return
                try:
                    msg = decode_line(line)
                except ProtocolError as exc:
                    # Unframeable garbage: answer once, drop the
                    # connection — there is no session to quarantine
                    # and no way to resynchronise the stream.
                    writer.write(encode_message(
                        error_response(ERR_PROTOCOL, str(exc))))
                    await writer.drain()
                    return
                resp = await loop.run_in_executor(
                    None, self.service.handle, msg)
                writer.write(encode_message(resp))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # the tenant vanished; its sessions live on
        finally:
            self._conns.discard(entry)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass


async def _skip_line(reader, consumed: int) -> None:
    """Discard an over-long line through its newline.

    ``consumed`` bytes are buffered and known to precede the newline
    (see :class:`asyncio.LimitOverrunError`); drop them and retry until
    the remainder fits.
    """
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


def run_daemon(service, path: str, handle_signals: bool = True) -> dict:
    """Convenience wrapper: serve ``service`` on ``path`` until stopped."""
    return ServeDaemon(service, path).run(handle_signals=handle_signals)
