"""Unix-socket transport: framing, teardown, and stop semantics."""

import os
import socket as _socket
import threading

import pytest

from repro.serve.client import SocketClient
from repro.serve.engine import run_session
from repro.serve.protocol import ERR_PROTOCOL, encode_message, line_limit
from repro.serve.service import PlacementService
from repro.serve.socket import ServeDaemon
from tests.serve.conftest import inline_config, tiny_spec, tiny_traffic


@pytest.fixture
def daemon(tmp_path):
    path = str(tmp_path / "serve.sock")
    svc = PlacementService(inline_config(tmp_path))
    daemon = ServeDaemon(svc, path)
    thread = threading.Thread(
        target=lambda: setattr(daemon, "drained",
                               daemon.run(handle_signals=False)),
        daemon=True)
    thread.start()
    assert daemon.ready.wait(10), "daemon never came up"
    daemon.thread = thread
    yield daemon
    daemon.request_stop()
    thread.join(timeout=15)


class TestSocketTransport:
    def test_session_over_socket_is_bit_identical(self, daemon):
        spec = tiny_spec("alice")
        trace, times = tiny_traffic(seed=7, spec=spec)
        with SocketClient(daemon.path) as client:
            result = client.run(spec, trace, times, chunk_size=128)
        assert result.sha == run_session(spec, trace, times).sha

    def test_concurrent_connections(self, daemon):
        errors = []

        def one(tenant, seed):
            try:
                spec = tiny_spec(tenant)
                trace, times = tiny_traffic(seed=seed, spec=spec)
                with SocketClient(daemon.path) as client:
                    result = client.run(spec, trace, times)
                batch = run_session(spec, trace, times)
                assert result.sha == batch.sha
            except Exception as exc:  # noqa: BLE001 — collected below
                errors.append((tenant, repr(exc)))

        threads = [threading.Thread(target=one, args=(t, i))
                   for i, t in enumerate(["a", "b", "c"])]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []

    def test_garbage_line_answers_then_drops(self, daemon):
        sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(daemon.path)
        reader = sock.makefile("rb")
        sock.sendall(b"this is not json\n")
        from repro.serve.protocol import decode_line

        resp = decode_line(reader.readline())
        assert resp["error"] == ERR_PROTOCOL
        assert reader.readline() == b""  # connection dropped
        sock.close()
        # The daemon survives and serves the next connection.
        with SocketClient(daemon.path) as client:
            assert client.stats()["counts"] == {}

    def test_stop_unlinks_socket_and_reports_states(self, tmp_path):
        path = str(tmp_path / "stop.sock")
        svc = PlacementService(inline_config(tmp_path))
        daemon = ServeDaemon(svc, path)
        out = {}
        thread = threading.Thread(
            target=lambda: out.update(
                states=daemon.run(handle_signals=False)),
            daemon=True)
        thread.start()
        assert daemon.ready.wait(10)
        spec = tiny_spec("alice")
        trace, times = tiny_traffic(spec=spec)
        with SocketClient(path) as client:
            client.run(spec, trace, times)
        daemon.request_stop()
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert out["states"] == {"done": 1}
        assert not os.path.exists(path)

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        stale = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()  # leaves the filesystem entry behind
        svc = PlacementService(inline_config(tmp_path))
        daemon = ServeDaemon(svc, path)
        thread = threading.Thread(
            target=daemon.run, kwargs={"handle_signals": False},
            daemon=True)
        thread.start()
        assert daemon.ready.wait(10), "stale socket blocked the daemon"
        with SocketClient(path) as client:
            assert client.stats()["states"] == {}
        daemon.request_stop()
        thread.join(timeout=15)


def _start(tmp_path, name, **overrides):
    svc = PlacementService(inline_config(tmp_path, **overrides))
    daemon = ServeDaemon(svc, str(tmp_path / name))
    thread = threading.Thread(
        target=daemon.run, kwargs={"handle_signals": False}, daemon=True)
    thread.start()
    assert daemon.ready.wait(10), "daemon never came up"
    return daemon, thread


class TestLineLimit:
    """Request lines up to the largest legal append are read whole."""

    def test_largest_legal_append_fits_the_limit(self):
        n = 256
        worst = {"op": "append", "session": "t" * 64 + "-999999",
                 "seq": 2**31, "core": [63] * n,
                 "address": [2**63 - 1] * n, "write": [False] * n,
                 "gap": [2**32 - 1] * n,
                 "times": [2.2250738585072014e-308] * n}
        assert len(encode_message(worst)) <= line_limit(n)

    def test_large_append_is_acknowledged(self, daemon):
        spec = tiny_spec("big")
        trace, times = tiny_traffic(seed=3, accesses=2_048, spec=spec)
        with SocketClient(daemon.path) as client:
            sid = client.open(spec)
            assert client.append(sid, 0, trace, times)["ok"]
            client.commit(sid)
            result = client.wait(sid)
        assert result.sha == run_session(spec, trace, times).sha

    def test_oversized_line_errors_and_connection_survives(self, tmp_path):
        daemon, thread = _start(tmp_path, "limit.sock",
                                max_chunk_accesses=16)
        try:
            spec = tiny_spec("over")
            trace, times = tiny_traffic(seed=5, accesses=16, spec=spec)
            with SocketClient(daemon.path) as client:
                sid = client.open(spec)
                # Three times the limit: the skip spans several reads.
                filler = "x" * (3 * daemon.limit)
                resp = client.request({"op": "append", "session": sid,
                                       "pad": filler})
                assert resp["error"] == ERR_PROTOCOL
                assert "limit" in resp["detail"]
                # Same connection: framing resynchronised, session intact.
                assert client.append(sid, 0, trace, times)["ok"]
                client.commit(sid)
                assert client.wait(sid).sha \
                    == run_session(spec, trace, times).sha
        finally:
            daemon.request_stop()
            thread.join(timeout=15)
