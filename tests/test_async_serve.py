"""Asyncio serving front-end: protocol, parity, cancellation, backpressure.

What ISSUE 7 pins down:

* the NDJSON wire protocol round-trips requests and tensors losslessly
  (base64 float64, sha256 digests);
* the loopback socket path in deterministic-replay (barrier) mode is
  byte-identical to the in-process :meth:`PadeEngine.serve` call on the
  same workload — same outputs, same retained sets, same round-clock
  report;
* every cancellation path — cancel while queued, cancel during a
  chunked prefill, client disconnect mid-stream — frees every pool
  block and surfaces ``abort_reason="cancelled"`` through the async
  layer;
* admission backpressure rejects with the right reason (``overloaded``,
  ``too-large``, ``duplicate``, ``shutting-down``) without touching the
  scheduler;
* graceful shutdown drains in-flight work, reports zero leaked blocks,
  and carries the wall-clock latency columns in its report.

Everything runs on a loopback socket inside one event loop, so the
tests can poll live scheduler state between rounds (the engine loop
yields at every round boundary).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np
import pytest

from repro.engine import PadeEngine
from repro.eval.workloads import build_engine_request, build_serving_workload
from repro.serve.client import (
    ServeConnection,
    run_closed_loop,
    serve_workload_over_loopback,
)
from repro.serve.protocol import (
    array_digest,
    decode_message,
    decode_request,
    encode_message,
    encode_request,
    result_digests,
)
from repro.serve.server import AsyncPadeServer


def _req(rid, context=16, steps=4, arrival=0.0, seed=0):
    return build_engine_request(
        rid, 2, context, steps, head_dim=8, seed=seed, arrival_time=arrival
    )


async def _wait_for(pred, timeout=10.0, what="condition"):
    """Poll ``pred`` across engine-loop round boundaries."""
    deadline = time.perf_counter() + timeout
    while not pred():
        if time.perf_counter() - deadline > 0:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(0.001)


async def _start(engine=None, **kwargs):
    kwargs.setdefault("max_active", 2)
    kwargs.setdefault("token_budget", 512)
    kwargs.setdefault("block_size", 8)
    server = AsyncPadeServer(engine or PadeEngine(), **kwargs)
    await server.start()
    return server


async def _graceful_stop(server):
    conn = await ServeConnection.open(server.host, server.port)
    try:
        ack = await conn.shutdown()
    finally:
        await conn.close()
    await server.stop()
    return ack


class TestProtocol:
    def test_message_roundtrip(self):
        msg = {"type": "token", "request_id": "r0", "step": 3, "digest": "ab"}
        line = encode_message(msg)
        assert line.endswith(b"\n")
        assert decode_message(line) == msg

    def test_request_roundtrip_is_lossless(self):
        req = build_engine_request(
            "rt", 2, 12, 3, head_dim=8, seed=7, arrival_time=2.5,
            tenant="t1", priority=2, deadline_ms=80.0, max_queue_ms=10.0,
        )
        back = decode_request(encode_request(req))
        assert back.request_id == req.request_id
        assert back.arrival_time == req.arrival_time
        assert back.tenant == req.tenant
        assert back.priority == req.priority
        assert back.deadline_ms == req.deadline_ms
        assert back.max_queue_ms == req.max_queue_ms
        for a, b in zip(req.k, back.k):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(req.decode_q, back.decode_q):
            np.testing.assert_array_equal(a, b)

    def test_arrival_override(self):
        req = _req("ov", arrival=1.0)
        assert decode_request(encode_request(req), arrival_time=9.0).arrival_time == 9.0

    def test_array_digest_tracks_bytes(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert array_digest(a) == array_digest(a.copy())
        b = a.copy()
        b[0, 0] += 1e-12
        assert array_digest(a) != array_digest(b)


class _ReplyDuringDrainWriter:
    """Writer stub whose ``drain()`` delivers the server's reply to a
    submit and returns only once the connection's router has handled it
    — the reply-before-drain-returns ordering a fast server can produce."""

    def __init__(self, reader):
        self.reader = reader
        self.conn = None
        self.sent = []

    def write(self, data):
        self.sent.append(decode_message(data))

    async def drain(self):
        msg = self.sent[-1]
        if msg["type"] != "submit":
            return
        rid = msg["request"]["request_id"]
        self.reader.feed_data(encode_message({"type": "accepted", "request_id": rid}))
        await _wait_for(lambda: rid not in self.conn._accept, what="the router")

    def close(self):
        self.reader.feed_eof()

    async def wait_closed(self):
        pass


class TestClient:
    def test_submit_survives_reply_during_drain(self):
        async def run():
            reader = asyncio.StreamReader()
            writer = _ReplyDuringDrainWriter(reader)
            conn = writer.conn = ServeConnection(reader, writer)
            try:
                reply = await asyncio.wait_for(conn.submit(_req("early")), timeout=10)
            finally:
                await conn.close()
            assert reply == {"type": "accepted", "request_id": "early"}
            # The stub server never finishes the request; closing fails it.
            with pytest.raises(ConnectionError):
                await conn.result("early")

        asyncio.run(run())


class TestParity:
    def test_loopback_replay_matches_in_process(self):
        workload = build_serving_workload(5, 2, 24, 4, 8, rate=0.5, seed=3)
        kwargs = dict(max_active=2, token_budget=512, block_size=8)
        dones, ack, _server = serve_workload_over_loopback(
            PadeEngine(), workload, barrier=True, **kwargs
        )
        engine = PadeEngine()
        results = engine.serve(workload, **kwargs)
        assert set(dones) == set(results)
        for rid, res in results.items():
            expected = result_digests(res)
            assert dones[rid]["output_digest"] == expected["output_digest"]
            assert dones[rid]["retained_digest"] == expected["retained_digest"]
            # The streamed tokens are the decode outputs, step by step.
            steps = [tok["step"] for tok in dones[rid]["tokens"]]
            assert steps == sorted(set(steps))
            for tok in dones[rid]["tokens"]:
                assert tok["digest"] == array_digest(res.decode_outputs[:, tok["step"], :])
            # Round-clock timing over the socket matches in-process.
            assert dones[rid]["timing"]["finish_time"] == res.finish_time
            assert dones[rid]["timing"]["first_token_time"] == res.first_token_time
        assert ack["leaked_blocks"] == 0

    def test_wall_marks_are_monotone_per_request(self):
        workload = build_serving_workload(4, 2, 16, 3, 8, rate=1.0, seed=5)
        dones, ack, _server = serve_workload_over_loopback(
            PadeEngine(), workload, barrier=False, concurrency=2,
            max_active=2, token_budget=512, block_size=8,
        )
        for done in dones.values():
            wall = done["wall"]
            assert 0 <= wall["arrival"] <= wall["admit"] <= wall["first_token"] <= wall["finish"]
        report = ack["report"]
        assert report["n_wall_ttft_ms"] == float(len(workload))


class TestCancellation:
    def test_cancel_while_queued(self):
        async def run():
            server = await _start(max_active=1)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                assert (await conn.submit(_req("active", steps=12), arrival="now"))[
                    "type"
                ] == "accepted"
                assert (await conn.submit(_req("queued", steps=2), arrival="now"))[
                    "type"
                ] == "accepted"
                # Wait until the first request holds the only active slot
                # and the second sits in the scheduler queue.
                await _wait_for(
                    lambda: any(s.request.request_id == "active" for s in server.scheduler.active)
                    and any(r.request_id == "queued" for _, r in server.scheduler.pending),
                    what="queued request behind the active one",
                )
                await conn.cancel("queued")
                done = await conn.result("queued")
                assert done["status"] == "aborted"
                assert done["abort_reason"] == "cancelled"
                assert conn.tokens.get("queued", []) == []
                active = await conn.result("active")
                assert active["status"] == "ok"
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0
            assert server.results["queued"].abort_reason == "cancelled"

        asyncio.run(run())

    def test_cancel_during_chunked_prefill(self):
        async def run():
            server = await _start(
                max_active=2, token_budget=512, block_size=8,
                round_token_budget=4, chunk_tokens=4,
            )
            conn = await ServeConnection.open(server.host, server.port)
            try:
                req = _req("chunked", context=48, steps=4)
                assert (await conn.submit(req, arrival="now"))["type"] == "accepted"

                def mid_prefill():
                    for state in server.scheduler.active:
                        if state.request.request_id == "chunked" and state.prefilling:
                            return getattr(state.cache, "prefill_remaining", 0) < req.prompt_tokens
                    return False

                await _wait_for(mid_prefill, what="a partially prefilled chunked request")
                await conn.cancel("chunked")
                done = await conn.result("chunked")
                assert done["status"] == "aborted"
                assert done["abort_reason"] == "cancelled"
                assert conn.tokens.get("chunked", []) == []
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_disconnect_mid_stream_aborts_and_frees(self):
        async def run():
            server = await _start(max_active=1)
            conn = await ServeConnection.open(server.host, server.port)
            assert (await conn.submit(_req("gone", steps=40), arrival="now"))[
                "type"
            ] == "accepted"
            # Wait for the stream to actually start, then vanish without
            # a cancel message — the disconnect itself must abort it.
            await _wait_for(
                lambda: len(conn.tokens.get("gone", [])) >= 2,
                what="a few streamed tokens",
            )
            streamed = len(conn.tokens["gone"])
            await conn.close()
            await _wait_for(
                lambda: "gone" in server.results, what="the disconnect abort"
            )
            res = server.results["gone"]
            assert res.status == "aborted"
            assert res.abort_reason == "cancelled"
            assert streamed < 40  # it really was mid-stream
            ack = await _graceful_stop(server)
            assert ack["leaked_blocks"] == 0
            # The abort surfaces in the report's abort accounting.
            assert ack["report"]["aborted_requests"] == 1.0

        asyncio.run(run())

    def test_cancel_without_request_id_replies_error_and_keeps_connection(self):
        async def run():
            server = await _start()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                writer.write(encode_message({"type": "cancel"}))
                await writer.drain()
                reply = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                assert reply["type"] == "error"
                # The same connection still serves requests.
                writer.write(encode_message({"type": "stats"}))
                await writer.drain()
                reply = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                assert reply["type"] == "stats"
            finally:
                writer.close()
                await writer.wait_closed()
            await server.stop()

        asyncio.run(run())


class TestBackpressure:
    def test_overloaded_rejection_is_bounded_by_queue_limit(self):
        async def run():
            # Barrier above the queue limit: nothing drains, so the
            # accept queue really fills to its bound.
            server = await _start(queue_limit=2, start_barrier=99)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                assert (await conn.submit(_req("a")))["type"] == "accepted"
                assert (await conn.submit(_req("b")))["type"] == "accepted"
                reply = await conn.submit(_req("c"))
                assert reply["type"] == "rejected"
                assert reply["error"] == "overloaded"
            finally:
                await conn.close()
            ack = await _graceful_stop(server)  # drain opens the barrier
            assert ack["served"] == 2
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_too_large_rejection(self):
        async def run():
            server = await _start(token_budget=64, block_size=8)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                reply = await conn.submit(_req("huge", context=256, steps=8))
                assert reply["type"] == "rejected"
                assert reply["error"] == "too-large"
                assert not server.scheduler.pending
            finally:
                await conn.close()
            await server.stop()

        asyncio.run(run())

    def test_duplicate_rejection(self):
        async def run():
            server = await _start(start_barrier=99)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                assert (await conn.submit(_req("dup")))["type"] == "accepted"
                reply = await conn.submit(_req("dup"))
                assert reply["type"] == "rejected"
                assert reply["error"] == "duplicate"
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["served"] == 1

        asyncio.run(run())

    def test_submit_while_draining_is_rejected(self):
        async def run():
            server = await _start(max_active=1)
            conn = await ServeConnection.open(server.host, server.port)
            try:
                assert (await conn.submit(_req("inflight", steps=30), arrival="now"))[
                    "type"
                ] == "accepted"
                shutdown_conn = await ServeConnection.open(server.host, server.port)
                ack_task = asyncio.create_task(shutdown_conn.shutdown())
                await _wait_for(lambda: server._draining, what="drain to begin")
                reply = await conn.submit(_req("late"))
                assert reply["type"] == "rejected"
                assert reply["error"] == "shutting-down"
                done = await conn.result("inflight")
                assert done["status"] == "ok"  # in-flight work still drains
                ack = await ack_task
                assert ack["leaked_blocks"] == 0
                await shutdown_conn.close()
            finally:
                await conn.close()
            await server.stop()

        asyncio.run(run())


class TestGracefulShutdown:
    def test_closed_loop_clean_drain(self):
        workload = build_serving_workload(6, 2, 16, 3, 8, rate=0.5, seed=9)
        dones, ack, server = serve_workload_over_loopback(
            PadeEngine(), workload, barrier=False, concurrency=3,
            max_active=2, token_budget=512, block_size=8,
        )
        assert ack["served"] == len(workload)
        assert ack["leaked_blocks"] == 0
        assert all(d["status"] == "ok" for d in dones.values())
        assert all(len(d["tokens"]) == d["decode_tokens"] for d in dones.values())
        assert server.closed.is_set()
        report = ack["report"]
        for series in ("wall_ttft_ms", "wall_queueing_ms"):
            assert report[f"n_{series}"] == float(len(workload))
            assert report[f"p99_{series}"] >= report[f"p50_{series}"] >= 0.0

    def test_queue_limit_validation(self):
        with pytest.raises(ValueError, match="queue_limit"):
            AsyncPadeServer(PadeEngine(), queue_limit=0)


class TestInvalidRequests:
    def test_invalid_request_rejected_and_good_one_still_served(self):
        async def run():
            server = await _start()
            conn = await ServeConnection.open(server.host, server.port)
            try:
                good = _req("good", seed=1)
                poisoned = _req("nan", seed=2)
                k = poisoned.k.copy()
                k[0, 0, 0] = np.nan
                reply = await conn.submit(dataclasses.replace(poisoned, k=k))
                assert reply == {"type": "rejected", "request_id": "nan", "error": "invalid"}
                assert (await conn.submit(good))["type"] == "accepted"
                # A head count that differs from the first accepted request.
                wide = build_engine_request("wide", 3, 16, 4, head_dim=8, seed=3)
                assert (await conn.submit(wide))["error"] == "invalid"
                done = await conn.result("good")
                assert done["status"] == "ok"
            finally:
                await conn.close()
            ack = await _graceful_stop(server)
            assert ack["served"] == 1
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    @pytest.mark.parametrize("case", ["negative-arrival", "non-numeric-arrival", "bad-tensor"])
    def test_bad_submit_rejected_and_connection_survives(self, case):
        """A submit that cannot become a servable request is rejected on
        its own: its connection stays open, another client's request
        completes, and nothing leaks."""
        msg = {"type": "submit", "request": encode_request(_req("bad", seed=4))}
        if case == "negative-arrival":
            msg["arrival"] = -1
        elif case == "non-numeric-arrival":
            msg["arrival"] = "soon"
        else:
            msg["request"]["k"]["shape"] = [3, 3]

        async def run():
            server = await _start()
            other = await ServeConnection.open(server.host, server.port)
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                assert (await other.submit(_req("good", seed=1), arrival="now"))[
                    "type"
                ] == "accepted"
                writer.write(encode_message(msg))
                await writer.drain()
                reply = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                assert reply == {"type": "rejected", "request_id": "bad", "error": "invalid"}
                writer.write(encode_message({"type": "stats"}))
                await writer.drain()
                reply = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                assert reply["type"] == "stats"
                done = await asyncio.wait_for(other.result("good"), 10.0)
                assert done["status"] == "ok"
            finally:
                writer.close()
                await writer.wait_closed()
                await other.close()
            ack = await _graceful_stop(server)
            assert ack["served"] == 1
            assert ack["leaked_blocks"] == 0

        asyncio.run(run())

    def test_submit_without_request_replies_error_and_keeps_connection(self):
        async def run():
            server = await _start()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            try:
                for msg in ({"type": "submit"}, {"type": "submit", "request": {}}):
                    writer.write(encode_message(msg))
                    await writer.drain()
                    reply = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                    assert reply["type"] == "error"
                writer.write(encode_message({"type": "stats"}))
                await writer.drain()
                reply = decode_message(await asyncio.wait_for(reader.readline(), 10.0))
                assert reply["type"] == "stats"
            finally:
                writer.close()
                await writer.wait_closed()
            await server.stop()

        asyncio.run(run())


class TestConnectionLifecycle:
    def test_closed_connections_are_closed_and_forgotten(self):
        """A long-lived server keeps no socket of a client that left."""

        async def run():
            server = await _start()
            server_writers = []
            for _ in range(50):
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(encode_message({"type": "stats"}))
                await writer.drain()
                await asyncio.wait_for(reader.readline(), 10.0)
                # Connections are appended, so the newest is this one.
                server_writers.append(server._connections[-1].writer)
                writer.close()
                await writer.wait_closed()
            await _wait_for(
                lambda: not server._connections, timeout=5.0, what="every connection dropped"
            )
            assert all(w.transport.is_closing() for w in server_writers)
            await server.stop()

        asyncio.run(run())


class TestDoneDispatch:
    def test_round_touches_only_its_finished_ids(self):
        """Done dispatch reads the results of the requests that finished
        this round and nothing else — its cost does not grow with the
        number of requests served."""

        class _SpyResults(dict):
            def __init__(self):
                super().__init__()
                self.reads, self.scans = [], 0

            def __getitem__(self, key):
                self.reads.append(key)
                return super().__getitem__(key)

            def __iter__(self):
                self.scans += 1
                return super().__iter__()

            def items(self):
                self.scans += 1
                return super().items()

            def values(self):
                self.scans += 1
                return super().values()

        server = AsyncPadeServer(PadeEngine(), max_active=2, token_budget=512, block_size=8)
        scheduler = server.scheduler
        scheduler.start()
        spy = _SpyResults()
        scheduler._results = server.results = spy
        for i in range(6):
            scheduler.submit(_req(f"r{i}", steps=2 + i % 3, seed=i))
        finished_rounds = 0
        while True:
            before = set(spy)
            if not scheduler.step():
                break
            spy.reads.clear()
            spy.scans = 0
            server._dispatch_done()
            assert spy.scans == 0
            new = set(spy) - before
            assert sorted(spy.reads) == sorted(new)
            finished_rounds += bool(new)
        assert server._done_sent == {f"r{i}" for i in range(6)}
        assert finished_rounds >= 2
