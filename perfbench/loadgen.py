"""Open-loop NDJSON load generator over one asyncio connection.

Built directly on :mod:`repro.serve.protocol` (``encode_message`` /
``encode_request`` / ``decode_message``) and asyncio streams rather than
``repro.serve.client.ServeConnection``, whose ``submit`` can lose the
``accepted`` reply of a large submit (README, known limits).

Every request is sent at its due time on the wall clock with
``arrival: "now"``; nothing waits for replies before the next send, so a
slow server faces a growing queue instead of a slower generator.  The
generator stamps, on one monotonic clock, when each request was due,
when it was actually sent (its lateness is reported, never hidden) and
when each ``token`` message arrived.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.protocol import MAX_LINE_BYTES, decode_message, encode_message, encode_request

from perfbench.metrics import RequestRecord

_PLACEHOLDER = "@@request-id@@"  # '@' never occurs in base64 or the other fields


def submit_parts(template) -> Tuple[bytes, bytes]:
    """A template's submit line split around its request id, so each sent
    request is ``head + id + tail`` without re-encoding the tensors."""
    msg = {
        "type": "submit",
        "arrival": "now",
        "request": encode_request(replace(template, request_id=_PLACEHOLDER)),
    }
    line = encode_message(msg)
    head, tail = line.split(json.dumps(_PLACEHOLDER).encode(), 1)
    return head + b'"', b'"' + tail


#: Least time (s) left before the next due time for an idle probe to start.
IDLE_WAIT_S = 0.02


async def send_schedule(
    writer, records: Sequence[RequestRecord], parts, start: float,
    on_idle: Optional[Callable[[int, float], Awaitable[None]]] = None,
) -> int:
    """Send every record at ``start + record.due``; returns bytes sent.

    Rewrites each ``record.due`` to the absolute due time and stamps
    ``record.sent`` when its write begins, so lateness is ``sent - due``.
    Before each wait, awaits ``on_idle(requests sent so far, next due
    time)``.
    """
    sent_bytes = 0
    for sent, rec in enumerate(records):
        rec.due = start + rec.due
        if on_idle is not None:
            await on_idle(sent, rec.due)
        delay = rec.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        rec.sent = time.perf_counter()
        head, tail = parts[rec.template]
        rid = rec.request_id.encode()
        writer.writelines((head, rid, tail))
        await writer.drain()
        sent_bytes += len(head) + len(rid) + len(tail)
    return sent_bytes


def lateness_ms(records: Sequence[RequestRecord]) -> List[float]:
    """How late the generator sent each request (0 when on time)."""
    return [max(0.0, (r.sent - r.due) * 1000.0) for r in records if r.sent is not None]


async def run_open_loop(
    host: str,
    port: int,
    records: List[RequestRecord],
    parts: Dict[str, Tuple[bytes, bytes]],
    idle_probe: Optional[Callable[[], None]] = None,
    lead_s: float = 0.2,
    settle_timeout_s: float = 60.0,
) -> dict:
    """Drive one open-loop run; returns wall, bytes and the shutdown ack.

    ``records`` carry due offsets (s) from the run start and are filled
    in place.  After every request settled (done or rejected) — or
    ``settle_timeout_s`` after the last send, leaving the rest
    unanswered — the client sends ``shutdown`` and waits for the ack
    with the server's leaked-block count.  ``idle_probe`` runs once every
    sent request has settled, if :data:`IDLE_WAIT_S` remain before the
    next due time, so it delays no message the run times.
    """
    reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
    by_id = {r.request_id: r for r in records}
    unsettled = set(by_id)
    settled = asyncio.Event()
    ack: asyncio.Future = asyncio.get_running_loop().create_future()
    last_done = [0.0]
    settled_count = [0]
    progress = asyncio.Event()

    def settle(rid: str, now: float) -> None:
        settled_count[0] += 1
        progress.set()
        unsettled.discard(rid)
        last_done[0] = now
        if not unsettled:
            settled.set()

    async def read() -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            now = time.perf_counter()
            msg = decode_message(line)
            kind = msg["type"]
            rec = by_id.get(msg.get("request_id"))
            if kind == "token" and rec is not None:
                rec.token_times.append(now)
            elif kind == "done" and rec is not None:
                rec.done = msg
                settle(rec.request_id, now)
            elif kind == "rejected" and rec is not None:
                rec.rejected = str(msg.get("error"))
                settle(rec.request_id, now)
            elif kind == "shutdown_ack" and not ack.done():
                ack.set_result(msg)

    reader_task = asyncio.create_task(read())
    try:
        start = time.perf_counter() + lead_s
        on_idle = None
        if idle_probe is not None:
            async def on_idle(sent: int, due: float) -> None:
                while settled_count[0] < sent:
                    budget = due - IDLE_WAIT_S - time.perf_counter()
                    if budget <= 0:
                        return
                    progress.clear()
                    try:
                        await asyncio.wait_for(progress.wait(), budget)
                    except asyncio.TimeoutError:
                        return
                if due - time.perf_counter() >= IDLE_WAIT_S:
                    idle_probe()

        sent_bytes = await send_schedule(writer, records, parts, start, on_idle)
        try:
            await asyncio.wait_for(settled.wait(), settle_timeout_s)
        except asyncio.TimeoutError:
            pass  # the rest stay unanswered and count as failures
        wall = (last_done[0] or time.perf_counter()) - start
        writer.write(encode_message({"type": "shutdown"}))
        await writer.drain()
        shutdown_ack: Optional[dict] = None
        try:
            shutdown_ack = await asyncio.wait_for(ack, settle_timeout_s)
        except asyncio.TimeoutError:
            pass  # the correctness gate reports the missing ack
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
        reader_task.cancel()
        try:
            await reader_task
        except (asyncio.CancelledError, ConnectionError):
            pass
    return {"wall_s": wall, "sent_bytes": sent_bytes, "ack": shutdown_ack}
