"""Single-process open-loop client for ``repro serve``.

Requests are sent on a Poisson schedule fixed before the phase starts,
whether or not earlier ones have been answered, over one pipelined
connection speaking the service's JSON-lines protocol.  Each request
is timed from the moment it was due, so a stall also counts against
the requests queued behind it; how late the generator itself ran is
reported, and a phase whose generator fell behind is not trusted.
Shed, quarantined and expired requests are not retried: they count as
failed.
"""

from __future__ import annotations

import json
import random
import select
import socket
import time
from dataclasses import dataclass, field
from typing import Any

from repro.records.model import PatientRecord
from repro.runtime.service import record_to_dict


@dataclass
class PhaseResult:
    rate: float
    sent: int = 0
    #: request id -> seconds from due time to response
    latency: dict[str, float] = field(default_factory=dict)
    #: request id -> raw ``result`` object of an ok response
    results: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: request id -> error kind of a failed response
    failed: dict[str, str] = field(default_factory=dict)
    late_max_s: float = 0.0
    #: request id -> seconds since the phase start it was due
    due: dict[str, float] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        return sum(1 for kind in self.failed.values()
                   if kind == "overloaded")


def schedule(count: int, rate: float, seed: int) -> list[float]:
    """Poisson arrival offsets in seconds from the phase start."""
    rng = random.Random(seed)
    offsets, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def run_phase(
    address: tuple[str, int],
    records: list[PatientRecord],
    rate: float,
    seed: int,
    idle_timeout_s: float = 60.0,
) -> PhaseResult:
    """Offer *records* at *rate* per second and collect every answer."""
    lines = [
        (json.dumps({
            "op": "extract",
            "id": record.patient_id,
            "record": record_to_dict(record),
        }) + "\n").encode()
        for record in records
    ]
    ids = [record.patient_id for record in records]
    offsets = schedule(len(records), rate, seed)
    out = PhaseResult(rate=rate, sent=len(records))
    due_at: dict[str, float] = {}
    with socket.create_connection(address) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffer = b""
        start = time.monotonic() + 0.05
        nxt = 0
        last_progress = time.monotonic()
        while nxt < len(lines) or len(out.latency) < nxt:
            now = time.monotonic()
            while nxt < len(lines) and start + offsets[nxt] <= now:
                conn.sendall(lines[nxt])
                due_at[ids[nxt]] = start + offsets[nxt]
                out.due[ids[nxt]] = offsets[nxt]
                out.late_max_s = max(
                    out.late_max_s, now - (start + offsets[nxt])
                )
                nxt += 1
                now = time.monotonic()
            wait = (
                start + offsets[nxt] - now
                if nxt < len(lines)
                else 1.0
            )
            ready, _, _ = select.select([conn], [], [], max(wait, 0.0))
            if not ready:
                if (
                    nxt == len(lines)
                    and time.monotonic() - last_progress > idle_timeout_s
                ):
                    raise TimeoutError(
                        f"{nxt - len(out.latency)} requests unanswered "
                        f"after {idle_timeout_s:.0f}s"
                    )
                continue
            data = conn.recv(1 << 20)
            if not data:
                raise ConnectionError("service closed the connection")
            arrived = time.monotonic()
            last_progress = arrived
            buffer += data
            *complete, buffer = buffer.split(b"\n")
            for line in complete:
                message = json.loads(line)
                request_id = message["id"]
                out.latency[request_id] = arrived - due_at[request_id]
                if message.get("ok"):
                    out.results[request_id] = message["result"]
                else:
                    out.failed[request_id] = message["error"]["kind"]
    return out


def shutdown(address: tuple[str, int]) -> None:
    """Ask the service to drain and exit."""
    with socket.create_connection(address) as conn:
        conn.sendall(b'{"op": "shutdown", "id": "drain"}\n')
        conn.recv(1 << 16)
