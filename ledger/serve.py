"""``serve-hot``: two closed-loop connections against a server child process.

The load generator is this one process; each connection sends its next
statement only when the previous reply has fully arrived.  Latency is what
``QueryClient.execute_with_retry`` takes at the client, refusals included.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lang.parser import parse_statement
from repro.lang.session import Session
from repro.server import QueryClient
from repro.server.protocol import encode_message

from . import bench, instances
from .bench import ROOT, ROUND_SECONDS, Sample, median_ms
from .instances import Instance, Op
from .spans import Tracer

CONNECTIONS = 2
WARMUP = 100
#: Statements per second on the reference box; sizes the fixed traced pass.
RATE = 700.0
#: Statements of a ``--smoke`` traced round.
SMOKE_OPS = 12


class ServerChild:
    """The fixture process: started on enter, drained and reaped on exit."""

    def __init__(self, seed: int, smoke: bool) -> None:
        command = [sys.executable, "-m", "ledger.serve_fixture", "--seed", str(seed)]
        if smoke:
            command.append("--smoke")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.report: Dict[str, object] = {}
        try:
            self.port = int(json.loads(self.process.stdout.readline())["port"])
        except (ValueError, KeyError) as exc:
            self.close()
            raise RuntimeError("the server fixture did not start") from exc

    def close(self) -> None:
        """Close stdin (the drain signal), read the report, wait for exit."""
        if self.process.poll() is None:
            try:
                output, _ = self.process.communicate(timeout=20)
                self.report = json.loads(output.strip().splitlines()[-1])
            except (subprocess.TimeoutExpired, ValueError, IndexError):
                self.process.kill()
                self.process.communicate()


def observe(op: Op, document: dict):
    """The answer a reply carries, in the oracle's terms."""
    if op.verb == "exists":
        return document["payload"]["answer"]
    if op.verb == "count":
        return document["payload"]["row_count"]
    return document["rows"]


class Load:
    """The connections and the op stream they share."""

    def __init__(self, instance: Instance, child: ServerChild) -> None:
        self.child = child
        self.ops: Iterator[Op] = instance.ops()
        self.clients: List[QueryClient] = []
        self.warmup: List[Sample] = []

    async def connect(self) -> None:
        for _ in range(CONNECTIONS):
            self.clients.append(await QueryClient.connect("127.0.0.1", self.child.port))

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def _one(self, client: QueryClient, op: Op, round_index: int) -> Sample:
        start = time.perf_counter()
        try:
            observed = observe(op, await client.execute_with_retry(op.text))
            error = None
        except Exception as exc:  # refused, dropped or broken: a failed op
            observed, error = None, f"{type(exc).__name__}: {exc}"
        return Sample(op, observed, time.perf_counter() - start, round_index, error)

    async def run(
        self, round_index: int, *, seconds: Optional[float] = None, count: Optional[int] = None
    ) -> Tuple[List[Sample], float]:
        """Both connections loop until the deadline (or ``count`` ops); returns wall too."""
        samples: List[Sample] = []
        start = time.perf_counter()
        # Taken before each send, so ``count`` bounds the ops started.
        ops = self.ops if count is None else itertools.islice(self.ops, count)

        async def loop(client: QueryClient) -> None:
            for op in ops:
                samples.append(await self._one(client, op, round_index))
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return

        await asyncio.gather(*(loop(client) for client in self.clients))
        return samples, time.perf_counter() - start


async def setup(seed: int, smoke: bool) -> Tuple[Instance, Load]:
    """Start the child, connect, send the warm-up statements."""
    instance = instances.generate("serve-hot", seed, smoke)
    load = Load(instance, ServerChild(seed, smoke))
    try:
        await load.connect()
        load.warmup, _ = await load.run(-1, count=WARMUP // 5 if smoke else WARMUP)
    except BaseException:
        await teardown(load)
        raise
    return instance, load


async def teardown(load: Load) -> None:
    await load.close()
    load.child.close()


async def measure(load: Load, seconds: float) -> List[Sample]:
    """Both connections in closed loop for ``seconds`` measured seconds, in rounds."""
    samples: List[Sample] = []
    round_index = 0
    while seconds > 0:
        batch, wall = await load.run(round_index, seconds=min(ROUND_SECONDS, seconds))
        seconds -= wall
        samples.extend(batch)
        round_index += 1
    return samples


# ----------------------------------------------------------------------
# The traced round
# ----------------------------------------------------------------------
async def _traced_connection(
    client: QueryClient, ops: List[Op], tracer: Tracer, sizes: List[int]
) -> None:
    """One connection's share of the traced pass: spans at the client."""
    for index, op in enumerate(ops):
        documents = []
        with tracer.span("op", index):
            with tracer.span("call", index) as call:
                first_batch = None
                async for document in client.execute_stream(op.text):
                    if first_batch is None and document.get("type") == "batch":
                        first_batch = time.perf_counter()
                    documents.append(document)
            if first_batch is not None:
                # A point event inside the call: a child span from the send.
                tracer.spans.append(
                    {"name": "server.server.ttfr", "start": call["start"],
                     "end": first_batch, "parent": len(tracer.spans) - 1, "op": index}
                )  # fmt: skip
            with tracer.span("replay", index):
                # The wire cost of this reply, re-encoded from the real payloads.
                with tracer.span("server.protocol.encode", index):
                    sizes.append(sum(len(encode_message(d)) for d in documents))


def _replay_in_process(instance: Instance, ops: List[Op], tracer: Tracer) -> None:
    """The same statements through ``Session.execute``, no socket, no server."""
    from .inprocess import load as load_engine

    session = Session(engine=load_engine(instance.tables))
    for cls_ops in instances.serve_statements(instance).values():
        for op in cls_ops:  # the server was warm too
            session.execute(op.text)
    for index, op in enumerate(ops):
        with tracer.span("lang.parse", index):
            parse_statement(op.text)
        with tracer.span(f"session.{op.cls}", index):
            outcome = session.execute(op.text, batch_size=1024)
            if outcome.result_set is not None:
                for _ in outcome.result_set.batches():
                    pass
    session.engine.close()


async def traced_round(
    instance: Instance, load: Load, seconds: float, smoke: bool
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """A fixed statement list run bare, then with client spans, then in process."""
    from .layers import fixed_ops

    count = fixed_ops(RATE, seconds, SMOKE_OPS if smoke else None)
    values: Dict[str, float] = dict(bench.calibrate())
    bare, bare_wall = await load.run(0, count=count)
    verdict = bench.judge(instance, load.warmup + bare, 10**9)

    ops = [next(load.ops) for _ in range(count)]
    tracers = [Tracer() for _ in load.clients]
    sizes: List[int] = []
    start = time.perf_counter()
    await asyncio.gather(
        *(
            _traced_connection(client, ops[k::CONNECTIONS], tracer, sizes)
            for k, (client, tracer) in enumerate(zip(load.clients, tracers))
        )
    )
    traced_wall = time.perf_counter() - start
    await teardown(load)  # the child reports what it counted as it exits

    tracer = tracers[0]
    for other in tracers[1:]:
        tracer.absorb(other)
    _replay_in_process(instance, ops[: max(200, count // 4)], tracer)
    self_seconds = tracer.self_seconds()

    stats = load.child.report.get("stats", {})
    asked = stats.get("served", 0) + stats.get("rejected_overloaded", 0)
    hot_client = median_ms(s.seconds for s in bare if s.op.cls == "hot")
    values.update(bench.class_medians("serve-hot", bare))
    values["lang.parse_ms"] = median_ms(self_seconds["lang.parse"])
    values["server.protocol.encode_ms"] = median_ms(self_seconds["server.protocol.encode"])
    values["server.protocol.bytes_per_op"] = sum(sizes) / len(sizes)
    values["server.server.overhead_ms"] = hot_client - median_ms(self_seconds["session.hot"])
    values["server.server.ttfr_p50_ms"] = median_ms(self_seconds["server.server.ttfr"])
    values["server.server.rejected_share"] = (
        stats.get("rejected_overloaded", 0) / asked if asked else 0.0
    )
    values["api.engine.incremental_reused"] = load.child.report["incremental"]["reused"]
    values["trace.overhead_share"] = traced_wall / bare_wall - 1.0
    values["aux.oracle_s"] = verdict["oracle_s"]
    values["aux.oracle_checked"] = verdict["checked"]
    tracer.write(
        bench.TRACE_DIR / "trace_serve-hot.json",
        {"workload": "serve-hot", "seed": instance.seed, "ops": count},
    )
    return values, verdict
