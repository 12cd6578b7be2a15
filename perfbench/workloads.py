"""The four stack-benchmark workloads over the Table IX probe stream.

Every workload is closed loop: one process, one event loop, at most
one connection. Inputs come from
:func:`repro.service.workload.table09_probe_stream` for a 1024-entry
unit with the run's seed (614 stored words, 16,086 probes at seed 3);
every unit is 1024 entries x 32 bits.

- ``wire-point``: single-key LOOKUP frames, a fixed window of
  :data:`POINT_WINDOW` in flight on one pipelined ``CamClient``, in
  front of ``CamServer`` -> ``CamService`` -> ``ShardedCam`` x4 (hash,
  batch engine, R=1). Read only.
- ``wire-churn``: 64-key LOOKUP frames of the probe stream interleaved
  with 8-word INSERT and single-key DELETE frames
  (:data:`CHURN_PATTERN`), window :data:`CHURN_WINDOW`, against
  ``ShardedCam`` x4 with R=2. Inserts store fresh words outside the
  probe key space and deletes remove a word of an earlier insert (a
  delete that matches nothing would write nothing), so the mix costs
  the same on every seed. No frame is sent while an in-flight frame
  writes one of its keys, and at most one INSERT is in flight, so every
  answer is fixed by the send order whatever the server's internal
  scheduling. When the stored words reach :data:`CHURN_BUDGET` of the
  aggregate capacity the clock pauses, the content read back through
  ``ShardedCam.snapshot()`` is checked and the post-setup snapshot is
  restored.
- ``bulk-search``: in-process ``ShardedCam.search`` with
  :data:`BULK_KEYS`-key calls over whole passes of the probe stream.
- ``cycle-referee``: the register-accurate cycle engine on one unit,
  :data:`CYCLE_KEYS`-key search calls; afterwards a batch session
  replays the identical call sequence and must report the same cycles.

Setup builds the stack and stores the seed set in :data:`STORE_CHUNK`
word calls through the workload's front door (the ``loadgen`` seed
batch). Those store calls are the write samples of the three workloads
that do not write while measured. The wire workloads time with the
wall clock, since the service's batching waits are part of their cost,
and also record the thread CPU time inside it; the in-process workloads
never wait, so they time with the thread's CPU clock alone.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from helpers import (
    LiveModel,
    answer_of,
    reference_slots,
    scaled_seconds,
    sharded_slots,
)

UNIT_ENTRIES = 1024
BLOCK_SIZE = 64
DATA_WIDTH = 32
BUS_WIDTH = 512
SHARDS = 4
STORE_CHUNK = 64

#: Frames in flight on ``wire-point``: the ``loadgen`` default (closed
#: loop, single-key LOOKUP frames), which the CI network smoke also uses.
POINT_WINDOW = 16
#: ``wire-churn`` follows the defaults of the repo's mixed read/write
#: service workload (``repro.service.workload.WorkloadSpec``): 8 clients,
#: 75% lookups, 5% deletes, 20% inserts of up to 8 words, and a stored
#: word budget of 60% of the capacity. The order of one period is fixed
#: so that every seed sends the same mix.
CHURN_WINDOW = 8
CHURN_LOOKUP_KEYS = 64
CHURN_INSERT_WORDS = 8
CHURN_PATTERN = (("lookup",) * 3 + ("insert",)) * 4 + ("lookup",) * 3 + (
    "delete",)
CHURN_BUDGET = 0.6
#: Inserted words are drawn above every probe key.
FRESH_WORDS = (1 << 20, 1 << DATA_WIDTH)
BULK_KEYS = 512
CYCLE_KEYS = 16


class Mismatch(Exception):
    """An answer, a status or the stored content disagrees with the model."""


@dataclass
class Round:
    """One timed repetition inside a measured window."""

    keys: int = 0
    seconds: float = 0.0
    #: thread CPU seconds inside ``seconds``.
    cpu: float = 0.0
    #: the host's slowdown while the round ran (set by the runner).
    slowdown: float = 1.0
    sim_cycles: int = 0
    operations: int = 0
    lookup_lat: List[float] = field(default_factory=list)
    write_lat: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that takes this round's times to the reference speed."""
        if not self.seconds:
            return 1.0
        return scaled_seconds(self.seconds, self.cpu,
                              self.slowdown) / self.seconds

    @property
    def rate(self) -> float:
        """Keys per second at the reference host's speed."""
        return self.keys / (self.seconds * self.scale) if self.seconds else 0.0


@dataclass
class Phase:
    """The rounds of one measured window."""

    rounds: List[Round] = field(default_factory=list)
    #: the host's slowdown next to every call for rounds.
    slowdowns: List[float] = field(default_factory=list)

    def total(self, name: str):
        return sum(getattr(r, name) for r in self.rounds)

    def scaled(self, name: str) -> List[List[float]]:
        """Each round's ``lookup_lat`` or ``write_lat`` at the reference
        speed."""
        return [[t * r.scale for t in getattr(r, name)] for r in self.rounds]


def unit_config():
    from repro.core.config import unit_for_entries

    return unit_for_entries(UNIT_ENTRIES, block_size=BLOCK_SIZE,
                            data_width=DATA_WIDTH, bus_width=BUS_WIDTH)


def chunks(values: Sequence[int], size: int) -> List[List[int]]:
    return [list(values[i:i + size]) for i in range(0, len(values), size)]


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def check_answer(response, wanted, what: str) -> None:
    expect(response.status == "ok",
           f"{what}: status {response.status} ({response.error})")
    got = answer_of(response.result)
    expect(got == wanted, f"{what}: answered {got}, model says {wanted}")


class Workload:
    """Shared shape: inputs from the seed, setup, measure, checks."""

    name = ""
    setups = 20
    sharded = True
    #: Whether timings are scaled to the reference host's speed (see
    #: :func:`helpers.calibration_burst`).
    scaled = True
    #: Clock of the setups, store calls and lookup calls that are timed.
    clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int) -> None:
        from repro.service.workload import table09_probe_stream

        self.seed = seed
        stored, probes = table09_probe_stream(UNIT_ENTRIES, seed=seed)
        self.stored = [int(v) for v in stored]
        self.probes = [int(v) for v in probes]
        model = LiveModel(self.stored)
        self.expected = [model.lookup(key) for key in self.probes]

    async def setup(self, write_lat: List[float]):
        """Build the stack and store the seed set; returns the stack.

        Setup may run again while a measured stack is alive (the timed
        extra setups), so it keeps its state on the stack it returns.
        """
        raise NotImplementedError

    async def teardown(self, stack) -> None:
        pass

    async def measure_rounds(self, stack, seconds: float) -> List[Round]:
        """About ``seconds`` of measured work, as one or more rounds."""
        raise NotImplementedError

    async def finish(self, stack) -> List[str]:
        """End-of-run checks; returns notes for the report."""
        return []

    def counters(self, stack) -> Dict[str, float]:
        """Cumulative program counters read before and after tracing."""
        return {}


# ----------------------------------------------------------------------
# the wire stack
# ----------------------------------------------------------------------
@dataclass
class WireStack:
    cam: object
    service: object
    server: object
    client: object
    #: post-setup snapshot (``wire-churn`` restores it every epoch).
    base: object = None


async def open_wire_stack(replicas: int, stored: Sequence[int],
                          write_lat: List[float]) -> WireStack:
    from repro.net.client import CamClient
    from repro.net.server import CamServer
    from repro.service.scheduler import CamService
    from repro.service.sharded import ShardedCam

    cam = ShardedCam(unit_config(), shards=SHARDS, policy="hash",
                     engine="batch", replicas=replicas)
    service = CamService(cam)
    await service.start()
    server = CamServer(service, port=0)
    await server.start()
    client = CamClient(*server.address, pool_size=1)
    await client.connect()
    stack = WireStack(cam, service, server, client)
    for chunk in chunks(stored, STORE_CHUNK):
        started = time.perf_counter()
        response = await client.insert(chunk)
        write_lat.append(time.perf_counter() - started)
        expect(response.status == "ok" and response.stats.words == len(chunk),
               f"seed-set INSERT: {response.status} {response.stats}")
    return stack


async def close_wire_stack(stack: WireStack) -> None:
    await stack.client.close()
    await stack.server.stop()
    await stack.service.stop()


def wire_counters(stack: WireStack) -> Dict[str, float]:
    service = stack.service.stats
    replica_stats = [session.stats for session in stack.cam.sessions
                     if hasattr(session, "replicas")]
    return {
        "retries": stack.client.retries,
        "dedupe_hits": stack.server.stats.dedupe_hits,
        "admitted": service.admitted,
        "dispatches": service.dispatches,
        "dispatched_requests": service.dispatched_requests,
        "timeouts": service.timeouts,
        "shard_failures": service.shard_failures,
        "client_errors": service.client_errors,
        "max_queue_depth": service.max_queue_depth,
        "failovers": sum(s.failovers for s in replica_stats),
        "divergences": sum(s.divergences for s in replica_stats),
    }


class WirePoint(Workload):
    name = "wire-point"
    #: Its frames mostly wait for the service's batching timer, and a
    #: slower host fills that wait instead of adding to it: the wall
    #: clock moved 12% where the host slowed 1.8x, so scaling the CPU
    #: part would overcorrect.
    scaled = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cursor = 0

    async def setup(self, write_lat):
        return await open_wire_stack(1, self.stored, write_lat)

    async def teardown(self, stack):
        await close_wire_stack(stack)

    def counters(self, stack):
        return wire_counters(stack)

    async def measure_rounds(self, stack, seconds):
        result = Round()
        probes, expected = self.probes, self.expected
        client = stack.client
        deadline = time.perf_counter() + seconds

        async def worker():
            while time.perf_counter() < deadline:
                index = self.cursor
                self.cursor = (index + 1) % len(probes)
                started = time.perf_counter()
                responses = await client.lookup_many([probes[index]])
                result.lookup_lat.append(time.perf_counter() - started)
                check_answer(responses[0], expected[index],
                             f"LOOKUP {probes[index]}")
                result.keys += 1

        cycle = stack.cam.cycle
        started, cpu = time.perf_counter(), time.thread_time()
        await asyncio.gather(*[worker() for _ in range(POINT_WINDOW)])
        result.seconds = time.perf_counter() - started
        result.cpu = time.thread_time() - cpu
        result.sim_cycles = stack.cam.cycle - cycle
        result.operations = result.keys
        return [result]


@dataclass
class ChurnFrame:
    kind: str
    keys: List[int]
    expected: object = None

    def __post_init__(self) -> None:
        self.keyset = frozenset(self.keys)

    @property
    def write(self) -> bool:
        return self.kind != "lookup"

    def conflicts(self, other: "ChurnFrame") -> bool:
        if self.kind == "insert" and other.kind == "insert":
            return True
        return ((self.write or other.write)
                and not self.keyset.isdisjoint(other.keyset))


class WireChurn(Workload):
    name = "wire-churn"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rng = np.random.default_rng([seed, 1])
        self.cursor = 0
        self.step = 0
        self.error: Optional[BaseException] = None
        self.epochs = 0
        budget = int(SHARDS * UNIT_ENTRIES * CHURN_BUDGET)
        self.epoch_inserts = (budget - len(self.stored)) // CHURN_INSERT_WORDS
        self.reset_epoch()

    def next_frame(self) -> ChurnFrame:
        kind = CHURN_PATTERN[self.step % len(CHURN_PATTERN)]
        self.step += 1
        if kind == "lookup":
            count = len(self.probes)
            keys = [self.probes[(self.cursor + i) % count]
                    for i in range(CHURN_LOOKUP_KEYS)]
            self.cursor = (self.cursor + CHURN_LOOKUP_KEYS) % count
        elif kind == "insert":
            keys = [int(v) for v in self.rng.integers(
                *FRESH_WORDS, size=CHURN_INSERT_WORDS)]
            self.inserted.append(keys)
        else:
            # The latest insert may still be in flight; every earlier one
            # has been answered, since inserts go one at a time.
            old = self.inserted[:-1]
            if old:
                batch = old[int(self.rng.integers(len(old)))]
                keys = [batch[int(self.rng.integers(len(batch)))]]
            else:
                keys = [int(self.rng.integers(*FRESH_WORDS))]
        return ChurnFrame(kind, keys)

    async def setup(self, write_lat):
        stack = await open_wire_stack(2, self.stored, write_lat)
        stack.base = stack.cam.snapshot()
        return stack

    async def teardown(self, stack):
        await close_wire_stack(stack)

    def counters(self, stack):
        return wire_counters(stack)

    def reset_epoch(self) -> None:
        self.model = LiveModel(self.stored)
        self.epoch_log: List[Tuple[str, List[int]]] = []
        #: word batches of this epoch's inserts, in send order.
        self.inserted: List[List[int]] = []

    def check_content(self, stack) -> None:
        slots = sharded_slots(stack.cam.snapshot())
        expect(slots == self.model.slots,
               "content read back through ShardedCam.snapshot() differs "
               "from the acknowledged writes")

    def end_epoch(self, stack) -> None:
        self.check_content(stack)
        stack.cam.restore(stack.base)
        self.reset_epoch()
        self.epochs += 1

    async def send(self, client, frame: ChurnFrame, result: Round) -> None:
        try:
            started = time.perf_counter()
            if frame.kind == "lookup":
                responses = await client.lookup_many(frame.keys)
                result.lookup_lat.append(time.perf_counter() - started)
                for key, response, wanted in zip(frame.keys, responses,
                                                 frame.expected):
                    check_answer(response, wanted, f"LOOKUP {key}")
                result.keys += len(frame.keys)
            elif frame.kind == "insert":
                response = await client.insert(frame.keys)
                result.write_lat.append(time.perf_counter() - started)
                expect(response.status == "ok"
                       and response.stats.words == len(frame.keys),
                       f"INSERT {frame.keys}: {response.status}")
            else:
                response = await client.delete(frame.keys[0])
                result.write_lat.append(time.perf_counter() - started)
                check_answer(response, frame.expected,
                             f"DELETE {frame.keys[0]}")
            result.operations += 1
        except Exception as exc:  # re-raised by the sending loop
            self.error = exc

    async def measure_rounds(self, stack, seconds):
        result = Round()
        client = stack.client
        #: in-flight send tasks (holding the references the loop does not).
        inflight: Dict[asyncio.Future, ChurnFrame] = {}
        wake = asyncio.Event()

        def settled(task):
            inflight.pop(task, None)
            wake.set()

        async def wait_until(ready) -> None:
            while True:
                if self.error is not None:
                    raise self.error
                if ready():
                    return
                wake.clear()
                await wake.wait()

        cycle = stack.cam.cycle
        paused = paused_cpu = 0.0
        started, cpu = time.perf_counter(), time.thread_time()
        while True:
            if len(self.inserted) >= self.epoch_inserts:
                await wait_until(lambda: not inflight)
                pause, pause_cpu = time.perf_counter(), time.thread_time()
                result.sim_cycles += stack.cam.cycle - cycle
                self.end_epoch(stack)
                cycle = stack.cam.cycle
                paused += time.perf_counter() - pause
                paused_cpu += time.thread_time() - pause_cpu
            if time.perf_counter() - started - paused >= seconds:
                break
            frame = self.next_frame()
            await wait_until(lambda: len(inflight) < CHURN_WINDOW and not any(
                frame.conflicts(other) for other in inflight.values()))
            if frame.kind == "lookup":
                frame.expected = [self.model.lookup(k) for k in frame.keys]
            elif frame.kind == "insert":
                self.model.insert(frame.keys)
            else:
                frame.expected = self.model.delete(frame.keys[0])
            self.epoch_log.append((frame.kind, frame.keys))
            task = asyncio.ensure_future(self.send(client, frame, result))
            inflight[task] = frame
            task.add_done_callback(settled)
        await wait_until(lambda: not inflight)
        result.seconds = time.perf_counter() - started - paused
        result.cpu = time.thread_time() - cpu - paused_cpu
        result.sim_cycles += stack.cam.cycle - cycle
        return [result]

    async def finish(self, stack):
        """Final content against a ReferenceCam replay of this epoch."""
        from repro.core.mask import binary_entry
        from repro.core.reference import ReferenceCam

        self.check_content(stack)
        reference = ReferenceCam(stack.cam.capacity)
        reference.update([binary_entry(v, DATA_WIDTH) for v in self.stored])
        for kind, keys in self.epoch_log:
            if kind == "insert":
                reference.update([binary_entry(v, DATA_WIDTH) for v in keys])
            elif kind == "delete":
                reference.delete(keys[0])
        expect(reference_slots(reference) == sharded_slots(
            stack.cam.snapshot()),
            "final content differs from the ReferenceCam replay")
        return [f"epochs completed: {self.epochs}; final content matches "
                f"the ReferenceCam replay of {len(self.epoch_log)} frames"]


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
class BulkSearch(Workload):
    name = "bulk-search"
    setups = 80
    clock = staticmethod(time.thread_time)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.calls = [
            (keys, self.expected[start:start + BULK_KEYS])
            for start, keys in zip(range(0, len(self.probes), BULK_KEYS),
                                   chunks(self.probes, BULK_KEYS))
        ]

    async def setup(self, write_lat):
        from repro.service.sharded import ShardedCam

        cam = ShardedCam(unit_config(), shards=SHARDS, policy="hash",
                         engine="batch")
        for chunk in chunks(self.stored, STORE_CHUNK):
            started = self.clock()
            cam.update(chunk)
            write_lat.append(self.clock() - started)
        return cam

    async def measure_rounds(self, cam, seconds):
        """Whole passes of the probe stream, a round each (so cycles
        repeat exactly)."""
        rounds = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            result = Round(keys=len(self.probes), operations=len(self.calls))
            cycle = cam.cycle
            for call_keys, wanted in self.calls:
                began = self.clock()
                answers = cam.search(call_keys)
                took = self.clock() - began
                result.seconds += took
                result.lookup_lat.append(took)
                expect([answer_of(r) for r in answers] == wanted,
                       "ShardedCam.search answers differ from the model")
            result.cpu = result.seconds
            result.sim_cycles = cam.cycle - cycle
            rounds.append(result)
        return rounds


@dataclass
class CycleStack:
    session: object
    #: (op, keys or words, simulated cycles) of every call, in order.
    log: List[Tuple[str, List[int], int]] = field(default_factory=list)


class CycleReferee(Workload):
    name = "cycle-referee"
    setups = 5
    sharded = False
    clock = staticmethod(time.thread_time)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cursor = 0

    async def setup(self, write_lat):
        from repro.core.batch import open_session

        stack = CycleStack(open_session(unit_config(), engine="cycle"))
        for chunk in chunks(self.stored, STORE_CHUNK):
            started = self.clock()
            stats = stack.session.update(chunk)
            write_lat.append(self.clock() - started)
            stack.log.append(("update", chunk, stats.cycles))
        return stack

    async def measure_rounds(self, stack, seconds):
        """One search call a round; every call takes the same cycles."""
        session = stack.session
        rounds = []
        count = len(self.probes)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            picks = [(self.cursor + i) % count for i in range(CYCLE_KEYS)]
            self.cursor = (self.cursor + CYCLE_KEYS) % count
            call_keys = [self.probes[i] for i in picks]
            cycle = session.cycle
            began = self.clock()
            answers = session.search(call_keys)
            took = self.clock() - began
            cycles = session.cycle - cycle
            stack.log.append(("search", call_keys, cycles))
            expect([answer_of(r) for r in answers]
                   == [self.expected[i] for i in picks],
                   "cycle-engine answers differ from the model")
            rounds.append(Round(keys=CYCLE_KEYS, seconds=took, cpu=took,
                                sim_cycles=cycles, operations=1,
                                lookup_lat=[took]))
        return rounds

    async def finish(self, stack):
        """Replay the identical call sequence on the batch engine."""
        from repro.core.batch import open_session

        session = stack.session
        twin = open_session(unit_config(), engine="batch")
        for index, (op, values, cycles) in enumerate(stack.log):
            before = twin.cycle
            if op == "update":
                twin.update(values)
            else:
                twin.search(values)
            expect(twin.cycle - before == cycles,
                   f"call {index} ({op}): cycle engine took {cycles} "
                   f"cycles, batch engine {twin.cycle - before}")
        expect(twin.cycle == session.cycle,
               f"cycle engine at cycle {session.cycle}, batch twin at "
               f"{twin.cycle}")
        return [f"cross-engine cycle check: {len(stack.log)} calls, "
                f"{twin.cycle} cycles on both engines"]


WORKLOADS = {cls.name: cls for cls in
             (WirePoint, WireChurn, BulkSearch, CycleReferee)}
