"""One differential harness: every CAM stack answers like ``ReferenceCam``.

A hypothesis ``RuleBasedStateMachine`` drives one stack and the golden
:class:`~repro.core.ReferenceCam` in lockstep through one operation
vocabulary -- insert, multi-key lookup, delete, reset, regroup, a
concurrent lookup burst, a connection kill and keys or words past
int64 -- and checks after every step that each answer is bit-identical
to the reference's (``hit``, ``address``, ``match_vector``,
``match_count``) and that the stack holds the same content.

The stacks, each its own ``TestCase`` so a failure names it:

- the three unit engines (``cycle``, ``batch``, ``audit``) on a drawn
  unit configuration -- binary, ternary or range entries, 2 or 4
  blocks of 8-32 cells, 1/2/4 groups, widths 8-48, buses 64-256, or the
  one buffered shape (``block_size=256``). The audit engine runs strict
  with every operation shadowed, so each step also proves the batch
  engine equal to the cycle engine in results and cycle costs; it also
  draws independent-group mode, checked against one reference per
  group;
- :class:`~repro.service.ShardedCam` under the ``hash``, ``range`` and
  ``round_robin`` policies, and at R=2;
- :class:`~repro.service.CamService` (``max_batch=8``) over a drawn
  ``round_robin``, ``hash`` or ``range`` policy, and
  ``CamClient -> CamServer -> CamService``.

Tests elsewhere that check one property of one stack run this machine
through :func:`run_differential` at a small budget, narrowed to a
config space or to part of the vocabulary; they bring no tape
generator or oracle of their own.

No rule sleeps: the service stacks run on a private event loop with a
zero batching window. Run one stack with ``-k``, for example
``pytest tests/test_differential.py -k wire``;
``HYPOTHESIS_PROFILE=deep`` runs many more examples.
"""

import asyncio
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    CamType,
    ReferenceCam,
    binary_entry,
    collect_stats,
    open_session,
    range_entry,
    ternary_entry,
    unit_for_entries,
)
from repro.errors import ConfigError
from repro.net import CamClient, CamServer
from repro.service import CamService, ShardedCam

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"

#: Keys and words no engine can hold: a caller error everywhere.
PAST_INT64 = st.integers(1 << 63, (1 << 64) - 1)


@st.composite
def unit_configs(draw, cam_types=tuple(CamType), independent=st.just(False)):
    """A unit configuration; ``independent`` draws whether its groups
    take their updates one by one (``replicate_updates=False``)."""
    cam_type = draw(st.sampled_from(cam_types), label="cam_type")
    if draw(st.integers(0, 7), label="shape") == 7:
        # the encoder output buffer switches on: search latency 7 -> 8
        config = unit_for_entries(512, block_size=256, data_width=16,
                                  bus_width=128, cam_type=cam_type,
                                  default_groups=2)
    else:
        block_size = draw(st.sampled_from([8, 16, 32]), label="block_size")
        blocks = draw(st.sampled_from([2, 4]), label="blocks")
        config = unit_for_entries(
            block_size * blocks,
            block_size=block_size,
            data_width=draw(st.sampled_from([8, 12, 16, 24, 32, 48]),
                            label="data_width"),
            bus_width=draw(st.sampled_from([64, 128, 256]),
                           label="bus_width"),
            cam_type=cam_type,
            default_groups=draw(st.sampled_from(
                [g for g in (1, 2, 4) if blocks % g == 0]), label="groups"),
        )
    if draw(independent, label="independent"):
        config = replace(config, replicate_updates=False)
    return config


def key_values(width: int):
    """A small key space, so ties are common, or any key of the width."""
    return st.integers(0, 15) | st.integers(0, (1 << width) - 1)


def raw_words(cam_type: CamType, width: int):
    """Words as the stacks take them: ints for a binary CAM, else entries."""
    values = key_values(width)
    if cam_type is CamType.BINARY:
        return values
    if cam_type is CamType.TERNARY:
        return st.builds(lambda value, dont_care: ternary_entry(
            value & ~dont_care, dont_care, width), values, values)

    def aligned(value, low_bits):
        start = value >> low_bits << low_bits
        return range_entry(start, start + (1 << low_bits) - 1, width)

    return st.builds(aligned, values, st.integers(0, width - 1))


class Stack:
    """One stack under test: ``cam`` is the backend at its bottom (a
    unit session or a ``ShardedCam``); a served stack also has the
    async front door ``api`` -- the service, or a client of a server
    in front of it -- on a private event loop. Every call answers
    ``(status, ...)`` pairs; the unserved stacks raise client errors."""

    def __init__(self, cam, *, serve=False, wire=False):
        self.cam = cam
        self.api = self.server = self.loop = None
        if not serve:
            return
        self.loop = asyncio.new_event_loop()
        self.run(self._open(wire))

    async def _open(self, wire):
        self.service = self.api = CamService(
            self.cam, max_batch=8, max_delay_s=0.0, request_timeout_s=60.0)
        await self.service.start()
        if wire:
            self.server = CamServer(self.service, port=0)
            await self.server.start()
            self.api = CamClient(*self.server.address, max_retries=6)
            await self.api.connect()

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def insert(self, words, group=None, kill_after=None):
        if self.api is None:
            return "ok", self.cam.update(words, group=group).words
        response = self.run(
            self._killed(lambda: self.api.insert(words), kill_after))
        return response.status, response.stats and response.stats.words

    def lookup(self, keys, groups=None):
        if self.api is None:
            return [("ok", r) for r in self.cam.search(keys, groups=groups)]
        return [(r.status, r.result) for r in self.run(
            self._killed(lambda: self.api.lookup_many(keys), None))]

    def delete(self, key, kill_after=None):
        if self.api is None:
            return "ok", self.cam.delete(key)
        response = self.run(
            self._killed(lambda: self.api.delete(key), kill_after))
        return response.status, response.result

    def burst(self, keys):
        """One single-key lookup per key, all in flight at once."""
        async def gather():
            return await asyncio.gather(*map(self.api.lookup, keys))
        return [(r.status, r.result) for r in self.run(gather())]

    async def _killed(self, call, kill_after):
        """``call()``, made in the loop, with the client's connections
        severed after ``kill_after`` loop turns: its retry must apply it
        exactly once."""
        if kill_after is None:
            return await call()
        pending = asyncio.ensure_future(call())
        for _ in range(kill_after):
            await asyncio.sleep(0)
        self.api.kill_connections()
        return await pending

    def close(self):
        if self.loop is not None:
            self.run(self._close())
            self.loop.close()

    async def _close(self):
        if self.server is not None:
            await self.api.close()
            await self.server.stop()
        await self.service.stop()


def unit_stack(engine, configs=None):
    """One ``engine`` session on a config drawn from ``configs`` (any
    unit config; the audit engine also draws independent groups)."""
    if configs is None:
        configs = unit_configs(independent=st.booleans() if engine == "audit"
                               else st.just(False))

    def build(data):
        config = data.draw(configs, label="config")
        kwargs = {"audit_sample": 1.0, "strict": True} \
            if engine == "audit" else {}
        return Stack(open_session(config, engine, **kwargs))
    return build


def sharded_stack(*policies, shards=4, replicas=1, serve=False,
                  wire=False):
    """``shards`` batch shards under a policy drawn from ``policies``;
    pinned policies and the wire (int words) take binary CAMs only."""
    def build(data):
        policy = data.draw(st.sampled_from(policies), label="policy")
        types = tuple(CamType) if policy == "round_robin" and not wire \
            else (CamType.BINARY,)
        config = data.draw(unit_configs(types), label="config")
        cam = ShardedCam(config, shards=shards, policy=policy,
                         engine="batch", replicas=replicas)
        return Stack(cam, serve=serve, wire=wire)
    return build


def shards_fit(cam: ShardedCam, words) -> bool:
    """Whether every shard has room for its part of ``words``."""
    values = [w if isinstance(w, int) else w.value for w in words]
    need = np.bincount(cam.policy.shards_for(values, cam.occupancy),
                       minlength=cam.num_shards).tolist()
    return all(shard.occupancy + count <= shard.capacity
               for shard, count in zip(cam.sessions, need))


def global_slots(snapshot):
    """A sharded snapshot's slots in global address order."""
    slots = [None] * snapshot.meta["global_count"]
    for table, shard in zip(snapshot.meta["global_addrs"], snapshot.children):
        for address, slot in zip(table, shard.groups[0]):
            slots[address] = slot
    return slots


class Differential(RuleBasedStateMachine):
    """One stack (``build_stack(data)``) and ``ReferenceCam`` in lockstep."""

    build_stack = None

    @initialize(data=st.data())
    def build(self, data):
        self.stack = self.build_stack(data)
        config = self.stack.cam.config
        self.width = config.data_width
        self.keys = key_values(self.width)
        self.words = raw_words(config.block.cell.cam_type, self.width)
        self.independent = not config.replicate_updates
        self.flush()

    def flush(self):
        """Fresh references: one per group in independent mode."""
        cam = self.stack.cam
        lists = cam.num_groups if self.independent else 1
        self.refs = [ReferenceCam(cam.capacity) for _ in range(lists)]

    def teardown(self):
        if hasattr(self, "stack"):
            self.stack.close()

    def entry(self, word):
        return binary_entry(word, self.width) if isinstance(word, int) \
            else word

    @staticmethod
    def same(answer, gold):
        status, result = answer
        assert status == "ok", answer
        assert (result.hit, result.address, result.match_vector,
                result.match_count) == (gold.hit, gold.address,
                                        gold.match_vector, gold.match_count)

    def draw_words(self, data, ref):
        """Up to six words that fit the reference and every shard."""
        words = data.draw(st.lists(self.words, min_size=1, max_size=6),
                          label="words")
        words = words[:ref.capacity - ref.occupancy]
        if isinstance(self.stack.cam, ShardedCam):
            while words and not shards_fit(self.stack.cam, words):
                words.pop()
        return words

    def put(self, words, group=None, kill_after=None):
        assert self.stack.insert(words, group, kill_after) \
            == ("ok", len(words))
        self.refs[group or 0].update([self.entry(word) for word in words])

    def remove(self, key, kill_after=None):
        answer = self.stack.delete(key, kill_after)
        golds = [ref.delete(key) for ref in self.refs]  # every group's
        self.same(answer, golds[0])  # group 0 answers

    # ------------------------------------------------------------------
    @rule(data=st.data())
    def insert(self, data):
        group = None
        if self.independent:
            group = data.draw(st.integers(0, len(self.refs) - 1),
                              label="group")
        words = self.draw_words(data, self.refs[group or 0])
        if words:
            self.put(words, group)

    @rule(data=st.data())
    def lookup(self, data):
        keys = data.draw(st.lists(self.keys, min_size=1, max_size=8),
                         label="keys")
        groups = None
        if self.independent:
            order = data.draw(st.permutations(range(len(self.refs))),
                              label="order")
            groups = order[:data.draw(st.integers(1, len(order)),
                                      label="groups")]
        answers = self.stack.lookup(keys, groups)
        assert len(answers) == len(keys)
        for index, (key, answer) in enumerate(zip(keys, answers)):
            ref = self.refs[groups[index % len(groups)] if groups else 0]
            self.same(answer, ref.search(key))

    @rule(data=st.data())
    def delete(self, data):
        self.remove(data.draw(self.keys, label="key"))

    @rule()
    def reset(self):
        self.stack.cam.reset()
        for ref in self.refs:
            ref.reset()

    @precondition(lambda self: self.stack.api is None)
    @rule(data=st.data())
    def regroup(self, data):
        blocks = self.stack.cam.config.num_blocks
        self.stack.cam.set_groups(data.draw(st.sampled_from(
            [g for g in (1, 2, 4) if blocks % g == 0]), label="groups"))
        self.flush()  # a regroup flushes content

    @precondition(lambda self: self.stack.api is not None)
    @rule(data=st.data())
    def burst(self, data):
        keys = data.draw(st.lists(self.keys, min_size=2, max_size=16),
                         label="keys")
        for key, answer in zip(keys, self.stack.burst(keys)):
            self.same(answer, self.refs[0].search(key))

    @precondition(lambda self: self.stack.server is not None)
    @rule(data=st.data(), turns=st.integers(0, 10), insert=st.booleans())
    def kill(self, data, turns, insert):
        """Sever the connections with a mutation in flight."""
        if insert:
            words = self.draw_words(data, self.refs[0])
            if words:
                self.put(words, kill_after=turns)
        else:
            self.remove(data.draw(self.keys, label="key"), kill_after=turns)

    @rule(data=st.data())
    def past_int64(self, data):
        """A key or word past int64 is the caller's error; nothing lands,
        and a good key beside it still answers."""
        key = data.draw(self.keys, label="key")
        word = data.draw(self.words, label="word")
        bad = data.draw(PAST_INT64, label="bad")
        if self.stack.api is None:
            for call in (lambda: self.stack.lookup([key, bad]),
                         lambda: self.stack.delete(bad),
                         lambda: self.stack.insert([word, bad])):
                with pytest.raises(ConfigError):
                    call()
            return
        good, rejected = self.stack.lookup([key, bad])
        self.same(good, self.refs[0].search(key))
        assert rejected[0] == "error"
        assert self.stack.delete(bad)[0] == "error"
        assert self.stack.insert([word, bad])[0] == "error"

    # ------------------------------------------------------------------
    @invariant()
    def same_content(self):
        """The stack holds the reference's content, holes included."""
        cam = self.stack.cam
        assert cam.occupancy == self.refs[0].occupancy
        if isinstance(cam, ShardedCam):
            assert cam.degraded_shards == ()  # no replica was fenced
            assert global_slots(cam.snapshot()) \
                == self.refs[0].snapshot().groups[0]
            return
        for session in (cam, getattr(cam, "shadow", cam)):
            for group, ref in enumerate(self.refs):
                assert session.stored_entries(group) == ref.entries()

    @invariant()
    def cycle_engine_cells(self):
        """Every group of a cycle-engine unit holds its reference's
        content: replicated groups are balanced copies."""
        unit = getattr(getattr(self.stack.cam, "shadow", self.stack.cam),
                       "unit", None)
        if unit is None:
            return
        per_group = self.refs if self.independent \
            else self.refs * unit.num_groups
        stats = collect_stats(unit)
        assert stats.consumed_cells == sum(ref.occupancy for ref in per_group)
        assert stats.live_cells == sum(
            entry is not None for ref in per_group for entry in ref.entries())
        assert stats.balanced or self.independent

    @invariant()
    def lockstep(self):
        cam = self.stack.cam
        if hasattr(cam, "shadow"):  # the audit engine's two halves
            shadow = cam.shadow
            assert (cam.cycle, cam.num_groups, cam.capacity) \
                == (shadow.cycle, shadow.num_groups, shadow.capacity)
        if self.stack.server is not None:
            assert self.stack.server.stats.decode_errors == 0


#: The operation vocabulary: every rule of the machine.
RULES = frozenset({"insert", "lookup", "delete", "reset", "regroup", "burst",
                   "kill", "past_int64"})


def _machine(name: str, build, vocabulary=RULES):
    """The machine on the stacks ``build`` makes, driving only the rules
    in ``vocabulary``: a rule outside it is masked in the subclass."""
    masked = {rule_name: None for rule_name in RULES - set(vocabulary)}
    return type(f"Differential_{name}", (Differential,),
                {"build_stack": staticmethod(build), **masked})


def _settings(examples: int, steps: int):
    return settings(max_examples=examples * (4 if _DEEP else 1),
                    stateful_step_count=steps, deadline=None)


def stack_case(name: str, build, examples: int, steps: int,
               vocabulary=RULES):
    """The ``TestCase`` of one stack: its own class, so a failure names
    the stack."""
    case = _machine(name, build, vocabulary).TestCase
    case.settings = _settings(examples, steps)
    return case


def run_differential(name: str, build, vocabulary=RULES):
    """Run the harness once, in the calling test, on the stacks
    ``build`` makes and the rules in ``vocabulary``, at a small budget:
    the entry point of a test that checks one property of one stack
    whose whole space a stack case here already covers."""
    run_state_machine_as_test(_machine(name, build, vocabulary),
                              settings=_settings(2, 15))


TestCycle = stack_case("cycle", unit_stack("cycle"), 12, 25)
TestBatch = stack_case("batch", unit_stack("batch"), 15, 25)
TestAudit = stack_case("audit", unit_stack("audit"), 15, 30)
TestShardedHash = stack_case("hash", sharded_stack("hash"), 12, 20)
TestShardedRange = stack_case("range", sharded_stack("range"), 12, 20)
TestShardedRoundRobin = stack_case(
    "round_robin", sharded_stack("round_robin"), 12, 20)
TestShardedReplicated = stack_case(
    "replicated", sharded_stack("hash", shards=2, replicas=2), 10, 20)
TestService = stack_case(
    "service", sharded_stack("round_robin", "hash", "range", serve=True),
    12, 20)
TestWire = stack_case(
    "wire", sharded_stack("hash", shards=2, serve=True, wire=True), 8, 20)
