"""Model-based stateful testing: the CAM vs the golden reference.

A hypothesis ``RuleBasedStateMachine`` drives an arbitrary interleaving
of updates, searches, deletes and resets against both the
cycle-accurate :class:`CamSession` and the list-backed
:class:`ReferenceCam`, asserting bit-identical results after every
step. This covers interaction sequences the example-based tests cannot
enumerate: delete-then-refill, reset mid-stream, duplicate churn, and
occupancy bookkeeping across all of it.

:class:`TriEngineMachine` extends the fuzz to the vectorized batch
engine (:mod:`repro.core.batch`): the cycle simulator, the batch
engine and the reference run the same interleaving in lockstep --
including delete-by-content holes (dead cells that are never
reclaimed) and runtime group reconfiguration, the two state
transitions with the trickiest bookkeeping.
"""

import os

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    BatchSession,
    CamSession,
    ReferenceCam,
    binary_entry,
    collect_stats,
    unit_for_entries,
)

WIDTH = 12
CAPACITY = 32  # per group: 2 blocks of 16

values = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


class CamMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.session = CamSession(unit_for_entries(
            64, block_size=16, data_width=WIDTH, bus_width=64,
            default_groups=2,
        ))
        self.reference = ReferenceCam(CAPACITY)

    # ------------------------------------------------------------------
    @property
    def free(self) -> int:
        return CAPACITY - self.reference.occupancy

    @precondition(lambda self: self.free > 0)
    @rule(data=st.data())
    def update(self, data):
        batch = data.draw(
            st.lists(values, min_size=1, max_size=min(4, self.free)),
            label="batch",
        )
        entries = [binary_entry(v, WIDTH) for v in batch]
        self.session.update(entries)
        self.reference.update(entries)

    @rule(key=values)
    def search(self, key):
        hw = self.session.search_one(key)
        gold = self.reference.search(key)
        assert hw.hit == gold.hit
        assert hw.address == gold.address
        assert hw.match_vector == gold.match_vector
        assert hw.match_count == gold.match_count

    @rule(key=values)
    def delete(self, key):
        hw = self.session.delete(key)
        gold = self.reference.delete(key)
        assert hw.match_vector == gold.match_vector

    @rule()
    def reset(self):
        self.session.reset()
        self.reference.reset()

    @rule(keys=st.lists(values, min_size=2, max_size=2))
    def multi_query(self, keys):
        first, second = self.session.search(keys)
        assert first.match_vector == self.reference.search(keys[0]).match_vector
        assert second.match_vector == self.reference.search(keys[1]).match_vector

    # ------------------------------------------------------------------
    @invariant()
    def occupancy_consistent(self):
        assert self.session.occupancy == self.reference.occupancy

    @invariant()
    def replicas_balanced(self):
        stats = collect_stats(self.session.unit)
        assert stats.balanced
        assert stats.consumed_cells == 2 * self.reference.occupancy

    @invariant()
    def live_cells_match_reference(self):
        stats = collect_stats(self.session.unit)
        live_reference = sum(
            1 for entry in self.reference.entries() if entry is not None
        )
        assert stats.live_cells == 2 * live_reference


CamMachine.TestCase.settings = settings(
    max_examples=24, stateful_step_count=20, deadline=None
)
TestCamMachine = CamMachine.TestCase


class TriEngineMachine(RuleBasedStateMachine):
    """Cycle engine, batch engine and golden reference in lockstep.

    Beyond :class:`CamMachine`, this machine exercises delete-by-content
    *holes* (searches and refills over dead cells) and runtime group
    reconfiguration (``set_groups``), asserting result, occupancy and
    cycle-counter agreement between the two engines after every rule.
    """

    def __init__(self):
        super().__init__()
        config = unit_for_entries(
            64, block_size=16, data_width=WIDTH, bus_width=64,
            default_groups=2,
        )
        self.cycle = CamSession(config)
        self.batch = BatchSession(config)
        self.reference = ReferenceCam(self.cycle.capacity)
        self.num_blocks = config.num_blocks

    @property
    def free(self) -> int:
        return self.reference.capacity - self.reference.occupancy

    # ------------------------------------------------------------------
    @precondition(lambda self: self.free > 0)
    @rule(data=st.data())
    def update(self, data):
        batch = data.draw(
            st.lists(values, min_size=1, max_size=min(4, self.free)),
            label="batch",
        )
        entries = [binary_entry(v, WIDTH) for v in batch]
        assert self.cycle.update(entries) == self.batch.update(entries)
        self.reference.update(entries)

    @rule(key=values)
    def search(self, key):
        hw = self.cycle.search_one(key)
        fast = self.batch.search_one(key)
        gold = self.reference.search(key)
        assert hw == fast
        assert hw.match_vector == gold.match_vector

    @precondition(lambda self: self.reference.occupancy > 0)
    @rule(key=values)
    def delete_makes_holes(self, key):
        hw = self.cycle.delete(key)
        fast = self.batch.delete(key)
        gold = self.reference.delete(key)
        assert hw.match_vector == fast.match_vector == gold.match_vector
        # The hole is permanent: the key no longer matches anywhere.
        assert not self.batch.search_one(key).hit
        assert not self.cycle.search_one(key).hit

    @rule(divisor_index=st.integers(0, 2))
    def regroup(self, divisor_index):
        divisors = [d for d in (1, 2, 4) if self.num_blocks % d == 0]
        target = divisors[divisor_index % len(divisors)]
        self.cycle.set_groups(target)
        self.batch.set_groups(target)
        # Regrouping flushes content; the reference starts over at the
        # new per-group capacity.
        self.reference = ReferenceCam(self.cycle.capacity)

    @rule()
    def reset(self):
        self.cycle.reset()
        self.batch.reset()
        self.reference.reset()

    @rule(keys=st.lists(values, min_size=2, max_size=2))
    def multi_query(self, keys):
        assert self.cycle.search(keys) == self.batch.search(keys)

    # ------------------------------------------------------------------
    @invariant()
    def engines_agree_on_state(self):
        assert self.cycle.occupancy == self.batch.occupancy \
            == self.reference.occupancy
        assert self.cycle.num_groups == self.batch.num_groups
        assert self.cycle.capacity == self.batch.capacity

    @invariant()
    def cycle_counters_lockstep(self):
        assert self.cycle.cycle == self.batch.cycle

    @invariant()
    def holes_stay_dead(self):
        # Both engines' content (holes as None, in address order) must
        # mirror the reference exactly, and the cycle engine must hold
        # one live replica per group of every live entry.
        ref_entries = self.reference.entries()
        assert self.batch.stored_entries(0) == ref_entries
        assert self.cycle.stored_entries(0) == ref_entries
        live_reference = sum(1 for e in ref_entries if e is not None)
        stats = collect_stats(self.cycle.unit)
        assert stats.live_cells == self.cycle.num_groups * live_reference


_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"

TriEngineMachine.TestCase.settings = settings(
    max_examples=120 if _DEEP else 50,
    stateful_step_count=50 if _DEEP else 40,
    deadline=None,
)
TestTriEngineMachine = TriEngineMachine.TestCase
