"""The differential harness at the paper's two-group geometry.

``tests/test_differential.py``'s ``cycle`` and ``audit`` stacks draw
their configurations; these two cases pin the 64-entry, two-group unit
the examples use, so every step of an interleaving -- delete holes,
resets, regroups, refills -- lands on one shape.
"""

from hypothesis import strategies as st

from repro.core import unit_for_entries
from tests.test_differential import stack_case, unit_stack

TWO_GROUPS = st.just(unit_for_entries(64, block_size=16, data_width=12,
                                      bus_width=64, default_groups=2))

#: The cycle engine against the reference.
TestCamMachine = stack_case("cam", unit_stack("cycle", TWO_GROUPS), 2, 15)
#: Cycle engine, batch engine and reference: the strict audit engine
#: shadows every step, so results, stats and cycle counters agree.
TestTriEngineMachine = stack_case(
    "tri_engine", unit_stack("audit", TWO_GROUPS), 2, 15)
