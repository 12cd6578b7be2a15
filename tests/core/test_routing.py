"""Unit tests for the routing table and pipeline stages."""

import pytest

from repro.core import PostRouter, RoutingCompute, RoutingTable
from repro.errors import RoutingError
from repro.sim import Simulator


# ----------------------------------------------------------------------
# RoutingTable
# ----------------------------------------------------------------------
def test_default_contiguous_layout():
    table = RoutingTable(8, 2)
    assert table.as_list() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert table.blocks_per_group == 4
    assert table.blocks_in_group(1) == (4, 5, 6, 7)


def test_group_of():
    table = RoutingTable(4, 4)
    assert [table.group_of(b) for b in range(4)] == [0, 1, 2, 3]


def test_remap_contiguous_divisibility():
    table = RoutingTable(6)
    table.remap_contiguous(3)
    assert table.num_groups == 3
    with pytest.raises(RoutingError, match="divisor"):
        table.remap_contiguous(4)
    with pytest.raises(RoutingError):
        table.remap_contiguous(0)


def test_custom_remap_not_tied_to_layout():
    """Groups are logical: interleaved assignments are legal."""
    table = RoutingTable(4)
    table.remap([0, 1, 0, 1])
    assert table.num_groups == 2
    assert table.blocks_in_group(0) == (0, 2)
    assert table.blocks_in_group(1) == (1, 3)


def test_remap_validation():
    table = RoutingTable(4)
    with pytest.raises(RoutingError, match="covers"):
        table.remap([0, 1])
    with pytest.raises(RoutingError, match="dense"):
        table.remap([0, 2, 0, 2])
    with pytest.raises(RoutingError, match="expected"):
        table.remap([0, 0, 0, 1])


def test_blocks_in_group_range_check():
    table = RoutingTable(4, 2)
    with pytest.raises(RoutingError, match="out of range"):
        table.blocks_in_group(2)


def test_invalid_block_count():
    with pytest.raises(RoutingError):
        RoutingTable(0)


# ----------------------------------------------------------------------
# pipeline stages
# ----------------------------------------------------------------------
def test_routing_compute_two_stage_delay():
    stage = RoutingCompute(RoutingTable(4, 2))
    sim = Simulator(stage)
    stage.send("beat")
    sim.step(RoutingCompute.DEPTH)
    assert stage.tail() == (True, "beat")
    sim.step()
    assert stage.tail() == (False, None)


def test_post_router_depths_differ():
    router = PostRouter()
    sim = Simulator(router)
    router.send_search("s")
    router.send_update("u")
    sim.step(PostRouter.SEARCH_DEPTH)
    assert router.search_tail() == (True, "s")
    assert router.update_tail() == (False, None)
    sim.step(PostRouter.UPDATE_DEPTH - PostRouter.SEARCH_DEPTH)
    assert router.update_tail() == (True, "u")


def test_stage_depth_constants_sum_to_paper_overheads():
    """2 + 2 search stages and 2 + 3 update stages ahead of the blocks."""
    assert RoutingCompute.DEPTH + PostRouter.SEARCH_DEPTH == 4
    assert RoutingCompute.DEPTH + PostRouter.UPDATE_DEPTH == 5
