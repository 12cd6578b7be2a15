"""The async service in front of the hash policy, against the golden
reference.

A small run of the differential harness (``tests/test_differential.py``)
on ``CamService -> ShardedCam``, so concurrent lookup bursts share
micro-batches; the harness's ``service`` stack draws the round-robin,
hash and range policies.
"""

import pytest

from tests.test_differential import run_differential, sharded_stack


@pytest.mark.parametrize("policy", ["hash"])
def test_async_service_matches_reference(policy):
    run_differential(f"service_{policy}", sharded_stack(policy, serve=True))
