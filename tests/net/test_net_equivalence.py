"""The network path, ``CamClient -> CamServer -> CamService ->
ShardedCam``, against the golden reference.

Both run the differential harness (``tests/test_differential.py``) on
its wire stack: the first without connection kills, the second with
the kill rule alone beside lookups, so every mutation it makes has its
connections severed in flight and must land exactly once.
"""

from tests.test_differential import RULES, run_differential, sharded_stack

WIRE = sharded_stack("hash", shards=2, serve=True, wire=True)


def test_network_path_bit_identical_to_in_process():
    run_differential("wire_clean", WIRE, RULES - {"kill"})


def test_network_path_survives_connection_kill():
    run_differential("wire_kill", WIRE, {"kill", "lookup", "burst"})
