#!/usr/bin/env python3
"""Execution engines: the vectorized batch fast path and the audit mode.

Every session-level consumer can pick an execution engine:

- ``engine="cycle"`` (default) runs the register-accurate simulator;
- ``engine="batch"`` runs the vectorized NumPy engine with analytic
  cycle accounting -- bit-identical results, orders of magnitude
  faster wall-clock;
- ``engine="audit"`` runs the batch engine while replaying a seeded
  sample of episodes through a cycle-accurate shadow session,
  asserting bit-exact result and cycle agreement as it goes.

This example times the same workload on the cycle and batch engines,
shows the audit engine catching an injected fast-path corruption, and
runs the equivalence checker from :mod:`repro.core.verification`
(audit engine vs cycle-accurate shadow vs golden reference).

Run:  python examples/batch_audit.py
"""

import time

import repro
from repro.core import check_equivalence, unit_for_entries
from repro.errors import AuditError


def main() -> None:
    config = unit_for_entries(
        256, block_size=64, data_width=32, bus_width=512, default_groups=2,
    )
    # Replicated mode: each of the 2 groups holds 128 entries.
    words = [1000 + 7 * i for i in range(100)]
    probes = [words[i] for i in range(0, 100, 5)] + [1, 2, 3]

    # --- identical results, identical cycle counts, faster wall-clock --
    print("engine comparison (same workload)")
    outcomes = {}
    for engine in ("cycle", "batch"):
        session = repro.open_session(config, engine=engine)
        start = time.perf_counter()
        session.update(words)
        hits = sum(session.search_one(p).hit for p in probes)
        session.delete(words[0])
        elapsed = time.perf_counter() - start
        outcomes[engine] = (hits, session.cycle)
        print(f"  {engine:5s}: {hits} hits, {session.cycle} simulated "
              f"cycles, {elapsed * 1e3:8.2f} ms wall-clock")
    assert outcomes["cycle"] == outcomes["batch"]
    print("  -> bit-identical results and cycle accounting\n")

    # --- the audit engine: batch speed, sampled cycle-accurate shadow --
    print("audit engine (every episode shadowed: audit_sample=1.0)")
    session = repro.open_session(config, engine="audit", audit_sample=1.0,
                                 audit_seed=42)
    session.update(words[:50])
    for probe in (words[3], words[7], 999):
        session.search_one(probe)
    report = session.audit_report
    print(f"  {report.summary()}\n")

    # Corrupt the fast path behind the audit's back: the very next
    # audited search diverges from the cycle-accurate shadow and raises.
    print("injecting a single-bit corruption into the fast path...")
    session._stores[0].values[3] ^= 1
    try:
        session.search_one(words[3])
    except AuditError as exc:
        print(f"  caught: {exc}\n")

    # --- the equivalence checker ---------------------------------------
    print("equivalence check (batch vs cycle vs golden reference)")
    report = check_equivalence(config, operations=60, seed=7)
    print(f"  {report.summary()}")
    assert report.passed


if __name__ == "__main__":
    main()
