"""Shared helpers for the paper-exhibit benchmarks.

Each benchmark regenerates one table/figure of the paper, times it via
pytest-benchmark, prints the rendered rows, and archives the output
under ``benchmarks/results/`` so EXPERIMENTS.md can reference a
reproducible artefact.

Every benchmark module additionally emits a machine-readable manifest
(``benchmarks/results/BENCH_<module>.json``, schema
``repro.bench.manifest/v1``): per-test wall timings, the telemetry
metrics the module's own tests produced, and version/git provenance.
See ``docs/observability.md`` for the schema. A module's manifest is
written only when every test the module defines ran in the session, so
a run of a few selected tests (``file.py::test_name``, ``-k``, ``-m``)
leaves the committed manifest as it is.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from typing import Dict, Set

import pytest

from repro import obs

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: module name -> {test name -> wall seconds}, filled by the autouse timer.
_MODULE_TIMINGS: Dict[str, Dict[str, float]] = defaultdict(dict)
#: module name -> its metrics snapshot, taken when the module finishes.
_MODULE_METRICS: Dict[str, dict] = {}
#: module name -> names of every test the module defines, as collected
#: (before any ``::name``, ``-k`` or ``-m`` selection drops some).
_MODULE_TESTS: Dict[str, Set[str]] = defaultdict(set)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running benchmark (deselect with -m 'not slow')"
    )
    # Collect metrics (not spans) across the whole benchmark run so the
    # manifests carry the telemetry the instrumented code paths report.
    obs.reset()
    obs.enable(tracing=False)


def pytest_collection_finish(session):
    """Note every test of each module that has a selected test."""
    for module in {item.getparent(pytest.Module) for item in session.items}:
        if module is None:
            continue
        # The collector's own enumeration (parametrized ids included),
        # without ``Module.collect``'s second fixture registration.
        for node in super(pytest.Module, module).collect():
            if isinstance(node, pytest.Item):
                _MODULE_TESTS[module.obj.__name__].add(node.name)


@pytest.fixture(autouse=True, scope="module")
def _module_metrics(request):
    """Give each module a fresh registry, so its manifest carries the
    metrics its own tests produced and no other module's."""
    obs.reset()
    obs.enable(tracing=False)
    yield
    _MODULE_METRICS[request.module.__name__] = obs.metrics().snapshot()


@pytest.fixture(autouse=True)
def _bench_timer(request):
    """Record per-test wall time for the module's run manifest."""
    start = time.perf_counter()
    yield
    module = getattr(request.module, "__name__", "unknown")
    _MODULE_TIMINGS[module][request.node.name] = time.perf_counter() - start


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<module>.json`` manifest per benchmark module
    whose every test ran; say why a partly run module gets none."""
    if not _MODULE_TIMINGS:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    config = {
        "cam_engine": session.config.getoption("--cam-engine", default=None),
        "audit_sample": session.config.getoption("--audit-sample",
                                                 default=None),
        "exitstatus": int(exitstatus),
    }
    for module, timings in sorted(_MODULE_TIMINGS.items()):
        name = module[len("bench_"):] if module.startswith("bench_") else module
        skipped = sorted(_MODULE_TESTS[module] - set(timings))
        if skipped:
            shown = ", ".join(skipped[:3]) + (", ..." if skipped[3:] else "")
            note = (f"BENCH_{name}.json not written: {len(skipped)} of "
                    f"{len(_MODULE_TESTS[module])} tests in {module} did "
                    f"not run ({shown})")
            if reporter is not None:
                reporter.write_line("")
                reporter.write_line(note)
            else:
                print(note)
            continue
        manifest = obs.build_manifest(
            name=name,
            config=dict(config, module=module),
            timings=timings,
            metrics=_MODULE_METRICS[module],
        )
        obs.write_manifest(manifest, RESULTS_DIR)
    obs.disable()


@pytest.fixture
def cam_engine(request) -> str:
    """Execution engine selected via ``--cam-engine`` (default: batch)."""
    return request.config.getoption("--cam-engine")


@pytest.fixture
def audit_sample(request) -> float:
    """Episode sampling rate selected via ``--audit-sample``."""
    return request.config.getoption("--audit-sample")


def engine_kwargs(engine: str, sample: float) -> dict:
    """Session keyword arguments for an engine-parameterised harness."""
    kwargs = {"engine": engine}
    if engine == "audit":
        kwargs.update(audit_sample=sample, audit_seed=0, strict=True)
    return kwargs


@pytest.fixture
def record_text(capsys):
    """Archive free-form text under benchmarks/results and echo it."""

    def _record(name: str, text: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.rstrip("\n") + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _record


@pytest.fixture
def record_exhibit(capsys):
    """Print an exhibit and archive its text under benchmarks/results."""

    def _record(name: str, table) -> None:
        text = table.render()
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _record


def run_once(benchmark, fn):
    """Time ``fn`` with a single measured round (exhibits are heavy)."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
