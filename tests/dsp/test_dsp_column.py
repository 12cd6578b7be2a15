"""Differential fuzz of :class:`DspColumn` against scalar DSP48E2 slices.

Every cycle a column of N slices and N scalar :class:`DSP48E2` slices
get the same random inputs -- A/B/C ports (one value broadcast or one
per slice), per-slice clock enables, the mode, and now and then a
reset -- and must then hold identical A/B/C pipes, P, PATTERNDETECT and
PATTERNBDETECT, and have traced identical events. The scalar slice is
the oracle: it is the full UG579 model ``tests/dsp`` pins down. A
second case drives disjoint ranges of one column in place, as the
blocks of a CAM unit drive the unit's column.

Set ``HYPOTHESIS_PROFILE=deep`` for a longer soak.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import (
    ALL_ONES,
    B_WIDTH,
    CAM_ALUMODE,
    CAM_OPMODE,
    DSP48E2,
    AluMode,
    Dsp48Attributes,
    DspColumn,
    WMux,
    XMux,
    YMux,
    ZMux,
    cam_cell_attributes,
    mask_for,
    pack_opmode,
)
from repro.errors import ConfigError
from repro.sim import Simulator, Trace

_DEEP = os.environ.get("HYPOTHESIS_PROFILE", "") == "deep"

#: Data widths of the CAM cells covered (the MASK ignores the rest).
WIDTHS = (1, 8, 16, 32, 47, 48)

#: Every mode computing P = (A:B) XOR C, the CAM's among them.
MODES = [
    (pack_opmode(XMux.AB, y, ZMux.C, w), int(alumode))
    for alumode, y in ((AluMode.XOR, YMux.ZERO),
                       (AluMode.XNOR, YMux.ALL_ONES))
    for w in WMux
]
CAM_MODE = (CAM_OPMODE, int(CAM_ALUMODE))
assert CAM_MODE in MODES


def cam_attributes(width: int) -> Dsp48Attributes:
    """The CAM cell's attributes for ``width``-bit words."""
    return cam_cell_attributes(mask=ALL_ONES ^ mask_for(width))


#: The CAM cell's attributes, now and then with another pattern
#: detector set-up.
ATTRIBUTES = st.builds(
    lambda width, detector: replace(cam_attributes(width), **detector),
    st.sampled_from(WIDTHS),
    st.one_of(
        st.just({}),
        st.fixed_dictionaries({
            "use_pattern_detect": st.booleans(),
            "pattern": st.integers(0, ALL_ONES),
            "mask": st.integers(0, ALL_ONES),
        }),
    ),
)


def port(data, size: int, bits: int):
    """One value for every slice, or one value per slice."""
    values = st.integers(0, (1 << bits) - 1)
    if data.draw(st.booleans()):
        return data.draw(values)
    return data.draw(st.lists(values, min_size=size, max_size=size))


def enable(data, size: int):
    if data.draw(st.integers(0, 2)):
        return data.draw(st.booleans())
    return data.draw(st.lists(st.booleans(), min_size=size, max_size=size))


def trace_rows(trace: Trace):
    return [(e.cycle, e.component, e.signal, e.value, type(e.value))
            for e in trace]


@settings(max_examples=400 if _DEEP else 60, deadline=None)
@given(attributes=ATTRIBUTES, size=st.integers(1, 6),
       cycles=st.integers(1, 24), data=st.data())
def test_column_matches_scalar_slices(attributes, size, cycles, data):
    names = [f"slice{i}" for i in range(size)]
    column = DspColumn(size, attributes, name="column", slice_names=names)
    slices = [DSP48E2(attributes, name=name) for name in names]
    column_trace, slice_trace = Trace(), Trace()
    column_sim = Simulator(column, trace=column_trace)
    slice_sim = Simulator(*slices, trace=slice_trace)
    for _ in range(cycles):
        if data.draw(st.integers(0, 7)) == 0:
            column_sim.reset()
            slice_sim.reset()
        opmode, alumode = data.draw(
            st.one_of(st.just(CAM_MODE), st.sampled_from(MODES)))
        inputs = {
            "a": port(data, size, 32),  # wider than A: the port masks
            "b": port(data, size, 20),  # wider than B
            "c": port(data, size, 50 if data.draw(st.booleans()) else 48),
            "ce_a": enable(data, size),
            "ce_b": enable(data, size),
            "ce_c": enable(data, size),
            "ce_p": enable(data, size),
        }
        column.opmode, column.alumode = opmode, alumode
        for name, value in inputs.items():
            setattr(column, name, value)
        for index, dsp in enumerate(slices):
            dsp.opmode, dsp.alumode = opmode, alumode
            for name, value in inputs.items():
                setattr(dsp, name,
                        value[index] if isinstance(value, list) else value)
        held = (column.p, column.patterndetect, column.patternbdetect)
        copies = [array.copy() for array in held]
        column_sim.step()
        slice_sim.step()
        for index, dsp in enumerate(slices):
            assert column.registers(index) == dsp.registers()
        # Committed arrays are swapped, never written in place.
        for array, copy in zip(held, copies):
            assert np.array_equal(array, copy)
    assert trace_rows(column_trace) == trace_rows(slice_trace)


def drive_range(data, column, slices, start, stop):
    """One driver's cycle on slices ``[start, stop)``, written in place
    into the column's port arrays as a CAM block drives its range: now
    and then a new key on C (held otherwise), and now and then a write
    of consecutive slices with their A/B enables raised."""
    if data.draw(st.booleans()):
        key = data.draw(st.integers(0, ALL_ONES))
        column.c[start:stop] = key
        for dsp in slices[start:stop]:
            dsp.c = key
    if data.draw(st.booleans()):
        first = data.draw(st.integers(start, stop - 1))
        last = data.draw(st.integers(first + 1, stop))
        words = data.draw(st.lists(st.integers(0, ALL_ONES),
                                   min_size=last - first,
                                   max_size=last - first))
        values = np.array(words, dtype=np.uint64)
        column.a[first:last] = values >> B_WIDTH
        column.b[first:last] = values & mask_for(B_WIDTH)
        if column.ce_a is False:  # the column's first write this cycle
            column.ce_a = column.ce_b = np.zeros(column.size, dtype=bool)
        column.ce_a[first:last] = True
        for dsp, word in zip(slices[first:last], words):
            dsp.a, dsp.b = word >> B_WIDTH, word & mask_for(B_WIDTH)
            dsp.ce_a = dsp.ce_b = True


@settings(max_examples=300 if _DEEP else 40, deadline=None)
@given(attributes=ATTRIBUTES,
       sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
       cycles=st.integers(1, 16), data=st.data())
def test_column_ranges_match_scalar_slices(attributes, sizes, cycles, data):
    """Several drivers -- the blocks of a CAM unit -- each drive their
    own disjoint range of one column, against as many scalar slices."""
    ranges = []
    for size in sizes:
        start = ranges[-1][1] if ranges else 0
        ranges.append((start, start + size))
    names = [f"slice{i}" for i in range(ranges[-1][1])]
    column = DspColumn(len(names), attributes, name="column",
                       slice_names=names)
    slices = [DSP48E2(attributes, name=name) for name in names]
    column_trace, slice_trace = Trace(), Trace()
    column_sim = Simulator(column, trace=column_trace)
    slice_sim = Simulator(*slices, trace=slice_trace)
    for _ in range(cycles):
        if data.draw(st.integers(0, 7)) == 0:
            column_sim.reset()
            slice_sim.reset()
        # The owner's tie-off: one mode, every write enable low.
        opmode, alumode = data.draw(
            st.one_of(st.just(CAM_MODE), st.sampled_from(MODES)))
        column.opmode, column.alumode = opmode, alumode
        column.ce_a = column.ce_b = False
        for dsp in slices:
            dsp.opmode, dsp.alumode = opmode, alumode
            dsp.ce_a = dsp.ce_b = False
        for start, stop in data.draw(st.permutations(ranges)):
            drive_range(data, column, slices, start, stop)
        held = (column.p, column.patterndetect, column.patternbdetect)
        copies = [array.copy() for array in held]
        column_sim.step()
        slice_sim.step()
        for index, dsp in enumerate(slices):
            assert column.registers(index) == dsp.registers()
        assert column.stored_ab.tolist() == [dsp.stored_ab for dsp in slices]
        # Committed arrays are swapped, never written in place.
        for array, copy in zip(held, copies):
            assert np.array_equal(array, copy)
    assert trace_rows(column_trace) == trace_rows(slice_trace)


def test_stored_ab_matches_scalar():
    attributes = cam_attributes(48)
    column = DspColumn(2, attributes)
    slices = [DSP48E2(attributes) for _ in range(2)]
    sims = [Simulator(column), Simulator(*slices)]
    column.opmode, column.alumode = CAM_MODE
    column.a, column.b = [0x3FFF_FFFF, 7], [0x3_FFFF, 9]
    for dsp, a, b in zip(slices, column.a, column.b):
        dsp.opmode, dsp.alumode = CAM_MODE
        dsp.a, dsp.b = a, b
    for sim in sims:
        sim.step()
    assert column.stored_ab.tolist() == [dsp.stored_ab for dsp in slices]


#: Modes no DSP48E2 accepts: both models raise the same error.
INVALID_MODES = [
    (1 << 9, int(CAM_ALUMODE)),                          # not 9 bits
    (CAM_OPMODE | (0b111 << 4), int(CAM_ALUMODE)),       # reserved Z
    (CAM_OPMODE, 0b0110),                                # reserved ALUMODE
    (pack_opmode(XMux.M, YMux.M, ZMux.C), int(AluMode.XOR)),
    (pack_opmode(XMux.AB, YMux.C, ZMux.C), int(AluMode.AND)),
]


@pytest.mark.parametrize("opmode, alumode", INVALID_MODES)
def test_invalid_mode_raises_on_both_models(opmode, alumode):
    errors = []
    for model in (DspColumn(3, cam_attributes(32)),
                  DSP48E2(cam_attributes(32))):
        sim = Simulator(model)
        model.opmode, model.alumode = opmode, alumode
        with pytest.raises(ConfigError) as caught:
            sim.step()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


#: Valid UG579 modes other than P = (A:B) XOR C.
UNSUPPORTED_MODES = [
    (CAM_OPMODE, int(AluMode.ADD)),                      # arithmetic
    (CAM_OPMODE, int(AluMode.AND)),                      # another logic op
    (CAM_OPMODE, int(AluMode.XNOR)),                     # XNOR with Y = 0
    (pack_opmode(XMux.P, YMux.ZERO, ZMux.C), int(AluMode.XOR)),
    (pack_opmode(XMux.M, YMux.ZERO, ZMux.C), int(AluMode.XOR)),
    (pack_opmode(XMux.AB, YMux.ZERO, ZMux.PCIN), int(AluMode.XOR)),
]


@pytest.mark.parametrize("opmode, alumode", UNSUPPORTED_MODES)
def test_unsupported_mode_raises_on_the_column(opmode, alumode):
    column = DspColumn(3, cam_attributes(32))
    sim = Simulator(column)
    column.opmode, column.alumode = opmode, alumode
    with pytest.raises(ConfigError, match="needs the scalar DSP48E2"):
        sim.step()
    # The scalar slice models the mode; it stays the full UG579 model.
    dsp = DSP48E2(cam_attributes(32))
    sim = Simulator(dsp)
    dsp.opmode, dsp.alumode = opmode, alumode
    sim.step()


@pytest.mark.parametrize("attributes", [
    Dsp48Attributes(use_mult=True),
    replace(cam_attributes(32), preg=0),
    replace(cam_attributes(32), areg=2),
    replace(cam_attributes(32), creg=0),
])
def test_unsupported_attributes_rejected(attributes):
    with pytest.raises(ConfigError):
        DspColumn(4, attributes)


def test_port_shapes_checked():
    column = DspColumn(4, cam_attributes(16))
    sim = Simulator(column)
    column.opmode, column.alumode = CAM_MODE
    column.c = [1, 2, 3]
    with pytest.raises(ConfigError, match="4 slices"):
        sim.step()
    column.c, column.ce_a = 0, [True, False]
    with pytest.raises(ConfigError, match="4 slices"):
        sim.step()
