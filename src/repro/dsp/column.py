"""A column of DSP48E2 slices stepped as one array operation.

In the paper every cell of a CAM unit is a DSP48E2 slice, all in one
OPMODE/ALUMODE (``P = (A:B) XOR C`` with the pattern detector on P),
and a search key is broadcast to every slice of its group, so the unit
is a word-parallel SIMD machine. :class:`DspColumn` models it that way:
one component holds the A/B/C input registers, P and
PATTERNDETECT/PATTERNBDETECT of every slice as NumPy arrays (index
``i`` is slice ``i``), and one cycle of the column is a handful of
array operations instead of N Python slices. A CAM unit steps all of
its slices as one column; each of its blocks drives and reads one
range of slices.

The registers stay explicit and follow the :class:`repro.sim.Component`
contract: :meth:`DspColumn.compute` schedules new arrays and the commit
swaps them in. A committed array is never mutated in place, so a
reference to one is a stable snapshot of that register.

The column models what the CAM configures: single A/B/C registers, a
registered P, no multiplier, and the mode ``P = (A:B) XOR C``. Any other
valid mode raises :class:`ConfigError`, and an invalid mode raises the
same error the scalar :class:`DSP48E2` raises. The scalar slice remains
the full UG579 model and the oracle the column is fuzzed against.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.dsp.attributes import Dsp48Attributes
from repro.dsp.dsp48e2 import _DECODE_CACHE, SliceRegisters, _decode
from repro.dsp.opmode import ALL_ONES, AluMode
from repro.dsp.primitives import A_WIDTH, B_WIDTH, mask_for
from repro.errors import ConfigError
from repro.sim.component import Component

_A_MASK = mask_for(A_WIDTH)
_B_MASK = mask_for(B_WIDTH)

#: (OPMODE, ALUMODE) pairs seen so far that select ``(A:B) XOR C``.
_XOR_MODES: Set[Tuple[int, int]] = set()


def _check_mode(opmode: int, alumode: int) -> None:
    """Accept a mode computing ``(A:B) XOR C``; raise on any other."""
    decoded = _DECODE_CACHE.get((opmode, alumode)) or _decode(opmode, alumode)
    if not decoded.ab_xor_c:
        raise ConfigError(
            f"DspColumn models the CAM mode P = (A:B) XOR C only; "
            f"OPMODE {opmode:#05x} with ALUMODE {AluMode(alumode).name} "
            "needs the scalar DSP48E2"
        )
    _XOR_MODES.add((opmode, alumode))


class DspColumn(Component):
    """``size`` DSP48E2 slices sharing attributes and one mode.

    Input ports (assign before each cycle): :attr:`opmode` and
    :attr:`alumode` (one value for the column), and :attr:`a`,
    :attr:`b`, :attr:`c` and the clock enables :attr:`ce_a`,
    :attr:`ce_b`, :attr:`ce_c`, :attr:`ce_p`, each either one value
    broadcast to every slice or an array with one entry per slice.
    After a reset the data ports are zero arrays of the column's own,
    so several drivers can each write their own range of slices in
    place; no register ever aliases a port array.

    Output registers (arrays over the slices, read after a cycle):
    :attr:`p`, :attr:`patterndetect`, :attr:`patternbdetect`.
    :meth:`registers` gives one slice's registers as plain values.

    With a tracer attached, every cycle records ``p`` and
    ``patterndetect`` of each slice under its name in
    ``slice_names``, slice by slice, as the scalar slices did.
    """

    def __init__(
        self,
        size: int,
        attributes: Dsp48Attributes,
        name: Optional[str] = None,
        slice_names: Optional[Sequence[str]] = None,
    ) -> None:
        super().__init__(name)
        if size < 1:
            raise ConfigError(f"a DSP column needs >= 1 slice, got {size}")
        depths = (attributes.areg, attributes.breg, attributes.creg,
                  attributes.preg)
        if depths != (1, 1, 1, 1) or attributes.use_mult:
            raise ConfigError(
                "DspColumn models the CAM cell's slice: AREG = BREG = "
                "CREG = PREG = 1 and no multiplier"
            )
        if slice_names is None:
            slice_names = [f"{self.name}[{i}]" for i in range(size)]
        if len(slice_names) != size:
            raise ConfigError(
                f"{self.name}: {len(slice_names)} slice names for {size} slices"
            )
        self.size = size
        self.attributes = attributes
        self.slice_names: Tuple[str, ...] = tuple(slice_names)
        self._zeros = np.zeros(size, dtype=np.uint64)
        self._lows = np.zeros(size, dtype=bool)
        # Pattern detector as (compared bits, PATTERN and ~PATTERN on
        # them), one copy per slice so every test is array against array.
        if attributes.use_pattern_detect:
            care = ~attributes.mask & ALL_ONES
            self._detector = tuple(
                np.full(size, value, dtype=np.uint64)
                for value in (care, attributes.pattern & care,
                              ~attributes.pattern & care)
            )
        else:
            self._detector = None
        # A:B concatenation of the last (A, B) register arrays seen;
        # committed arrays never change, so identity keys it.
        self._ab = (None, None, None)
        self.reset_state()

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        zeros = self._zeros
        # Input ports.
        self.a = np.zeros(self.size, dtype=np.uint64)
        self.b = np.zeros(self.size, dtype=np.uint64)
        self.c = np.zeros(self.size, dtype=np.uint64)
        self.opmode = 0
        self.alumode = int(AluMode.ADD)
        self.ce_a = True
        self.ce_b = True
        self.ce_c = True
        self.ce_p = True
        # Registers.
        self._a_reg = zeros
        self._b_reg = zeros
        self._c_reg = zeros
        self.p = zeros
        self.patterndetect = self._lows
        self.patternbdetect = self._lows

    # ------------------------------------------------------------------
    def _port(self, value, mask: int) -> np.ndarray:
        """A data port as one masked value per slice."""
        if isinstance(value, (int, np.integer)):
            return np.full(self.size, int(value) & mask, dtype=np.uint64)
        array = np.asarray(value, dtype=np.uint64)
        if array.shape != (self.size,):
            raise ConfigError(
                f"{self.name}: port carries {array.shape} values for "
                f"{self.size} slices"
            )
        return array & mask

    def _enable(self, value):
        """A clock enable as True, False or one bit per slice."""
        if value is True or value is False:
            return value
        bits = np.asarray(value, dtype=bool)
        if bits.ndim == 0:
            return bool(bits)
        if bits.shape != (self.size,):
            raise ConfigError(
                f"{self.name}: enable carries {bits.shape} bits for "
                f"{self.size} slices"
            )
        if bits.all():
            return True
        return bits if bits.any() else False

    # ------------------------------------------------------------------
    def compute(self) -> None:
        """One cycle of every slice."""
        mode = (self.opmode, self.alumode)
        if mode not in _XOR_MODES:
            _check_mode(*mode)
        a_reg = self._a_reg
        b_reg = self._b_reg
        cached_a, cached_b, ab = self._ab
        if a_reg is not cached_a or b_reg is not cached_b:
            ab = (a_reg << B_WIDTH) | b_reg
            self._ab = (a_reg, b_reg, ab)
        alu_out = ab ^ self._c_reg
        detector = self._detector
        if detector is None:
            pd = pbd = self._lows
        else:
            care, pattern, anti_pattern = detector
            compared = alu_out & care
            pd = compared == pattern
            pbd = compared == anti_pattern

        updates = {}
        for name, port, mask, enable in (
            ("_a_reg", self.a, _A_MASK, self.ce_a),
            ("_b_reg", self.b, _B_MASK, self.ce_b),
            ("_c_reg", self.c, ALL_ONES, self.ce_c),
        ):
            enable = self._enable(enable)
            if enable is True:
                updates[name] = self._port(port, mask)
            elif enable is not False:
                updates[name] = np.where(enable, self._port(port, mask),
                                         getattr(self, name))
        ce_p = self._enable(self.ce_p)
        if ce_p is True:
            updates["p"] = alu_out
            updates["patterndetect"] = pd
            updates["patternbdetect"] = pbd
        elif ce_p is not False:
            updates["p"] = np.where(ce_p, alu_out, self.p)
            updates["patterndetect"] = np.where(ce_p, pd, self.patterndetect)
            updates["patternbdetect"] = np.where(ce_p, pbd,
                                                 self.patternbdetect)
        if updates:
            if self._pending:
                self.schedule(**updates)
            else:
                self._pending = updates
        tracer = self._tracer
        if tracer is not None:
            for name, p, detect in zip(self.slice_names, alu_out.tolist(),
                                       pd.tolist()):
                tracer.record(name, {"p": p, "patterndetect": detect})

    # ------------------------------------------------------------------
    # register views
    # ------------------------------------------------------------------
    @property
    def stored_ab(self) -> np.ndarray:
        """Current 48-bit A:B register contents of every slice."""
        return (self._a_reg << B_WIDTH) | self._b_reg

    def registers(self, index: int) -> SliceRegisters:
        """The registers of slice ``index`` as plain Python values."""
        if not 0 <= index < self.size:
            raise IndexError(f"{self.name}: no slice {index} of {self.size}")
        return SliceRegisters(
            a_pipe=[int(self._a_reg[index])],
            b_pipe=[int(self._b_reg[index])],
            c_pipe=[int(self._c_reg[index])],
            p=int(self.p[index]),
            patterndetect=bool(self.patterndetect[index]),
            patternbdetect=bool(self.patternbdetect[index]),
        )
