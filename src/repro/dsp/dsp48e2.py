"""Register-accurate functional model of the Xilinx DSP48E2 slice.

The model reproduces the dataflow of UG579 figure 1-1 at cycle
granularity:

- A/B input register chains (AREG/BREG in 0..2) feeding both the
  multiplier and the 48-bit ``A:B`` concatenation,
- the C input register (CREG),
- a 27x18 multiplier with optional MREG,
- the X/Y/Z/W multiplexers decoded from OPMODE,
- the 48-bit ALU (arithmetic add/sub and the two-input logic unit),
- the output register PREG and the pattern detector
  (``PATTERNDETECT = ((P ^ PATTERN) & ~MASK) == 0``), which is what the
  CAM cell uses as its match bit.

Clock enables (``ce_a`` etc.) gate each register chain, exactly like the
silicon CE pins; the CAM cell uses ``ce_a/ce_b`` as its *update* strobe
so a stored word is held until explicitly rewritten.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError
from repro.dsp.attributes import Dsp48Attributes
from repro.dsp.opmode import (
    ALL_ONES,
    AluMode,
    WMux,
    XMux,
    YMux,
    ZMux,
    apply_logic,
    is_logic_mode,
    logic_function,
    unpack_opmode,
)
from repro.dsp.primitives import A_WIDTH, B_WIDTH, DSP_WIDTH, mask_for
from repro.sim.component import Component

#: The multiplier consumes A[26:0] (27 bits) and B[17:0] (18 bits).
MULT_A_WIDTH = 27

_A_MASK = mask_for(A_WIDTH)
_B_MASK = mask_for(B_WIDTH)
_MULT_A_MASK = mask_for(MULT_A_WIDTH)


class _Decoded(NamedTuple):
    """One (OPMODE, ALUMODE) pair, decoded and validated."""

    x: XMux
    y: YMux
    z: ZMux
    w: WMux
    alumode: AluMode
    #: Two-input logic function of X and Z; ``None`` in arithmetic mode.
    logic: Optional[str]
    #: The CAM cell's mode, ``P = (A:B) XOR C``, which compute() inlines.
    ab_xor_c: bool


class SliceRegisters(NamedTuple):
    """Register contents of one slice, as plain Python values.

    Each pipe lists a register chain from the port side (index 0) to
    the register feeding the ALU (index -1).
    """

    a_pipe: List[int]
    b_pipe: List[int]
    c_pipe: List[int]
    p: int
    patterndetect: bool
    patternbdetect: bool


#: Decodes shared by every slice. Only valid pairs are cached, so an
#: invalid mode raises in every cycle it is presented.
_DECODE_CACHE: Dict[Tuple[int, int], _Decoded] = {}


def _decode(opmode: int, alumode: int) -> _Decoded:
    """Decode OPMODE/ALUMODE, raising :class:`ConfigError` when invalid."""
    x_sel, y_sel, z_sel, w_sel = unpack_opmode(opmode)
    try:
        mode = AluMode(alumode)
    except ValueError:
        raise ConfigError(f"unsupported ALUMODE {alumode:#06b}")
    logic = None
    if is_logic_mode(mode):
        if (x_sel, y_sel) == (XMux.M, YMux.M):
            raise ConfigError(
                "logic-unit mode cannot select the multiplier on X and Y"
            )
        logic = logic_function(mode, y_sel)
    decoded = _Decoded(
        x_sel, y_sel, z_sel, w_sel, mode, logic,
        ab_xor_c=(logic == "xor" and x_sel is XMux.AB and z_sel is ZMux.C),
    )
    _DECODE_CACHE[(opmode, alumode)] = decoded
    return decoded


class DSP48E2(Component):
    """One DSP48E2 slice as a synchronous component.

    Input ports (assign before each cycle): :attr:`a`, :attr:`b`,
    :attr:`c`, :attr:`pcin`, :attr:`carry_in`, :attr:`opmode`,
    :attr:`alumode`, and the clock enables :attr:`ce_a`, :attr:`ce_b`,
    :attr:`ce_c`, :attr:`ce_m`, :attr:`ce_p`.

    Output ports (read after a cycle): :attr:`p`, :attr:`pcout`,
    :attr:`patterndetect`, :attr:`patternbdetect`, :attr:`carryout`.
    """

    def __init__(
        self,
        attributes: Optional[Dsp48Attributes] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        self.attributes = attributes if attributes is not None else Dsp48Attributes()
        self.reset_state()

    @property
    def attributes(self) -> Dsp48Attributes:
        """Synthesis-time attributes of this slice."""
        return self._attributes

    @attributes.setter
    def attributes(self, attributes: Dsp48Attributes) -> None:
        self._attributes = attributes
        # Pattern detector as (PATTERN, ~PATTERN, compared bits).
        self._detector = (
            (attributes.pattern, ~attributes.pattern & ALL_ONES,
             ~attributes.mask & ALL_ONES)
            if attributes.use_pattern_detect else None
        )

    # ------------------------------------------------------------------
    def reset_state(self) -> None:
        attrs = self.attributes
        # Input ports.
        self.a = 0
        self.b = 0
        self.c = 0
        self.d = 0
        self.pcin = 0
        self.carry_in = 0
        self.opmode = 0
        self.alumode = int(AluMode.ADD)
        self.ce_a = True
        self.ce_b = True
        self.ce_c = True
        self.ce_d = True
        self.ce_m = True
        self.ce_p = True
        # Register chains (index 0 = closest to the port).
        self._a_pipe: List[int] = [0] * attrs.areg
        self._b_pipe: List[int] = [0] * attrs.breg
        self._c_pipe: List[int] = [0] * attrs.creg
        self._m_pipe: List[int] = [0] * attrs.mreg
        self._d_pipe: List[int] = [0] * attrs.dreg
        self._ad_pipe: List[int] = [0] * attrs.adreg
        # Output ports.
        self.p = 0
        self.pcout = 0
        self.carryout = 0
        self.patterndetect = False
        self.patternbdetect = False

    # ------------------------------------------------------------------
    def compute(self) -> None:
        """One cycle of the slice.

        A register chain (depth 0..2) is scheduled only when its clock
        enable is high and the shift would change it, and the P
        register group only when one of its values changes: scheduling
        a value a register already holds is a no-op at the edge.
        """
        attrs = self._attributes
        a_pipe = self._a_pipe
        b_pipe = self._b_pipe
        c_pipe = self._c_pipe
        d_pipe = self._d_pipe
        ad_pipe = self._ad_pipe
        a_port = self.a & _A_MASK
        b_port = self.b & _B_MASK
        c_port = self.c & ALL_ONES
        a_reg = a_pipe[-1] if a_pipe else a_port
        b_reg = b_pipe[-1] if b_pipe else b_port
        c_reg = c_pipe[-1] if c_pipe else c_port

        # Pre-adder path (D + A, 27-bit wrap) feeding the multiplier
        # when AMULTSEL = "AD".
        d_port = self.d & _MULT_A_MASK
        d_reg = d_pipe[-1] if d_pipe else d_port
        ad_sum = (d_reg + (a_reg & _MULT_A_MASK)) & _MULT_A_MASK

        opmode = self.opmode
        alumode = self.alumode
        decoded = (_DECODE_CACHE.get((opmode, alumode))
                   or _decode(opmode, alumode))

        updates = {}
        # Multiplier path (27x18, unsigned model).
        if attrs.use_mult:
            if attrs.use_preadder:
                mult_a = ad_pipe[-1] if ad_pipe else ad_sum
            else:
                mult_a = a_reg & _MULT_A_MASK
            product = (mult_a * b_reg) & ALL_ONES
            m_pipe = self._m_pipe
            m_value = m_pipe[-1] if m_pipe else product
            if (m_pipe and self.ce_m
                    and (m_pipe[0] != product or m_pipe[-1] != product)):
                updates["_m_pipe"] = [product] + m_pipe[:-1]
        else:
            m_value = 0

        if decoded.ab_xor_c:
            alu_out = ((a_reg << B_WIDTH) | b_reg) ^ c_reg
            carry = 0
        else:
            alu_out, carry = self._alu(decoded, a_reg, b_reg, c_reg, m_value)
        detector = self._detector
        if detector is None:
            pd = pbd = False
        else:
            pattern, anti_pattern, care = detector
            pd = not ((alu_out ^ pattern) & care)
            pbd = not ((alu_out ^ anti_pattern) & care)

        if (a_pipe and self.ce_a
                and (a_pipe[0] != a_port or a_pipe[-1] != a_port)):
            updates["_a_pipe"] = [a_port] + a_pipe[:-1]
        if (b_pipe and self.ce_b
                and (b_pipe[0] != b_port or b_pipe[-1] != b_port)):
            updates["_b_pipe"] = [b_port] + b_pipe[:-1]
        if c_pipe and self.ce_c and c_pipe[0] != c_port:
            updates["_c_pipe"] = [c_port]
        if d_pipe and self.ce_d and d_pipe[0] != d_port:
            updates["_d_pipe"] = [d_port]
        if ad_pipe and ad_pipe[0] != ad_sum:
            updates["_ad_pipe"] = [ad_sum]
        if not attrs.preg:
            # Combinational P output: visible within the same cycle.
            self.p = alu_out
            self.pcout = alu_out
            self.carryout = carry
            self.patterndetect = pd
            self.patternbdetect = pbd
        elif self.ce_p and (
            alu_out != self.p or alu_out != self.pcout
            or carry != self.carryout or pd != self.patterndetect
            or pbd != self.patternbdetect
        ):
            updates["p"] = alu_out
            updates["pcout"] = alu_out
            updates["carryout"] = carry
            updates["patterndetect"] = pd
            updates["patternbdetect"] = pbd
        if updates:
            if self._pending:
                self.schedule(**updates)
            else:
                self._pending = updates
        if self._tracer is not None:
            self._tracer.record(self._name, {"p": alu_out, "patterndetect": pd})

    # ------------------------------------------------------------------
    def _alu(self, decoded: _Decoded, a_reg: int, b_reg: int, c_reg: int,
             m_value: int) -> Tuple[int, int]:
        """The X/Y/Z/W muxes and the ALU in any valid mode: (P, carry)."""
        attrs = self._attributes
        p = self.p
        pcin = self.pcin & ALL_ONES
        x = (0, m_value, p, (a_reg << B_WIDTH) | b_reg)[decoded.x]
        y = (0, m_value, ALL_ONES, c_reg)[decoded.y]
        z = (0, pcin, p, c_reg, p, pcin >> 17, p >> 17)[decoded.z]
        w = (0, p, attrs.rnd, c_reg)[decoded.w]

        carry = 0
        alumode = decoded.alumode
        if decoded.logic is not None:
            alu_out = apply_logic(decoded.logic, x, z)
        elif attrs.simd == "ONE48":
            operand = w + x + y + self.carry_in
            total = self._arith(alumode, z, operand)
            carry = (total >> DSP_WIDTH) & 1 if total >= 0 else 0
            alu_out = total & ALL_ONES
        else:
            # SIMD: independent lanes with no cross-lane carries. The
            # carry-in only reaches lane 0 (UG579: CARRYIN per segment
            # is tied to the single CARRYIN for simple adds).
            lanes = 2 if attrs.simd == "TWO24" else 4
            lane_width = DSP_WIDTH // lanes
            lane_mask = mask_for(lane_width)
            alu_out = 0
            for lane in range(lanes):
                shift = lane * lane_width
                z_lane = (z >> shift) & lane_mask
                operand = (
                    ((w >> shift) & lane_mask)
                    + ((x >> shift) & lane_mask)
                    + ((y >> shift) & lane_mask)
                    + (self.carry_in if lane == 0 else 0)
                )
                total = self._arith(alumode, z_lane, operand)
                if total >= 0 and (total >> lane_width) & 1:
                    carry |= 1 << lane
                alu_out |= (total & lane_mask) << shift
        return alu_out, carry

    @staticmethod
    def _arith(alumode: AluMode, z: int, operand: int) -> int:
        """One ALU arithmetic evaluation (full-width or one SIMD lane)."""
        if alumode == AluMode.ADD:
            return z + operand
        if alumode == AluMode.SUB:
            return z - operand
        if alumode == AluMode.NOT_ADD:
            return -z + operand - 1
        return -(z + operand) - 1  # AluMode.NOT_SUB

    # ------------------------------------------------------------------
    # inspection helpers used by tests
    # ------------------------------------------------------------------
    @property
    def stored_ab(self) -> int:
        """Current 48-bit A:B register contents (the CAM stored word)."""
        a_reg = self._a_pipe[-1] if self._a_pipe else self.a & _A_MASK
        b_reg = self._b_pipe[-1] if self._b_pipe else self.b & _B_MASK
        return (a_reg << B_WIDTH) | b_reg

    def registers(self) -> SliceRegisters:
        """The slice's register chains and registered outputs."""
        return SliceRegisters(
            a_pipe=list(self._a_pipe),
            b_pipe=list(self._b_pipe),
            c_pipe=list(self._c_pipe),
            p=self.p,
            patterndetect=self.patterndetect,
            patternbdetect=self.patternbdetect,
        )
