"""Circuit netlists for the key exchange loop and its cable models.

Builds the loop (two noise generators behind the party resistors) around
a cable ladder, provides the quasi-static diagnostics (wavelength ratio,
capacitive cutoff), and the shield-drive transform that cancels
capacitive currents.  Both cable models come from one ladder builder:
the distributed model is N pi sections, the lumped model one half-T
section (half the series R and L, then the whole C at Bob's end).

Current probes at the two ends are oriented *into* the cable from each
party's branch, so the attack statistic built on them is antisymmetric
under mirroring the loop.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field, replace

GROUND = "0"
SHIELD = "sh"

# RG58 coaxial per-meter constants.
RG58_R_PER_M = 0.021  # ohm/m
RG58_L_PER_M = 250e-9  # H/m
RG58_C_PER_M = 100e-12  # F/m


def check_integer(name: str, value) -> None:
    """Raise a ValueError naming the field ``name`` unless ``value`` is an
    integer: one ``operator.index`` takes, and not a bool."""
    if not isinstance(value, bool):
        try:
            operator.index(value)
            return
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CableSpec:
    """Per-meter cable constants plus length and ladder discretization."""

    r_per_m: float
    l_per_m: float
    c_per_m: float
    length_m: float
    n_segments: int = 1

    def __post_init__(self):
        check_integer("n_segments", self.n_segments)
        if min(self.r_per_m, self.l_per_m, self.c_per_m) < 0:
            raise ValueError("per-meter values must be non-negative")
        if self.length_m <= 0:
            raise ValueError("length_m must be positive")
        if self.n_segments < 1:
            raise ValueError("n_segments must be at least 1")

    @property
    def velocity_m_s(self) -> float:
        """Propagation velocity 1 / sqrt(LC); infinite without L or C."""
        lc = self.l_per_m * self.c_per_m
        return 1.0 / math.sqrt(lc) if lc > 0 else math.inf

    @property
    def total_r(self) -> float:
        return self.r_per_m * self.length_m

    @property
    def total_l(self) -> float:
        return self.l_per_m * self.length_m

    @property
    def total_c(self) -> float:
        return self.c_per_m * self.length_m

    def characteristic_impedance(self) -> float:
        if self.c_per_m == 0:
            raise ValueError("characteristic impedance undefined for zero capacitance")
        return math.sqrt(self.l_per_m / self.c_per_m)


def rg58(length_m: float, n_segments: int | None = None) -> CableSpec:
    """RG58 coaxial cable of the given length.

    Ladder discretization defaults to one section per 10 m.
    """
    if n_segments is None:
        n_segments = max(1, int(round(length_m / 10.0)))
    return CableSpec(
        r_per_m=RG58_R_PER_M,
        l_per_m=RG58_L_PER_M,
        c_per_m=RG58_C_PER_M,
        length_m=length_m,
        n_segments=n_segments,
    )


@dataclass(frozen=True)
class Branch:
    """One netlist branch.

    Kinds: R (resistor), L (inductor), C (capacitor), V (independent
    voltage source, driven by a waveform keyed by the branch name),
    E (voltage-controlled voltage source; ``value`` is the gain and
    ``ctrl_a``/``ctrl_b`` the sensed node pair).

    Branch current convention is a -> b.
    """

    kind: str
    name: str
    a: str
    b: str
    value: float = 0.0
    ctrl_a: str | None = None
    ctrl_b: str | None = None
    source_ref: str | None = None  # V branches driven by a named waveform


@dataclass(frozen=True)
class Netlist:
    """Node/branch description plus named probes.

    Probes map a name to either ``("v", node)`` or ``("i", branch_name)``.
    """

    branches: tuple[Branch, ...]
    probes: dict[str, tuple[str, str]] = field(default_factory=dict)
    ground: str = GROUND

    def __post_init__(self):
        names = set()
        for br in self.branches:
            if br.name in names:
                raise ValueError(f"duplicate branch name {br.name!r}")
            names.add(br.name)
            if br.kind not in ("R", "L", "C", "V", "E"):
                raise ValueError(f"branch {br.name!r} has unknown kind {br.kind!r}")
            if br.kind == "E" and (br.ctrl_a is None or br.ctrl_b is None):
                raise ValueError(f"controlled source {br.name!r} needs ctrl_a and ctrl_b")
        for pname, (kind, ref) in self.probes.items():
            if kind == "v":
                if ref not in self.nodes():
                    raise ValueError(f"probe {pname!r} references unknown node {ref!r}")
            elif kind == "i":
                if ref not in names:
                    raise ValueError(f"probe {pname!r} references unknown branch {ref!r}")
            else:
                raise ValueError(f"probe {pname!r} has unknown kind {kind!r}")

    def nodes(self) -> list[str]:
        seen: dict[str, None] = {self.ground: None}
        for br in self.branches:
            seen.setdefault(br.a, None)
            seen.setdefault(br.b, None)
            if br.ctrl_a is not None:
                seen.setdefault(br.ctrl_a, None)
            if br.ctrl_b is not None:
                seen.setdefault(br.ctrl_b, None)
        return list(seen)

    def branch(self, name: str) -> Branch:
        for br in self.branches:
            if br.name == name:
                return br
        raise KeyError(name)

    def to_text(self) -> str:
        """Line-oriented dump: ``KIND name node_a node_b value_or_source``.

        Controlled sources append gain and the control node pair.
        """
        lines = []
        for br in self.branches:
            if br.kind == "V":
                ref = br.source_ref if br.source_ref is not None else f"{br.value:.9g}"
                lines.append(f"V {br.name} {br.a} {br.b} {ref}")
            elif br.kind == "E":
                lines.append(
                    f"E {br.name} {br.a} {br.b} {br.value:.9g} {br.ctrl_a} {br.ctrl_b}"
                )
            else:
                lines.append(f"{br.kind} {br.name} {br.a} {br.b} {br.value:.9g}")
        for pname, (kind, ref) in self.probes.items():
            lines.append(f"* probe {pname} {kind} {ref}")
        return "\n".join(lines) + "\n"


def _ladder(r_alice: float, r_bob: float, r_seg: float, l_seg: float,
            shunt: list[float]) -> Netlist:
    """The loop around a ladder of ``len(shunt) - 1`` sections.

    Each section is a series R then L between consecutive wire nodes
    ``a, w1, ..., b``; ``shunt[i]`` ties wire node i to the shield, and
    zero entries are left out.  A section without series impedance joins
    its two wire nodes, so a cable with R = L = 0 is the single node "a".
    """
    if r_alice <= 0 or r_bob <= 0:
        raise ValueError("party resistances must be positive")
    n = len(shunt) - 1
    if r_seg > 0 or l_seg > 0:
        wire = ["a"] + [f"w{i}" for i in range(1, n)] + ["b"]
    else:
        wire = ["a"] * (n + 1)
    # Generator behind each party resistor; resistor current a->b reads
    # "into the cable" at both ends.
    branches = [
        Branch("V", "ua", "sa", GROUND, source_ref="ua"),
        Branch("R", "ra", "sa", "a", r_alice),
        Branch("V", "ub", "sb", GROUND, source_ref="ub"),
        Branch("R", "rb", "sb", wire[n], r_bob),
    ]
    for i in range(n):
        node = wire[i]
        if r_seg > 0:
            mid = f"m{i}" if l_seg > 0 else wire[i + 1]
            branches.append(Branch("R", f"rs{i}", node, mid, r_seg))
            node = mid
        if l_seg > 0:
            branches.append(Branch("L", f"ls{i}", node, wire[i + 1], l_seg))
    branches += [Branch("C", f"cs{i}", wire[i], SHIELD, c) for i, c in enumerate(shunt) if c > 0]
    if any(c > 0 for c in shunt):
        branches.append(Branch("V", "vsh", SHIELD, GROUND))
    probes = {"u_cha": ("v", "a"), "i_cha": ("i", "ra"),
              "u_chb": ("v", wire[n]), "i_chb": ("i", "rb")}
    return Netlist(branches=tuple(branches), probes=probes)


def build_lumped(r_alice: float, r_bob: float, cable: CableSpec) -> Netlist:
    """Single-section cable model: series half-R, half-L, then shunt C.

    A one-section ladder whose series elements carry half the cable
    totals and whose one shunt capacitor, ``cs1``, the full total at the
    load end (a half-T section).  For 1000 m of RG58 this gives 10.5 ohm,
    125 uH and 100 nF.
    """
    return _ladder(r_alice, r_bob, cable.total_r / 2.0, cable.total_l / 2.0,
                   [0.0, cable.total_c])


def build_distributed(r_alice: float, r_bob: float, cable: CableSpec) -> Netlist:
    """N-section ladder; each section is a pi: C/2, series R and L, C/2.

    Shunt capacitance lands on the wire nodes (half sections at the two
    ends), so section totals sum exactly to the per-meter values times
    length and the ladder is mirror symmetric.
    """
    n = cable.n_segments
    dx = cable.length_m / n
    c_seg = cable.c_per_m * dx
    return _ladder(r_alice, r_bob, cable.r_per_m * dx, cable.l_per_m * dx,
                   [c_seg / 2.0] + [c_seg] * (n - 1) + [c_seg / 2.0])


def wavelength_ratio(cable: CableSpec, bandwidth_hz: float) -> float:
    """Quasi-static ratio gamma = (velocity / bandwidth) / cable length."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be positive")
    return (cable.velocity_m_s / bandwidth_hz) / cable.length_m


def cutoff_frequency(r_low: float, r_high: float, total_capacitance: float) -> float:
    """Pole set by the cable capacitance against the parallel resistors."""
    if r_low <= 0 or r_high <= 0:
        raise ValueError("resistances must be positive")
    if total_capacitance <= 0:
        raise ValueError("capacitance must be positive (cutoff would be infinite)")
    r_par = r_low * r_high / (r_low + r_high)
    return 1.0 / (2.0 * math.pi * r_par * total_capacitance)


def apply_capacitor_killer(netlist: Netlist, tap_end: str = "alice") -> Netlist:
    """Drive the cable shield with the inner-wire voltage at one end.

    The shield is lifted off ground and driven by a unity-gain controlled
    source sensing the inner wire at ``tap_end``; every shunt capacitor
    then bridges inner wire to driven shield, so the capacitive current
    vanishes at the tap and is strongly suppressed elsewhere.
    """
    if tap_end not in ("alice", "bob"):
        raise ValueError("tap_end must be 'alice' or 'bob'")
    if not any(br.kind == "C" and SHIELD in (br.a, br.b) for br in netlist.branches):
        warnings.warn("netlist has no shield capacitors; killer transform is a no-op")
        return netlist

    tap_node = netlist.probes["u_cha" if tap_end == "alice" else "u_chb"][1]

    branches = []
    for br in netlist.branches:
        if br.name == "vsh":
            branches.append(
                Branch("E", "ekill", SHIELD, GROUND, 1.0, ctrl_a=tap_node, ctrl_b=GROUND)
            )
        else:
            branches.append(br)
    return replace(netlist, branches=tuple(branches))
