"""Assembly oracle: the solver's gains against the cable's ABCD matrices.

Trapezoidal integration is the bilinear transform, so the steady-state
gain ``frequency_response_check`` returns at f is the continuous gain at
the warped frequency w_a = (2 / dt) tan(pi f dt).  The continuous gain
here is a product of two-port transmission (ABCD) matrices built from
the ``CableSpec`` numbers alone (Pozar, *Microwave Engineering*, for
cascaded two-ports), so it shares no code with the netlist builders or
the MNA assembly.  Killer netlists are left out: their shunt capacitors
see u_node - u_tap, so the cable is no longer a plain two-port.
"""

import functools
import math

import numpy as np
import pytest

from kljnsim.network import CableSpec, build_distributed, build_lumped, rg58
from kljnsim.solver import frequency_response_check

# The compare-models bandwidths and one decade between; below ~100 Hz
# the default step's round-off on the 1000 m ladder nears 1e-8 itself.
FREQS_HZ = (250.0, 2.5e3, 25e3, 250e3)
ARRANGEMENTS = {"LL": (1e3, 1e3), "LH": (1e3, 9e3), "HL": (9e3, 1e3), "HH": (9e3, 9e3)}
ORACLE_RTOL = 1e-8


def series(z):
    return np.array([[1.0, z], [0.0, 1.0]], dtype=complex)


def shunt(y):
    return np.array([[1.0, 0.0], [y, 1.0]], dtype=complex)


def pi_sections(cable, w):
    """Per section: shunt jwC/2, series R + jwL, shunt jwC/2."""
    dx = cable.length_m / cable.n_segments
    y = 0.5j * w * cable.c_per_m * dx
    z = (cable.r_per_m + 1j * w * cable.l_per_m) * dx
    return [shunt(y), series(z), shunt(y)] * cable.n_segments


def half_t(cable, w):
    """Half the series R and L, then the whole C at Bob's end."""
    return [series((cable.total_r + 1j * w * cable.total_l) / 2.0), shunt(1j * w * cable.total_c)]


def one_shunt(cable, w):
    return [shunt(1j * w * cable.total_c)]


def loop_gains(stages, source, r_alice, r_bob):
    """Gain of each probe per volt of ``source``, the other generator at 0.

    ``stages`` run from Alice to Bob; driving from Bob walks them back.
    """
    forward = source == "ua"
    T = functools.reduce(np.matmul, stages if forward else stages[::-1])
    r_src, r_load = (r_alice, r_bob) if forward else (r_bob, r_alice)
    (A, B), (C, D) = T
    z_in = (A * r_load + B) / (C * r_load + D)
    v_near = z_in / (r_src + z_in)
    v_far = v_near * r_load / (A * r_load + B)
    u_a, u_b = (v_near, v_far) if forward else (v_far, v_near)
    return {
        "u_cha": u_a,
        "u_chb": u_b,
        "i_cha": (float(forward) - u_a) / r_alice,
        "i_chb": (float(not forward) - u_b) / r_bob,
    }


IDEAL_WIRE = CableSpec(0.0, 0.0, 100e-12, 1000.0, 4)  # R = L = 0
CASES = [
    ("ladder_10m", build_distributed, rg58(10.0), pi_sections),
    ("ladder_100m", build_distributed, rg58(100.0), pi_sections),
    ("ladder_1000m", build_distributed, rg58(1000.0), pi_sections),
    ("lumped_1000m", build_lumped, rg58(1000.0), half_t),
    ("ideal_wire_ladder", build_distributed, IDEAL_WIRE, one_shunt),
    ("ideal_wire_lumped", build_lumped, IDEAL_WIRE, one_shunt),
]


@pytest.mark.parametrize(
    "builder, cable, stages, arrangement",
    [
        pytest.param(builder, cable, stages, arr, id=f"{name}-{arr}")
        for name, builder, cable, stages in CASES
        for arr in ARRANGEMENTS
    ],
)
def test_gains_match_abcd_at_warped_frequency(builder, cable, stages, arrangement):
    r_alice, r_bob = ARRANGEMENTS[arrangement]
    netlist = builder(r_alice, r_bob, cable)
    worst = (0.0, None)
    for f in FREQS_HZ:
        dt = 1.0 / (64.0 * f)  # frequency_response_check's default step
        w_a = (2.0 / dt) * math.tan(math.pi * f * dt)
        gains = frequency_response_check(netlist, f)
        for source in ("ua", "ub"):
            expected = loop_gains(stages(cable, w_a), source, r_alice, r_bob)
            for probe, h in expected.items():
                err = abs(gains[(probe, source)] - h) / abs(h)
                worst = max(worst, (err, (f, source, probe)), key=lambda e: e[0])
    assert worst[0] <= ORACLE_RTOL, f"relative error {worst[0]:.3g} at (f, source, probe) = {worst[1]}"
