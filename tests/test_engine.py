"""Batched bit engine against plain stepping, the reference implementation."""

import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kljnsim import protocol
from kljnsim.attack import run_attack
from kljnsim.network import CableSpec, apply_capacitor_killer, build_distributed, rg58
from kljnsim.noise import NoiseSpec, generate
from kljnsim.protocol import (
    _NOISE_ALICE,
    _NOISE_BOB,
    _WARMUP_SLOT,
    PROBES,
    KeyExchangeSession,
    ProtocolConfig,
    derive_seed,
)
from kljnsim.solver import DivergenceError, TransientSolver

from conftest import source_steps


def plain_session(builder, cfg, seed, n_bits, warmup):
    """Probes of ``KeyExchangeSession.run_bits`` by plain stepping: one
    ``generate`` call per party and bit, the history vector handed from
    solver to solver, every internal step taken one by one."""
    S = 32
    dt = cfg.t_s / S
    session = KeyExchangeSession(builder, cfg, master_seed=seed)
    solvers = {}
    state = None

    def advance(arrangement, slot, n_units):
        nonlocal state
        solver = solvers.get(arrangement)
        if solver is None:
            solver = TransientSolver(builder(*map(cfg.resistance, arrangement)), dt)
            solvers[arrangement] = solver
        noise = {
            name: generate(NoiseSpec(cfg.bandwidth_hz, cfg.generator_rms(choice),
                                     n_units * cfg.t_s, dt,
                                     seed=derive_seed(seed, slot, purpose))).samples
            for name, choice, purpose in (("ua", arrangement[0], _NOISE_ALICE),
                                          ("ub", arrangement[1], _NOISE_BOB))
        }
        u = source_steps(solver, n_units * S, noise)
        recs, state = solver.run(np.zeros(solver.n_states) if state is None else state, u)
        return recs[S - 1 :: S], solver.probe_names

    if warmup:
        advance(session.draw_arrangement(0), _WARMUP_SLOT, warmup)
    out = []
    for i in range(n_bits):
        arrangement = session.draw_arrangement(i)
        recs, names = advance(arrangement, 1 + i, cfg.bep_units)
        out.append((arrangement, {name: recs[:, k] for k, name in enumerate(names)}))
    return out


def assert_probes_match(batched, plain, rtol=1e-12):
    assert len(batched) == len(plain)
    for k, (arrangement, probes) in enumerate(plain):
        assert (batched.alice_choice[k], batched.bob_choice[k]) == arrangement
        for row, name in enumerate(PROBES):
            ref = probes[name]
            got = batched.probes[k, row]
            np.testing.assert_allclose(got, ref, rtol=0, atol=rtol * np.max(np.abs(ref)))


@settings(max_examples=20, deadline=None)
@given(
    n_segments=st.integers(1, 6),
    length_m=st.floats(10.0, 2000.0),
    r_low=st.floats(100.0, 5000.0),
    ratio=st.floats(1.5, 20.0),
    bep_units=st.sampled_from([1, 3, 20]),
    n_bits=st.integers(1, 9),
    bits_per_chunk=st.integers(1, 4),
    warmup=st.integers(0, 5),
    seed=st.integers(0, 2**31),
)
# single-sample bits whose probe is unusually small against the others
@example(n_segments=1, length_m=1928.0, r_low=4515.0, ratio=14.0, bep_units=1, n_bits=1,
         bits_per_chunk=1, warmup=3, seed=176)
@example(n_segments=1, length_m=1298.0, r_low=1642.0, ratio=16.5, bep_units=1, n_bits=5,
         bits_per_chunk=1, warmup=0, seed=375)
@example(n_segments=1, length_m=401.0, r_low=100.0, ratio=2.0, bep_units=1, n_bits=1,
         bits_per_chunk=1, warmup=2, seed=433)
def test_batched_engine_matches_plain_stepping(
    n_segments, length_m, r_low, ratio, bep_units, n_bits, bits_per_chunk, warmup, seed
):
    cable = CableSpec(
        r_per_m=0.0105, l_per_m=250e-9, c_per_m=100e-12, length_m=length_m,
        n_segments=n_segments,
    )
    cfg = ProtocolConfig(r_low=r_low, r_high=r_low * ratio, bep_units=bep_units,
                         arrangement="random")

    def builder(ra, rb):
        return build_distributed(ra, rb, cable)

    chunk = bits_per_chunk * bep_units * 32
    with mock.patch.object(protocol, "_CHUNK_STEPS", chunk):
        batched = KeyExchangeSession(builder, cfg, master_seed=seed).run_bits(n_bits, warmup)
    assert_probes_match(batched, plain_session(builder, cfg, seed, n_bits, warmup))


def test_killer_ladder_matches_plain_stepping():
    # the shield-driven ladder carries an eigenvalue just above 1
    cfg = ProtocolConfig(bep_units=20)

    def builder(ra, rb):
        return apply_capacitor_killer(build_distributed(ra, rb, rg58(100.0)), "alice")

    batched = KeyExchangeSession(builder, cfg, master_seed=3).run_bits(12, 10)
    assert_probes_match(batched, plain_session(builder, cfg, 3, 12, 10))


def lifted_shield(net):
    """``net`` with its shield source at 0.3 V instead of 0."""
    return dataclasses.replace(net, branches=tuple(
        dataclasses.replace(br, value=0.3) if br.name == "vsh" else br
        for br in net.branches))


def swapped_probes(net):
    """``net`` with its first two probes in the opposite order."""
    (u, pu), (i, pi), *rest = net.probes.items()
    return dataclasses.replace(net, probes=dict([(i, pi), (u, pu), *rest]))


@pytest.mark.parametrize("breach, match", [(lifted_shield, "vsh must hold 0 V"),
                                           (swapped_probes, "i_cha, u_cha")],
                         ids=["lifted_shield", "swapped_probes"])
def test_netlist_outside_the_contract_rejected_before_drawing(breach, match):
    # the session drives ua and ub and reads PROBES in order; any other
    # netlist is refused when its solver is built, before a line is drawn
    cfg = ProtocolConfig(bep_units=3, arrangement="random")

    def builder(ra, rb):
        return breach(build_distributed(ra, rb, rg58(100.0)))

    session = KeyExchangeSession(builder, cfg, master_seed=8)
    with mock.patch.object(protocol, "draw_lines", wraps=protocol.draw_lines) as draw:
        with pytest.raises(ValueError, match=match):
            session.run_bits(7, 2)
    assert draw.call_count == 0


def test_long_bit_matches_plain_stepping():
    # a 300-unit bit is 9600 samples, over a quarter of its 32768-point
    # noise window: with a step budget of 128 records, its 300 records are
    # read from the lines in three groups, one bit per batch
    cfg = ProtocolConfig(bep_units=300, arrangement="random")
    cable = CableSpec(r_per_m=0.0105, l_per_m=250e-9, c_per_m=100e-12, length_m=1000.0,
                      n_segments=3)

    def builder(ra, rb):
        return build_distributed(ra, rb, cable)

    with mock.patch.object(protocol, "_CHUNK_STEPS", 128 * 32):
        batched = KeyExchangeSession(builder, cfg, master_seed=9).run_bits(3, 4)
    assert_probes_match(batched, plain_session(builder, cfg, 9, 3, 4))


def test_chunk_boundary_prefix():
    # a shorter run is a prefix of a longer one, wherever the chunks split
    cfg = ProtocolConfig(bep_units=20, arrangement="random")

    def builder(ra, rb):
        return build_distributed(ra, rb, rg58(100.0))

    with mock.patch.object(protocol, "_CHUNK_STEPS", 5 * 20 * 32):
        long = KeyExchangeSession(builder, cfg, master_seed=4).run_bits(40, 10)
        short = KeyExchangeSession(builder, cfg, master_seed=4).run_bits(17, 10)
    for k in range(17):
        assert (long.bit_index[k], long.arrangement[k]) == (short.bit_index[k],
                                                            short.arrangement[k])
        for row in range(len(PROBES)):
            x, y = long.probes[k, row], short.probes[k, row]
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12 * np.max(np.abs(y)))
    assert np.array_equal(run_attack(long[:17]).guesses, run_attack(short).guesses)


def test_run_bit_is_one_bit_case_of_run_bits():
    cfg = ProtocolConfig(bep_units=20, arrangement="random")

    def builder(ra, rb):
        return build_distributed(ra, rb, rg58(1000.0))

    together = KeyExchangeSession(builder, cfg, master_seed=5).run_bits(6, 5)
    single = KeyExchangeSession(builder, cfg, master_seed=5)
    single.run_warmup(5, single.draw_arrangement(0))
    for k, bit in enumerate(together.bit_index):
        b = single.run_bit(bit)
        i_a, i_b = together.probes[k, 1], b.probes[0, 1]  # i_cha
        np.testing.assert_allclose(i_a, i_b, rtol=0, atol=1e-12 * np.max(np.abs(i_b)))
        assert b.start_time_s[0] == pytest.approx(together.start_time_s[k])


def test_overflowing_handoff_map_raises():
    # with the shield driven from Alice's end, the HL network is unstable
    # (spectral radius 1.105 per step at 1000 m): its map over a long bit
    # overflows instead of yielding NaN probes
    net = apply_capacitor_killer(build_distributed(9000.0, 1000.0, rg58(1000.0)), "alice")
    solver = TransientSolver(net, 31.25e-6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            solver.handoff_maps(32, 400)


def test_diverging_session_raises():
    cfg = ProtocolConfig(bep_units=20, arrangement="random")

    def builder(ra, rb):
        return apply_capacitor_killer(build_distributed(ra, rb, rg58(1000.0)), "alice")

    session = KeyExchangeSession(builder, cfg, master_seed=6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            session.run_bits(400)


def test_reactive_elements_must_match_across_arrangements():
    cfg = ProtocolConfig(bep_units=1, arrangement="random")

    def builder(ra, rb):
        cable = rg58(100.0 if ra == cfg.r_low else 200.0)
        return build_distributed(ra, rb, cable)

    session = KeyExchangeSession(builder, cfg, master_seed=6)
    with pytest.raises(ValueError, match="reactive elements"):
        session.run_bits(64)


def pipelined_run(cpus, seed=11):
    """A 40-bit random-arrangement run at 20 units, in batches of 4 bits,
    with ``protocol.engine_cpus`` reading ``cpus``; its records, end
    history and the worker pools it started."""
    cfg = ProtocolConfig(bep_units=20, arrangement="random")

    def builder(ra, rb):
        return build_distributed(ra, rb, rg58(100.0))

    session = KeyExchangeSession(builder, cfg, master_seed=seed)
    with mock.patch.object(protocol, "_CHUNK_STEPS", 4 * 20 * 32), \
            mock.patch.object(protocol, "engine_cpus", lambda: cpus), \
            mock.patch.object(protocol, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pools:
        bits = session.run_bits(40, 5)
    return bits, session._hist, pools.call_count


def test_worker_and_inline_evaluation_agree_bitwise():
    # the worker evaluates batch i while the caller draws batch i + 1; on
    # one CPU the caller evaluates each batch itself, through the same code
    threads = threading.active_count()
    threaded, h_threaded, pools = pipelined_run(cpus=2)
    assert threading.active_count() == threads
    inline, h_inline, no_pools = pipelined_run(cpus=1)
    assert (pools, no_pools) == (1, 0)  # the one-bit warmup runs inline
    assert len(set(threaded.arrangement)) > 1
    assert np.array_equal(threaded.arrangement, inline.arrangement)
    assert np.array_equal(threaded.probes, inline.probes)
    assert np.array_equal(h_threaded, h_inline)


def test_worker_error_reaches_the_caller():
    # an error raised while the worker evaluates a batch is the caller's,
    # and the worker thread is joined before the run returns
    caller = threading.get_ident()
    error = FloatingPointError("raised on the worker")
    view = protocol._view

    def failing_view(*args):
        if threading.get_ident() != caller:
            raise error
        return view(*args)

    threads = threading.active_count()
    with mock.patch.object(protocol, "_view", failing_view):
        with pytest.raises(FloatingPointError) as raised:
            pipelined_run(cpus=2)
    assert raised.value is error
    assert threading.active_count() == threads
