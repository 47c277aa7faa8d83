"""One solver per netlist, step and tolerance in the process
(``solver.shared_solver``): sessions share its build, resolvents and
maps, and still check every netlist they get."""

import dataclasses
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from kljnsim import protocol, scenarios, solver
from kljnsim.network import build_distributed, rg58
from kljnsim.protocol import KeyExchangeSession, ProtocolConfig, derive_seed
from kljnsim.scenarios import TABLE1_CELLS, default_scenario, reproduce_table1, run_scenario
from kljnsim.solver import SHARED_SOLVERS, SolverConfig, TransientSolver, shared_solver

from conftest import random_arrangement_scenario
from test_engine import lifted_shield, swapped_probes

pytestmark = pytest.mark.usefixtures("fresh_solvers")

STEP = SolverConfig(internal_step_s=1e-3 / 32)


def count_calls(monkeypatch, cls, method):
    """Patch ``cls.method`` to count its calls; returns the count list."""
    calls = []
    original = getattr(cls, method)

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, counted)
    return calls


def test_table1_builds_each_netlist_once(monkeypatch):
    # six cells on two netlists: the 100 m and 1000 m LH ladders
    builds = count_calls(monkeypatch, TransientSolver, "__init__")
    resolvents = count_calls(monkeypatch, TransientSolver, "line_resolvent")
    reproduce_table1(n_bits=4)
    assert len(builds) == 2 and len(resolvents) == 2


def cell_run(monkeypatch, idx, n_bits=16):
    """Probes and rho of table1 cell ``idx`` at the default seed."""
    bep, length = TABLE1_CELLS[idx]
    cfg = default_scenario(bep, length, n_bits=n_bits,
                           master_seed=derive_seed(scenarios.DEFAULT_MASTER_SEED, 1000 + idx))
    seen = []
    run_attack = scenarios.run_attack
    monkeypatch.setattr(scenarios, "run_attack",
                        lambda records, **kw: seen.append(records) or run_attack(records, **kw))
    result = run_scenario(cfg)
    monkeypatch.setattr(scenarios, "run_attack", run_attack)
    return seen[0].probes, result.outcome.rho


def test_cell_after_the_others_matches_a_cold_run(monkeypatch):
    cold = cell_run(monkeypatch, 0)
    solver._shared_solvers.clear()
    for idx in range(1, len(TABLE1_CELLS)):
        cell_run(monkeypatch, idx)
    builds = count_calls(monkeypatch, TransientSolver, "__init__")
    warm = cell_run(monkeypatch, 0)
    assert builds == []
    for a, b in zip(cold, warm):
        assert a.tobytes() == b.tobytes()


def mixed_builder(ra, rb):
    """Netlists whose cable capacitance follows Alice's resistor."""
    cable = rg58(100.0)
    return build_distributed(ra, rb, dataclasses.replace(
        cable, c_per_m=cable.c_per_m * (1.0 if ra < rb else 1.5)))


def fill_cache(builder, cfg):
    """Build every arrangement's netlist into the shared cache."""
    for ra in (cfg.r_low, cfg.r_high):
        for rb in (cfg.r_low, cfg.r_high):
            shared_solver(builder(ra, rb), STEP)


def test_history_weights_checked_on_a_hit(monkeypatch):
    cfg = ProtocolConfig(bep_units=3, arrangement="random")
    fill_cache(mixed_builder, cfg)
    builds = count_calls(monkeypatch, TransientSolver, "__init__")
    session = KeyExchangeSession(mixed_builder, cfg, master_seed=4)
    with pytest.raises(ValueError, match="reactive elements"):
        session.run_bits(2, arrangements=[("L", "H"), ("H", "L")])
    assert builds == []


@pytest.mark.parametrize("breach, match", [(lifted_shield, "vsh must hold 0 V"),
                                           (swapped_probes, "i_cha, u_cha")],
                         ids=["lifted_shield", "swapped_probes"])
def test_netlist_contract_checked_on_a_hit(breach, match, monkeypatch):
    cfg = ProtocolConfig(bep_units=3, arrangement="random")

    def builder(ra, rb):
        return breach(build_distributed(ra, rb, rg58(100.0)))

    fill_cache(builder, cfg)
    builds = count_calls(monkeypatch, TransientSolver, "__init__")
    session = KeyExchangeSession(builder, cfg, master_seed=8)
    with mock.patch.object(protocol, "draw_lines", wraps=protocol.draw_lines) as draw:
        with pytest.raises(ValueError, match=match):
            session.run_bits(7, 2)
    assert draw.call_count == 0 and builds == []


def maps_of(s):
    """Every map a session reads from solver ``s``."""
    W_h = s._block_maps(32)
    A_R, O = s.handoff_maps(32, 20)
    res = s.window_resolvent(2048, 64, ("ua", "ub"))
    return [s._A, s._B, s._Yh, s._Yu0, s.history_weights, W_h, A_R, O,
            res.V, res.T, res.H]


def test_cache_held_at_its_bound():
    nets = [build_distributed(1000.0 + k, 9000.0, rg58(50.0)) for k in range(SHARED_SOLVERS + 1)]
    first = shared_solver(nets[0], STEP)
    before = [a.copy() for a in maps_of(first)]
    for net in nets[1:]:
        shared_solver(net, STEP)
    assert len(solver._shared_solvers) == SHARED_SOLVERS
    rebuilt = shared_solver(nets[0], STEP)
    assert rebuilt is not first and len(solver._shared_solvers) == SHARED_SOLVERS
    for a, b in zip(before, maps_of(rebuilt)):
        assert a.tobytes() == b.tobytes()
    # a hit makes the oldest netlist the newest, so the next miss drops the
    # one after it
    kept = shared_solver(nets[2], STEP)
    shared_solver(nets[1], STEP)
    assert shared_solver(nets[2], STEP) is kept
    assert nets[3] not in [s.netlist for s in solver._shared_solvers.values()]


def test_equal_content_shares_one_build():
    # an equal netlist built anew is a hit; another step or tolerance is not
    net = build_distributed(1000.0, 9000.0, rg58(50.0))
    s = shared_solver(net, STEP)
    assert shared_solver(build_distributed(1000.0, 9000.0, rg58(50.0)), STEP) is s
    assert shared_solver(net, dataclasses.replace(STEP, internal_step_s=2e-3 / 32)) is not s
    assert shared_solver(net, dataclasses.replace(STEP, tolerance=1e-8)) is not s


def test_cached_maps_are_read_only():
    s = shared_solver(build_distributed(1000.0, 9000.0, rg58(50.0)), STEP)
    for a in maps_of(s):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    # a solver holds no run state: after a random-arrangement run, every
    # array each cached solver holds, in its attributes and its caches, is
    # read-only
    run_scenario(dataclasses.replace(random_arrangement_scenario(), n_bits=16))
    assert len(solver._shared_solvers) == 5  # the one above and 4 arrangements
    for s in solver._shared_solvers.values():
        assert not hasattr(s, "state")
        held = held_arrays(vars(s))
        assert len(held) > 10 and [a.shape for a in held if a.flags.writeable] == []


def held_arrays(obj):
    """Every array reachable from ``obj`` through dicts, lists, tuples and
    dataclass fields."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif not isinstance(obj, (list, tuple)):
        return []
    return [a for v in obj for a in held_arrays(v)]


def test_cached_build_holds_only_what_sessions_read():
    # the incidence matrices and the t = 0 system serve assembly, and the
    # record map's input half serves ``run``: a shared solver keeps none
    run_scenario(default_scenario(20, 1000.0, n_bits=4))
    (s,) = solver._shared_solvers.values()
    n_branches = len(s.netlist.branches)
    held = held_arrays([v for k, v in vars(s).items() if k != "netlist"])
    assert len(held) > 10 and [a.shape for a in held if n_branches in a.shape] == []
    ny = len(s.probe_names)
    assert list(s._block_cache) == [32]
    assert s._block_cache[32].shape == (s.n_states, ny + s.n_states)


def test_threads_share_the_cache():
    # more threads than cores, switching often, over more netlists than
    # the bound: every call gets its own netlist's solver, none raises
    nets = [build_distributed(1000.0 + k, 9000.0, rg58(10.0)) for k in range(SHARED_SOLVERS + 4)]
    errors = []

    def work(seed):
        try:
            for k in np.random.default_rng(seed).integers(0, len(nets), 60):
                assert shared_solver(nets[k], STEP).netlist == nets[k]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(solver._shared_solvers) == SHARED_SOLVERS
