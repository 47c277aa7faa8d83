"""Session-wide campaign runs at the default master seed, an emptied
shared-solver cache for the tests that need one, and the inputs of
plain stepping (``TransientSolver.run``).

The six-cell sweep, the defense comparison, the zero-capacitance sweep
and one random-arrangement scenario each run once per test session; the
acceptance suite and the golden-artifact test share them.
"""

import dataclasses

import numpy as np
import pytest

from kljnsim import solver
from kljnsim.scenarios import (DEFAULT_MASTER_SEED, DefenseSpec, default_scenario,
                               reproduce_defenses, reproduce_table1, run_scenario)

N_BITS = 1000


def source_steps(solver, n_steps, waveforms):
    """``TransientSolver.run``'s inputs for ``n_steps`` steps: the sources
    named in ``waveforms`` take its samples, every other source holds its
    branch value."""
    u = np.tile([br.value for br in solver.netlist.branches if br.kind == "V"], (n_steps, 1))
    for name, samples in waveforms.items():
        u[:, solver.source_names.index(name)] = samples[:n_steps]
    return u


def rest_start_step(tau, dt, t):
    """A first-order lag's exact response, at times t >= dt, to the unit
    step as a run from rest sees it: the input is 0 at t = 0 and ramps
    linearly to 1 over the first step of ``dt``."""
    return 1.0 - (tau / dt) * np.expm1(dt / tau) * np.exp(-t / tau)


def random_arrangement_scenario():
    """The protocol as the paper plays it: both parties draw their resistor
    every bit, and the secure bits go through two XOR rounds (1000 m,
    50 BEP, 400 bits)."""
    cfg = default_scenario(50, 1000.0, n_bits=400, master_seed=DEFAULT_MASTER_SEED,
                           defense=DefenseSpec(kind="xor", xor_rounds=2))
    return dataclasses.replace(cfg, protocol=dataclasses.replace(cfg.protocol,
                                                                 arrangement="random"))


@pytest.fixture
def fresh_solvers():
    """The shared-solver cache (``solver.shared_solver``) emptied before the
    test and again after it.  A test that counts builds or patches a
    ``TransientSolver`` method uses it, so what it sees does not depend on
    the tests before it, and no solver built under its patch outlives it."""
    solver._shared_solvers.clear()
    yield
    solver._shared_solvers.clear()


@pytest.fixture(scope="session")
def table1():
    return reproduce_table1(master_seed=DEFAULT_MASTER_SEED, n_bits=N_BITS)


@pytest.fixture(scope="session")
def defenses():
    return reproduce_defenses(master_seed=DEFAULT_MASTER_SEED, n_bits=N_BITS)


@pytest.fixture(scope="session")
def random_run():
    return run_scenario(random_arrangement_scenario())


@pytest.fixture(scope="session")
def zero_c_table():
    return reproduce_table1(
        master_seed=DEFAULT_MASTER_SEED, n_bits=N_BITS, c_per_m=0.0
    )
