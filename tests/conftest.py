"""Session-wide campaign runs at the default master seed, and an emptied
shared-solver cache for the tests that need one.

The six-cell sweep, the defense comparison, the zero-capacitance sweep
and one random-arrangement scenario each run once per test session; the
acceptance suite and the golden-artifact test share them.
"""

import dataclasses

import pytest

from kljnsim import solver
from kljnsim.scenarios import (DEFAULT_MASTER_SEED, DefenseSpec, default_scenario,
                               reproduce_defenses, reproduce_table1, run_scenario)

N_BITS = 1000


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
