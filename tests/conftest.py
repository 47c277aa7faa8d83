"""Session-wide campaign runs at the default master seed.

The six-cell sweep, the defense comparison and the zero-capacitance
sweep each run once per test session; the acceptance suite and the
golden-artifact test share them.
"""

import pytest

from kljnsim.scenarios import DEFAULT_MASTER_SEED, reproduce_defenses, reproduce_table1

N_BITS = 1000


@pytest.fixture(scope="session")
def table1():
    return reproduce_table1(master_seed=DEFAULT_MASTER_SEED, n_bits=N_BITS)


@pytest.fixture(scope="session")
def defenses():
    return reproduce_defenses(master_seed=DEFAULT_MASTER_SEED, n_bits=N_BITS)


@pytest.fixture(scope="session")
def zero_c_table():
    return reproduce_table1(
        master_seed=DEFAULT_MASTER_SEED, n_bits=N_BITS, c_per_m=0.0
    )
