"""Simulator for the KLJN resistor-noise key exchange over imperfect cables.

The package covers the full pipeline: band-limited Gaussian noise
synthesis, netlist construction for lumped and ladder cable models, a
trapezoidal MNA transient solver, the bit-exchange protocol, the
cable-capacitance eavesdropping statistic, and the two countermeasures
(capacitor-killer shield drive and XOR privacy amplification).
"""

from .attack import (
    AttackOutcome,
    cross_correlation,
    eve_decide,
    run_attack,
    success_rate,
    time_derivative,
)
from .compare import ComparisonReport, compare_models
from .network import (
    Branch,
    CableSpec,
    Netlist,
    apply_capacitor_killer,
    build_distributed,
    build_lumped,
    cutoff_frequency,
    rg58,
    wavelength_ratio,
)
from .noise import (
    BOLTZMANN,
    GaussianityReport,
    NoiseSpec,
    Waveform,
    effective_temperature,
    gaussianity_report,
    generate,
    rms_for_resistor,
    rms_ratio,
)
from .privacy import empirical_amplification, predicted_leak_after_xor, xor_halve
from .protocol import (
    BepRecords,
    KeyExchangeSession,
    NoiseLevels,
    ProtocolConfig,
    T_EFF_DEFAULT,
    expected_levels,
    infer_remote_resistance,
)
from .scenarios import (
    DEFAULT_MASTER_SEED,
    DefenseSpec,
    ScenarioConfig,
    ScenarioResult,
    Table1Result,
    default_scenario,
    reproduce_defenses,
    reproduce_table1,
    run_scenario,
)
from .solver import (
    DivergenceError,
    SingularNetworkError,
    SolverConfig,
    TransientSolver,
    frequency_response_check,
)

__version__ = "0.1.0"
