"""Bit-exchange protocol: resistor selection, measurement, inference.

Each bit exchange period (BEP) attaches fresh noise realizations to the
resistors the two parties selected, advances the transient solver for
the BEP duration while keeping the cable state continuous across bit
boundaries, and records each run's bits as one ``BepRecords``: the
parties' choices and, per bit, the four channel probes an eavesdropper
could tap, from which the mean-square voltage and current each party
observes follow.

One BEP duration unit equals the noise autocorrelation time
1 / (4 B_noise), which is also the measurement interval t_s; with the
default 0.25 kHz bandwidth that is 1 ms, so 20-unit bits run at
50 bits/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noise as _noise
from . import seeding
from .noise import NoiseSpec, generate_blocks, record_basis, rms_for_resistor
from .solver import (DivergenceError, SolverConfig, TransientSolver, group_size,
                     single_blas_thread)

LOW, HIGH = "L", "H"

# Effective temperature anchoring the canonical operating point:
# 1 V rms across 1 kohm at 250 Hz noise bandwidth.
T_EFF_DEFAULT = _noise.effective_temperature(1.0, 1000.0, 250.0)

# Internal integration runs this many steps per measurement interval.
DEFAULT_OVERSAMPLE = 32

# Sub-stream purposes when deriving per-bit seeds from a master seed.
_NOISE_ALICE, _NOISE_BOB, _COIN_ALICE, _COIN_BOB, _EVE_TIE = range(5)
_WARMUP_SLOT = 0  # bit i uses slot 1 + i

# The noise-driven sources, Alice's then Bob's.
_PARTY_SOURCES = ("ua", "ub")

# An arrangement's bits are stepped in batches of about this many internal
# steps (at least one bit), which bounds the batch's input buffer.
_CHUNK_STEPS = 2**15


def derive_seed(*keys: int) -> int:
    """Deterministic independent sub-seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(k) for k in keys])
    return int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")


@dataclass(frozen=True)
class ProtocolConfig:
    """Operating point of the key exchange."""

    r_low: float = 1000.0
    r_high: float = 9000.0
    t_eff: float = T_EFF_DEFAULT
    bandwidth_hz: float = 250.0
    t_s: float = 1e-3
    bep_units: int = 100
    arrangement: str = "fixed_lh"  # or "random"

    def __post_init__(self):
        if self.r_low <= 0 or self.r_high <= 0:
            raise ValueError("resistances must be positive")
        if not self.r_low < self.r_high:
            raise ValueError(f"r_low ({self.r_low}) must be below r_high ({self.r_high})")
        if self.t_eff < 0:
            raise ValueError("t_eff must be non-negative")
        if self.bandwidth_hz <= 0 or self.t_s <= 0:
            raise ValueError("bandwidth and t_s must be positive")
        if self.bep_units < 1:
            raise ValueError("bep_units must be positive")
        if self.arrangement not in ("fixed_lh", "random"):
            raise ValueError("arrangement must be 'fixed_lh' or 'random'")

    def resistance(self, choice: str) -> float:
        if choice == LOW:
            return self.r_low
        if choice == HIGH:
            return self.r_high
        raise ValueError(f"choice must be 'L' or 'H', got {choice!r}")

    def generator_rms(self, choice: str) -> float:
        return rms_for_resistor(self.resistance(choice), self.t_eff, self.bandwidth_hz)


@dataclass(frozen=True)
class NoiseLevels:
    """Expected mean-square channel levels per arrangement class.

    LH and HL are degenerate and share one entry; that degeneracy is
    what hides the bit from a passive observer.
    """

    uu_ll: float
    uu_lh: float
    uu_hh: float
    ii_ll: float
    ii_lh: float
    ii_hh: float
    r_low: float
    r_high: float

    def as_dict(self) -> dict[str, float]:
        return {
            "UU_LL": self.uu_ll,
            "UU_LH": self.uu_lh,
            "UU_HH": self.uu_hh,
            "II_LL": self.ii_ll,
            "II_LH": self.ii_lh,
            "II_HH": self.ii_hh,
        }


def expected_levels(config: ProtocolConfig) -> NoiseLevels:
    """Johnson-formula levels: 4kTB R_par (voltage), 4kTB / (R_A + R_B)."""
    four_ktb = 4.0 * _noise.BOLTZMANN * config.t_eff * config.bandwidth_hz
    rl, rh = config.r_low, config.r_high

    def upar(ra: float, rb: float) -> float:
        return four_ktb * (ra * rb / (ra + rb))

    def ipar(ra: float, rb: float) -> float:
        return four_ktb / (ra + rb)

    return NoiseLevels(
        uu_ll=upar(rl, rl),
        uu_lh=upar(rl, rh),
        uu_hh=upar(rh, rh),
        ii_ll=ipar(rl, rl),
        ii_lh=ipar(rl, rh),
        ii_hh=ipar(rh, rh),
        r_low=rl,
        r_high=rh,
    )


def infer_remote_resistance(own_resistance, mean_sq_u, mean_sq_i, levels: NoiseLevels):
    """Combined voltage/current inference, elementwise over arrays of bits.

    The ratio of the two mean squares estimates the resistance product
    R_A R_B independent of the temperature, so dividing by the known own
    resistance estimates the remote resistor directly.  Both parties get
    the same 9:1 hypothesis separation this way, which is what makes the
    legitimate bit error rate negligible at practical BEP durations.
    A bit with no current falls back to its voltage level, split at the
    geometric mean of the two levels the own resistor allows; a reading
    on the split goes to the larger level, remote high.
    """
    u, i = np.asarray(mean_sq_u, dtype=np.float64), np.asarray(mean_sq_i, dtype=np.float64)
    own = np.asarray(own_resistance, dtype=np.float64)
    own_low = np.abs(own - levels.r_low) <= np.abs(own - levels.r_high)
    u_split = np.sqrt(levels.uu_lh * np.where(own_low, levels.uu_ll, levels.uu_hh))
    with np.errstate(divide="ignore", invalid="ignore"):
        remote_est = (u / i) / own
    high = np.where(i <= 0, u >= u_split, remote_est >= math.sqrt(levels.r_low * levels.r_high))
    return np.where(high, HIGH, LOW)[()]  # a str for scalar input


# Row order of the channel probes in ``BepRecords.probes``.
PROBES = ("u_cha", "i_cha", "u_chb", "i_chb")


@dataclass
class BepRecords:
    """One run's bits, one row per bit: the parties' choices and the four
    channel probes an eavesdropper can tap, sampled every ``t_s``.

    ``probes`` has shape (n_bits, 4, bep_units) with the rows in
    ``PROBES`` order; ``start_time_s`` is each bit's first sample time.
    """

    bit_index: np.ndarray
    alice_choice: np.ndarray
    bob_choice: np.ndarray
    probes: np.ndarray
    start_time_s: np.ndarray
    t_s: float

    def __len__(self) -> int:
        return len(self.bit_index)

    def __getitem__(self, rows) -> "BepRecords":
        """The records of the selected rows (a slice, index array or mask)."""
        return BepRecords(self.bit_index[rows], self.alice_choice[rows],
                          self.bob_choice[rows], self.probes[rows],
                          self.start_time_s[rows], self.t_s)

    @property
    def arrangement(self) -> np.ndarray:
        return np.char.add(self.alice_choice, self.bob_choice)

    @property
    def secure(self) -> np.ndarray:
        return self.alice_choice != self.bob_choice

    @property
    def mean_sq_u(self) -> np.ndarray:
        """Mean-square channel voltage per bit, as both parties read it."""
        return np.mean(self.probes[:, 0] ** 2, axis=-1)

    @property
    def mean_sq_i(self) -> np.ndarray:
        """Mean-square channel current per bit at Alice's end."""
        return np.mean(self.probes[:, 1] ** 2, axis=-1)


class KeyExchangeSession:
    """Continuous timeline of bit exchanges over one netlist family.

    ``netlist_builder(r_alice, r_bob)`` must return netlists with an
    identical branch layout and identical reactive elements for every
    resistor pair, so the reactive state can carry across arrangement
    switches.

    A run of bits is one pass (a warmup and ``run_bit`` are one-bit runs).
    A bit's probes are its zero-state response plus the free response to
    its start state, as the network is linear within a bit.  A run groups
    its bits by arrangement once and, in batches of about ``_CHUNK_STEPS``
    internal steps, runs each group's zero-state responses as a GEMM
    recurrence with the bits as rows (``TransientSolver.propagate``).  It
    hands the state from bit to bit with one matvec each, then adds the
    free responses with one GEMM per batch (``TransientSolver.handoff_maps``,
    fetched once per run and arrangement).  Bit 0 starts from the session
    state, so a one-bit run needs no handoff maps.  The recurrence steps a
    bit's records G = ``solver.group_size`` at a time, one pair of GEMMs
    per group against the group's block-Toeplitz input map and its state
    map (``TransientSolver.group_maps``), built once per arrangement and G.

    Each party's noise enters as r coefficients per measurement interval
    over the band's record basis (``noise.record_basis``), never as
    internal-rate samples: the recurrence reads them through
    ``TransientSolver.coefficient_map``, 2r inputs per record in place of
    ``oversample`` samples per source, plus a constant 1 when the map
    carries a bias row.
    """

    def __init__(
        self,
        netlist_builder,
        config: ProtocolConfig,
        solver_config: SolverConfig | None = None,
        master_seed: int = 0,
    ):
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        self.builder = netlist_builder
        self.config = config
        if solver_config is None:
            solver_config = SolverConfig(internal_step_s=config.t_s / DEFAULT_OVERSAMPLE)
        self.solver_config = solver_config
        os_f = config.t_s / solver_config.internal_step_s
        self.oversample = int(round(os_f))
        if abs(os_f - self.oversample) > 1e-9 or self.oversample < 1:
            raise ValueError("t_s must be an integer multiple of the internal step")
        self.master_seed = master_seed
        self._basis = record_basis(self._noise_spec(LOW, 1), self.oversample)
        # Per arrangement: its solver and that solver's coefficient map;
        # per arrangement and group size: the solver and its group maps.
        self._solvers: dict[tuple[str, str], tuple] = {}
        self._groups: dict[tuple[tuple[str, str], int], tuple] = {}
        # Session state, the history vector of ``TransientSolver.state``
        # shared by every arrangement's solver; None until the first run.
        self._hist: np.ndarray | None = None
        self._time_units = 0  # elapsed measurement intervals

    def _solver_for(self, alice_choice: str, bob_choice: str) -> tuple:
        """The arrangement's solver and its ``coefficient_map`` W_a for
        Alice's then Bob's noise coefficients."""
        key = (alice_choice, bob_choice)
        entry = self._solvers.get(key)
        if entry is None:
            netlist = self.builder(
                self.config.resistance(alice_choice), self.config.resistance(bob_choice)
            )
            solver = TransientSolver(
                netlist, self.solver_config.internal_step_s, self.solver_config.tolerance
            )
            for other, *_ in self._solvers.values():
                if not np.array_equal(other.history_weights, solver.history_weights):
                    raise ValueError(
                        "netlist_builder changed the reactive elements between "
                        "resistor pairs; the state cannot carry across them"
                    )
            entry = (solver, solver.coefficient_map(self.oversample, self._basis, _PARTY_SOURCES))
            self._solvers[key] = entry
        return entry

    def _maps_for(self, arrangement: tuple[str, str], G: int) -> tuple:
        """The arrangement's solver and the ``group_maps`` (W_h, W_in) of
        its coefficient map for groups of ``G`` records."""
        key = (arrangement, G)
        entry = self._groups.get(key)
        if entry is None:
            solver, W_a = self._solver_for(*arrangement)
            entry = (solver, *solver.group_maps(self.oversample, W_a, G))
            self._groups[key] = entry
        return entry

    def _noise_spec(self, choice: str, n_units: int) -> NoiseSpec:
        """The unseeded spec of a party holding ``choice`` for ``n_units``."""
        return NoiseSpec(
            bandwidth_hz=self.config.bandwidth_hz,
            rms_volts=self.config.generator_rms(choice),
            duration_s=n_units * self.config.t_s,
            sample_interval_s=self.solver_config.internal_step_s,
        )

    def _inputs(self, words: np.ndarray, arrangement: tuple[str, str],
                n_units: int, n_in: int) -> np.ndarray:
        """Inputs of ``propagate`` for one bit per row of ``words``
        (``_noise_words``), all with one arrangement: per record, Alice's
        then Bob's noise coefficients over the record basis, then 1s up to
        ``n_in`` inputs for the coefficient map's bias row, if it has one."""
        r = len(self._basis)
        a = np.ones((len(words), n_units, n_in))
        for column, choice in enumerate(arrangement):
            a[:, :, column * r : (column + 1) * r] = generate_blocks(
                self._noise_spec(choice, n_units), words[:, column], self.oversample)
        return a

    def _seeds(self, slots, *purposes: int) -> np.ndarray:
        """``derive_seed(master_seed, slot, purpose)`` for Alice's then Bob's
        purpose in each slot, (2 len(slots), 4) uint32 words in one pass."""
        slots = np.repeat(np.asarray(slots, dtype=np.int64), 2)
        return seeding.derive_states(self.master_seed, slots, np.tile(purposes, len(slots) // 2))

    def _noise_words(self, slots) -> np.ndarray:
        """The PCG64 seed words of both parties' noise in each slot, as
        (len(slots), 2, 4) uint64 with Alice's in column 0 and Bob's in 1:
        what ``default_rng(derive_seed(master_seed, slot, purpose))`` starts
        from, derived for every slot in two vectorized hash passes."""
        return seeding.pcg64_words(self._seeds(slots, _NOISE_ALICE, _NOISE_BOB)).reshape(-1, 2, 4)

    @single_blas_thread()
    def _exchange(self, words: np.ndarray, choices: np.ndarray, n_units: int) -> np.ndarray:
        """Run consecutive periods of ``n_units`` measurement intervals,
        one per row of noise seed words (``_noise_words``) and of
        ``choices``, and advance the session.

        Returns the probes, (len(words), len(PROBES), n_units) in
        ``PROBES`` order.
        """
        n = len(words)
        S = self.oversample
        G = group_size(n_units)
        keys, group_of = np.unique(np.char.add(choices[:, 0], choices[:, 1]),
                                   return_inverse=True)
        arrangements = [tuple(key) for key in keys]
        maps = [self._maps_for(a, G) for a in arrangements]
        members = [np.flatnonzero(group_of == j) for j in range(len(keys))]
        order = [maps[0][0].probe_names.index(p) for p in PROBES]
        m = len(maps[0][0].history_weights)
        h = np.zeros(m) if self._hist is None else self._hist

        # Zero-state responses, GEMM recurrences per arrangement with the
        # bits as rows, in batches; bit 0 starts from h.
        per_batch = max(1, _CHUNK_STEPS // (n_units * S))
        y = np.empty((n, len(PROBES), n_units))
        z = np.empty((n, m))
        for a, (solver, W_h, W_in), idx in zip(arrangements, maps, members):
            for start in range(0, len(idx), per_batch):
                rows = idx[start : start + per_batch]
                h0 = np.zeros((len(rows), m))
                if rows[0] == 0:
                    h0[0] = h
                u = self._inputs(words[rows], a, n_units, len(W_in) // G)
                y_rows, z[rows] = solver.propagate(h0, u, W_h, W_in)
                y[rows] = y_rows[:, order]

        # Hand the state from bit to bit, leaving each bit's start state in
        # z, then add the free responses; bits after the first need maps.
        handoffs = {j: maps[j][0].handoff_maps(S, n_units) for j in set(group_of[1:])}
        h = z[0]
        for k in range(1, n):
            h, z[k] = handoffs[group_of[k]][0] @ h + z[k], h
        for j, (_, O) in handoffs.items():
            later = members[j][members[j] > 0]
            for start in range(0, len(later), per_batch):
                rows = later[start : start + per_batch]
                y[rows] += np.tensordot(z[rows], O, 1)[:, order]

        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(y))):
            raise DivergenceError("non-finite values during integration")
        self._hist = h
        self._time_units += n * n_units
        return y

    def run_warmup(self, n_units: int, arrangement: tuple[str, str] = (LOW, HIGH)) -> None:
        """Discarded settling interval before the first measured bit."""
        if n_units <= 0:
            return
        self._exchange(self._noise_words([_WARMUP_SLOT]), np.array([arrangement]), n_units)

    def draw_choices(self, bits) -> np.ndarray:
        """Both parties' choices for each of ``bits``, as (len(bits), 2)
        with Alice's in column 0: per-party fair coins
        ``derive_seed(master_seed, 1 + bit, purpose) & 1`` (random mode),
        hashed in one pass, or the fixed LH pattern."""
        bits = np.asarray(bits, dtype=np.int64)
        if self.config.arrangement == "fixed_lh":
            return np.tile([LOW, HIGH], (len(bits), 1))
        coins = self._seeds(1 + bits, _COIN_ALICE, _COIN_BOB)[:, 0].reshape(-1, 2) & 1
        return np.where(coins == 1, HIGH, LOW)

    def draw_arrangement(self, bit_index: int) -> tuple[str, str]:
        """Bit ``bit_index``'s choices (``draw_choices``) as a tuple."""
        return tuple(self.draw_choices([bit_index])[0].tolist())

    def _measure(self, bits, choices: np.ndarray, words: np.ndarray) -> BepRecords:
        """Exchange consecutive bits as one run; row i of ``choices`` and
        ``words`` belongs to bit ``bits[i]``."""
        cfg = self.config
        start_time_s = (self._time_units + np.arange(len(bits)) * cfg.bep_units + 1) * cfg.t_s
        return BepRecords(
            bit_index=np.array(bits, dtype=np.int64),
            alice_choice=choices[:, 0],
            bob_choice=choices[:, 1],
            probes=self._exchange(words, choices, cfg.bep_units),
            start_time_s=start_time_s,
            t_s=cfg.t_s,
        )

    def run_bit(self, bit_index: int, arrangement: tuple[str, str] | None = None) -> BepRecords:
        """Exchange one bit; a one-row record of what the parties and Eve see."""
        choices = (self.draw_choices([bit_index]) if arrangement is None
                   else np.array([arrangement]))
        return self._measure([bit_index], choices, self._noise_words([1 + bit_index]))

    def run_bits(self, n_bits: int, warmup_units: int = 0, arrangements=None) -> BepRecords:
        """Warm up, then exchange bits 0 .. n_bits - 1 as one run, with the
        (n_bits, 2) choices ``arrangements`` if the caller has drawn them
        (``draw_choices``).

        The noise seeds of the whole run, warmup included, are derived up
        front in one ``_noise_words`` call."""
        if n_bits < 1:
            raise ValueError("n_bits must be at least 1; run_warmup settles alone")
        choices = (self.draw_choices(range(n_bits)) if arrangements is None
                   else np.asarray(arrangements))
        if choices.shape != (n_bits, 2):
            raise ValueError(f"{len(choices)} arrangements for {n_bits} bits")
        words = self._noise_words(range(1 + n_bits))  # slot 0 is the warmup's
        if warmup_units > 0:
            self._exchange(words[:1], choices[:1], warmup_units)
        return self._measure(range(n_bits), choices, words[1:])

    @property
    def factorization_residual(self) -> float:
        """Largest random-RHS residual of the LU factors built so far."""
        return max((s.factorization_residual for s, *_ in self._solvers.values()), default=0.0)

