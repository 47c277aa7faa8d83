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
from .noise import NoiseSpec, Waveform, generate_blocks, rms_for_resistor
from .solver import DivergenceError, SolverConfig, TransientSolver

LOW, HIGH = "L", "H"

# Effective temperature anchoring the canonical operating point:
# 1 V rms across 1 kohm at 250 Hz noise bandwidth.
T_EFF_DEFAULT = _noise.effective_temperature(1.0, 1000.0, 250.0)

# Internal integration runs this many steps per measurement interval.
DEFAULT_OVERSAMPLE = 32

# Sub-stream purposes when deriving per-bit seeds from a master seed.
_NOISE_ALICE, _NOISE_BOB, _COIN_ALICE, _COIN_BOB, _EVE_TIE = range(5)
_WARMUP_SLOT = 0  # bit i uses slot 1 + i

# Bits are stepped in chunks of about this many internal steps (at least
# one bit), which bounds the chunk's input buffer.
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
        if self.r_low == self.r_high:
            raise ValueError("r_low and r_high must differ")
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


def classify_exchange(alice_choice: str, bob_choice: str) -> str:
    """LL and HH expose the bit and are discarded; LH and HL are secure."""
    for c in (alice_choice, bob_choice):
        if c not in (LOW, HIGH):
            raise ValueError(f"choice must be 'L' or 'H', got {c!r}")
    return "discard" if alice_choice == bob_choice else "secure"


def _own_choice(own_resistance: float, levels: NoiseLevels) -> str:
    if abs(own_resistance - levels.r_low) <= abs(own_resistance - levels.r_high):
        return LOW
    return HIGH


def infer_remote_bit(
    own_resistance: float,
    mean_sq: float,
    levels: NoiseLevels,
    quantity: str = "voltage",
) -> str:
    """Classify one mean-square reading to the nearest expected level.

    Knowing its own resistor, a party faces two candidate levels (remote
    low or remote high).  The threshold sits at their geometric mean;
    a reading exactly on the threshold resolves to the larger level.
    """
    if quantity not in ("voltage", "current"):
        raise ValueError("quantity must be 'voltage' or 'current'")
    own = _own_choice(own_resistance, levels)
    if quantity == "voltage":
        cand = {LOW: levels.uu_ll, HIGH: levels.uu_lh} if own == LOW else {
            LOW: levels.uu_lh,
            HIGH: levels.uu_hh,
        }
    else:
        cand = {LOW: levels.ii_ll, HIGH: levels.ii_lh} if own == LOW else {
            LOW: levels.ii_lh,
            HIGH: levels.ii_hh,
        }
    threshold = math.sqrt(cand[LOW] * cand[HIGH])
    upper = LOW if cand[LOW] >= cand[HIGH] else HIGH
    lower = HIGH if upper == LOW else LOW
    return upper if mean_sq >= threshold else lower


def infer_remote_resistance(own_resistance, mean_sq_u, mean_sq_i, levels: NoiseLevels):
    """Combined voltage/current inference, elementwise over arrays of bits.

    The ratio of the two mean squares estimates the resistance product
    R_A R_B independent of the temperature, so dividing by the known own
    resistance estimates the remote resistor directly.  Both parties get
    the same 9:1 hypothesis separation this way, which is what makes the
    legitimate bit error rate negligible at practical BEP durations.
    A bit with no current falls back to the voltage level alone.
    """
    u, i = np.asarray(mean_sq_u, dtype=np.float64), np.asarray(mean_sq_i, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        remote_est = (u / i) / own_resistance
    high = np.where(
        i <= 0,
        u >= math.sqrt(levels.uu_ll * levels.uu_hh),
        remote_est >= math.sqrt(levels.r_low * levels.r_high),
    )
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

    Bits run in chunks of about ``_CHUNK_STEPS`` internal steps.  Within a
    bit the network is linear and time invariant, so a bit's probes are
    its zero-state response plus the free response to its start state.
    A chunk groups its bits by arrangement, runs each group's zero-state
    responses as one GEMM recurrence with the bits as columns
    (``TransientSolver.propagate``), hands the state from bit to bit with
    one matvec each, and adds the free responses with one GEMM per group
    (``TransientSolver.handoff_maps``).  The first bit of a chunk starts
    from the session state, so a one-bit run needs no handoff maps.
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
        self._solvers: dict[tuple[str, str], TransientSolver] = {}
        # Session state in history coordinates (TransientSolver._history),
        # shared by every arrangement's solver; None until the first run.
        self._hist: np.ndarray | None = None
        self._time_units = 0  # elapsed measurement intervals

    def _solver_for(self, alice_choice: str, bob_choice: str) -> TransientSolver:
        key = (alice_choice, bob_choice)
        solver = self._solvers.get(key)
        if solver is None:
            netlist = self.builder(
                self.config.resistance(alice_choice), self.config.resistance(bob_choice)
            )
            solver = TransientSolver(
                netlist, self.solver_config.internal_step_s, self.solver_config.tolerance
            )
            for other in self._solvers.values():
                if not np.array_equal(other.history_weights, solver.history_weights):
                    raise ValueError(
                        "netlist_builder changed the reactive elements between "
                        "resistor pairs; the state cannot carry across them"
                    )
            self._solvers[key] = solver
        return solver

    def _inputs(
        self,
        solver: TransientSolver,
        slots: list[int],
        arrangement: tuple[str, str],
        n_units: int,
        noise_overrides: dict[str, Waveform] | None,
    ) -> np.ndarray:
        """Inputs of ``propagate`` for one bit per slot, all with one
        arrangement: each party's noise is synthesized straight into its
        rows, other sources hold their constant value."""
        S = self.oversample
        u = np.empty((len(slots), n_units, len(solver.source_names), S))
        const = solver.assemble_inputs(1, {})[0]
        parties = {"ua": ("alice", _NOISE_ALICE, arrangement[0]),
                   "ub": ("bob", _NOISE_BOB, arrangement[1])}
        for j, name in enumerate(solver.source_names):
            if name not in parties:
                u[:, :, j] = const[j]
                continue
            party, purpose, choice = parties[name]
            if noise_overrides and party in noise_overrides:
                w = noise_overrides[party].samples
                if w.size < S * n_units:
                    raise ValueError(f"waveform for source {name!r} too short")
                u[0, :, j] = w[: S * n_units].reshape(n_units, S)
                continue
            spec = NoiseSpec(
                bandwidth_hz=self.config.bandwidth_hz,
                rms_volts=self.config.generator_rms(choice),
                duration_s=n_units * self.config.t_s,
                sample_interval_s=self.solver_config.internal_step_s,
            )
            seeds = [derive_seed(self.master_seed, slot, purpose) for slot in slots]
            generate_blocks(spec, seeds, S, out=u[:, :, j])
        return u.reshape(len(slots), n_units, -1)

    def _exchange(
        self,
        slots: list[int],
        arrangements: list[tuple[str, str]],
        n_units: int,
        noise_overrides: dict[str, Waveform] | None = None,
    ) -> tuple[np.ndarray, list[str]]:
        """Run consecutive periods of ``n_units`` measurement intervals,
        one per noise slot, and advance the session.

        Returns the probes, (len(slots), n_probes, n_units), and the probe
        names.
        """
        S = self.oversample
        groups: dict[tuple[str, str], list[int]] = {}
        for k, arrangement in enumerate(arrangements):
            groups.setdefault(arrangement, []).append(k)
        solvers = {a: self._solver_for(*a) for a in groups}
        first = solvers[arrangements[0]]
        m = len(first.history_weights)
        h = np.zeros(m) if self._hist is None else self._hist

        # Zero-state responses, one GEMM recurrence per arrangement with
        # the bits as rows; bit 0 starts from h.
        y = np.empty((len(slots), len(first.probe_names), n_units))
        z = np.empty((len(slots), m))
        for a, idx in groups.items():
            u = self._inputs(solvers[a], [slots[k] for k in idx], a, n_units, noise_overrides)
            h0 = np.zeros((len(idx), m))
            if idx[0] == 0:
                h0[0] = h
            y[idx], z[idx], _ = solvers[a].propagate(h0, u, S)

        # Hand the state from bit to bit, then add the free responses.
        starts = np.empty((len(slots), m))
        h = z[0]
        for k in range(1, len(slots)):
            starts[k] = h
            A_R, _ = solvers[arrangements[k]].handoff_maps(S, n_units)
            h = A_R @ h + z[k]
        for a, idx in groups.items():
            later = [k for k in idx if k > 0]
            if later:
                _, O = solvers[a].handoff_maps(S, n_units)
                y[later] += np.tensordot(starts[later], O, 1)

        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(y))):
            raise DivergenceError("non-finite values during integration")
        self._hist = h
        self._time_units += len(slots) * n_units
        return y, first.probe_names

    def run_warmup(self, n_units: int, arrangement: tuple[str, str] = (LOW, HIGH)) -> None:
        """Discarded settling interval before the first measured bit."""
        if n_units <= 0:
            return
        self._exchange([_WARMUP_SLOT], [arrangement], n_units)

    def draw_arrangement(self, bit_index: int) -> tuple[str, str]:
        """Per-party fair coins (random mode) or the fixed LH pattern."""
        if self.config.arrangement == "fixed_lh":
            return (LOW, HIGH)
        slot = 1 + bit_index
        a = derive_seed(self.master_seed, slot, _COIN_ALICE) & 1
        b = derive_seed(self.master_seed, slot, _COIN_BOB) & 1
        return (HIGH if a else LOW, HIGH if b else LOW)

    def _measure(
        self,
        bits,
        arrangements: list[tuple[str, str]],
        noise_overrides: dict[str, Waveform] | None = None,
    ) -> BepRecords:
        """Exchange consecutive bits in chunks, filling one record."""
        cfg = self.config
        n = len(bits)
        records = BepRecords(
            bit_index=np.array(bits, dtype=np.int64),
            alice_choice=np.array([a for a, _ in arrangements], dtype="<U1"),
            bob_choice=np.array([b for _, b in arrangements], dtype="<U1"),
            probes=np.empty((n, len(PROBES), cfg.bep_units)),
            start_time_s=(self._time_units + np.arange(n) * cfg.bep_units + 1) * cfg.t_s,
            t_s=cfg.t_s,
        )
        per_chunk = max(1, _CHUNK_STEPS // (cfg.bep_units * self.oversample))
        for start in range(0, n, per_chunk):
            rows = slice(start, start + per_chunk)
            y, names = self._exchange(
                [1 + i for i in bits[rows]], arrangements[rows], cfg.bep_units, noise_overrides
            )
            records.probes[rows] = y[:, [names.index(p) for p in PROBES]]
        return records

    def run_bit(
        self,
        bit_index: int,
        arrangement: tuple[str, str] | None = None,
        noise_overrides: dict[str, Waveform] | None = None,
    ) -> BepRecords:
        """Exchange one bit; a one-row record of what the parties and Eve see."""
        if arrangement is None:
            arrangement = self.draw_arrangement(bit_index)
        return self._measure([bit_index], [arrangement], noise_overrides)

    def run_bits(self, n_bits: int, warmup_units: int = 0,
                 arrangements: list[tuple[str, str]] | None = None) -> BepRecords:
        """Warm up, then exchange bits 0 .. n_bits - 1 in chunks, in
        ``arrangements`` if the caller has drawn them (``draw_arrangement``)."""
        if arrangements is None:
            arrangements = [self.draw_arrangement(i) for i in range(n_bits)]
        if len(arrangements) != n_bits:
            raise ValueError(f"{len(arrangements)} arrangements for {n_bits} bits")
        self.run_warmup(warmup_units, arrangements[0] if n_bits else self.draw_arrangement(0))
        return self._measure(range(n_bits), arrangements)

    @property
    def factorization_residual(self) -> float:
        """Largest random-RHS residual of the LU factors built so far."""
        return max((s.factorization_residual for s in self._solvers.values()), default=0.0)


def run_bep(
    netlist_builder,
    config: ProtocolConfig,
    bit_index: int,
    true_arrangement: tuple[str, str],
    seed: int,
    solver_config: SolverConfig | None = None,
    warmup_units: int = 0,
    noise_overrides: dict[str, Waveform] | None = None,
) -> BepRecords:
    """Single standalone bit exchange from zero initial conditions."""
    session = KeyExchangeSession(netlist_builder, config, solver_config, master_seed=seed)
    if warmup_units:
        session.run_warmup(warmup_units, true_arrangement)
    return session.run_bit(bit_index, true_arrangement, noise_overrides)
