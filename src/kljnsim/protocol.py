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

import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import noise as _noise
from . import seeding
from .network import check_integer
from .noise import (NoiseSpec, draw_lines, line_phases, line_records, line_window,
                    rms_for_resistor)
from .solver import (DivergenceError, SolverConfig, TransientSolver, shared_solver,
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

# The step budget of a unit of work, which bounds its buffers: an
# arrangement's bits are evaluated in batches of about this many internal
# steps (at least one bit), and a longer bit reads its probes from its
# lines by transform, not phase table (``KeyExchangeSession._maps_for``).
_CHUNK_STEPS = 2**15


def engine_cpus() -> int:
    """The CPUs this process may run on, which decide whether a run's
    batches are evaluated on a worker thread beside the draws
    (``KeyExchangeSession._exchange``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def derive_seed(*keys: int) -> int:
    """Deterministic independent sub-seed from a tuple of integers."""
    ss = np.random.SeedSequence([operator.index(k) for k in keys])
    return int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")


@dataclass(frozen=True)
class ProtocolConfig:
    """Operating point of the key exchange."""

    r_low: float = 1000.0
    r_high: float = 9000.0
    t_eff: float = T_EFF_DEFAULT
    bandwidth_hz: float = 250.0
    bep_units: int = 100
    arrangement: str = "fixed_lh"  # or "random"

    def __post_init__(self):
        check_integer("bep_units", self.bep_units)
        if self.r_low <= 0 or self.r_high <= 0:
            raise ValueError("resistances must be positive")
        if not self.r_low < self.r_high:
            raise ValueError(f"r_low ({self.r_low}) must be below r_high ({self.r_high})")
        if self.t_eff < 0:
            raise ValueError("t_eff must be non-negative")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.bep_units < 1:
            raise ValueError("bep_units must be positive")
        if self.arrangement not in ("fixed_lh", "random"):
            raise ValueError("arrangement must be 'fixed_lh' or 'random'")

    @property
    def t_s(self) -> float:
        """The measurement interval and BEP unit: the noise autocorrelation
        time 1 / (4 B_noise)."""
        return 1.0 / (4.0 * self.bandwidth_hz)

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


def _check_count(name: str, value, least: int) -> None:
    """``check_integer``, and no less than ``least``."""
    check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


@functools.lru_cache(maxsize=8)
def _record_phases(n_pad: int, k_max: int, stride: int, n: int) -> np.ndarray:
    """E (2 k_max, n): the map from lines, as a complex array's float view
    holds them, to n records read every ``stride`` steps: rows 2k and
    2k + 1 of column j are Re and -Im of z_k^(j stride)."""
    Z = line_phases(n_pad, k_max, np.arange(n) * stride).T
    E = np.stack([Z.real, -Z.imag], axis=1).reshape(2 * k_max, n)
    E.setflags(write=False)  # shared by every caller through the cache
    return E


def _view(workspace: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of a flat workspace array, as a C-contiguous
    view of ``shape``."""
    return workspace[: math.prod(shape)].reshape(shape)


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
    switches.  Their probes must be ``PROBES`` in that order and every
    source but ``ua`` and ``ub`` must hold 0 V (``_solver_for`` checks).

    A run of bits is one pass (a warmup and ``run_bit`` are one-bit runs).
    Within a bit the network is linear and time invariant and each
    party's noise is a sum of k_max spectral lines (``noise.line_window``),
    so a bit's history is the steady state h_ss[t] = Re sum_k X_k a_k z_k^t
    plus a free response, X_k the arrangement's resolvent over the lines
    (``TransientSolver.window_resolvent``).  A bit's probes are
    Re sum_k H_k a_k z_k^t, read from its lines (``_maps_for``), plus the
    free response d @ O to d = h0 - h_ss[0], and it ends at h_ss[n] + A_R d
    (``TransientSolver.handoff_maps``).  h_ss[0] and h_ss[n] come from
    the series coefficients of X and the lines' moments about each
    series' centre, so X is never held whole.

    A run groups its bits by arrangement once and draws and evaluates each
    group's lines in batches of about ``_CHUNK_STEPS`` internal steps, in
    one workspace per run sized by the largest batch.  The calling thread
    draws every batch's lines; when a run has more than one batch and the
    process may run on more than one CPU (``engine_cpus``), one worker
    thread, started and joined within the run, evaluates batch i while
    the caller draws batch i + 1 into a second lines buffer.  Otherwise
    the caller evaluates each batch itself, through the same function, so
    the outputs are bitwise the same either way.  The caller then hands
    the state from bit to bit with one matvec each and adds the free
    responses with one GEMM per batch, with handoff maps fetched once per
    run and arrangement.  Bit 0's free response is
    stepped record by record from the session state
    (``TransientSolver.propagate``), so a one-bit run needs no handoff
    maps.

    The solvers are the process's shared builds (``shared_solver``): a
    netlist's LU, resolvents and record and handoff maps are built once
    for every session that runs on it.  A solver holds no run state; the
    session holds its history in ``_hist``.
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
        # Per arrangement and bit length: the bit maps (``_maps_for``).
        self._maps: dict[tuple[tuple[str, str], int], tuple] = {}
        # Session state, the history vector h (``TransientSolver.run``)
        # shared by every arrangement's solver; None until the first run.
        self._hist: np.ndarray | None = None
        self._time_units = 0  # elapsed measurement intervals

    def _solver_for(self, arrangement: tuple[str, str]) -> TransientSolver:
        """The arrangement's solver, the shared build of its netlist
        (``shared_solver``), checked against the session's contract on
        first use."""
        solver = self._solvers.get(arrangement)
        if solver is None:
            netlist = self.builder(*map(self.config.resistance, arrangement))
            if tuple(netlist.probes) != PROBES:
                raise ValueError(f"the session reads the probes {', '.join(PROBES)} in "
                                 f"that order, not {', '.join(netlist.probes)}")
            held = [br.name for br in netlist.branches
                    if br.kind == "V" and br.name not in _PARTY_SOURCES and br.value != 0]
            if held:
                raise ValueError(f"source(s) {', '.join(held)} must hold 0 V: the session "
                                 "drives ua and ub and holds every other source at 0")
            solver = shared_solver(netlist, self.solver_config)
            for other in self._solvers.values():
                if not np.array_equal(other.history_weights, solver.history_weights):
                    raise ValueError(
                        "netlist_builder changed the reactive elements between "
                        "resistor pairs; the state cannot carry across them"
                    )
            self._solvers[arrangement] = solver
        return solver

    def _maps_for(self, arrangement: tuple[str, str], n_units: int) -> tuple:
        """The arrangement's solver and the maps of its bits of ``n_units``:

        - P (4, 2, k_max): the probes' gains from Alice's and Bob's unit
          lines, turned to the first record: H_k z_k^(S - 1) times each
          party's line amplitude;
        - E, what reads a bit's records from the probes' lines P c: for a
          bit within the step budget (n_units S <= ``_CHUNK_STEPS``), the
          phase table (2 k_max, n_units) of ``_record_phases``, cached per
          process; for a longer bit, ``noise.line_records`` over the
          bit's window, one transform per probe, which holds no table;
        - M (k_max, 2J): the lines' moments about each series' centre, at
          the bit's start and, turned by z_k^(n S), at its end;
        - T (4J, m): the series coefficients for Alice's then Bob's moments,
          times the line amplitude, as real rows: Re then -Im of each, so
          that the moments' float view meets them in one real GEMM giving
          Re(moments @ coefficients), as a phase table E meets the lines.
        """
        key = (arrangement, n_units)
        maps = self._maps.get(key)
        if maps is None:
            S = self.oversample
            solver = self._solver_for(arrangement)
            windows = [line_window(self._noise_spec(choice, n_units)) for choice in arrangement]
            n_pad, k_max, _ = windows[0]
            amplitude = np.array([w[2] for w in windows])
            res = solver.window_resolvent(n_pad, k_max, _PARTY_SOURCES)
            # contiguous, so the batch product has a contiguous last axis
            P = (np.ascontiguousarray(res.H.transpose(1, 2, 0)) * amplitude[:, None]
                 * line_phases(n_pad, k_max, S - 1))
            M = np.hstack([res.V, res.V * line_phases(n_pad, k_max, n_units * S)[:, None]])
            T = res.T.transpose(2, 0, 1) * amplitude[:, None, None]
            T = np.stack([T.real, -T.imag], axis=2).reshape(4 * len(res.T), solver.n_states)
            E = (_record_phases(n_pad, k_max, S, n_units) if n_units * S <= _CHUNK_STEPS
                 else functools.partial(line_records, n_pad=n_pad, stride=S, n=n_units))
            maps = (solver, P, E, M, T)
            self._maps[key] = maps
        return maps

    def _noise_spec(self, choice: str, n_units: int) -> NoiseSpec:
        """The unseeded spec of a party holding ``choice`` for ``n_units``."""
        return NoiseSpec(
            bandwidth_hz=self.config.bandwidth_hz,
            rms_volts=self.config.generator_rms(choice),
            duration_s=n_units * self.config.t_s,
            sample_interval_s=self.solver_config.internal_step_s,
        )

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
        keys, group_of = np.unique(np.char.add(choices[:, 0], choices[:, 1]),
                                   return_inverse=True)
        maps = [self._maps_for(tuple(key), n_units) for key in keys]
        members = [np.flatnonzero(group_of == j) for j in range(len(keys))]
        m = maps[0][0].n_states

        # One workspace for the run, sized by its largest batch and shared
        # by every arrangement: each batch writes into views of it
        # (``_view``), so no batch allocates or page-faults temporaries of
        # its own.  The arrangements share k_max; M's width differs.
        # With more than one batch and more than one CPU, a worker thread
        # evaluates each batch while the caller draws the next into a
        # second ``lines`` buffer.
        per_batch = max(1, _CHUNK_STEPS // (n_units * S))
        size = min(per_batch, max(map(len, members)))
        k_max = maps[0][1].shape[-1]
        width = max(M.shape[1] for _, _, _, M, _ in maps)
        batches = [(j, idx[start : start + per_batch])
                   for j, idx in enumerate(members) for start in range(0, len(idx), per_batch)]
        threaded = len(batches) > 1 and engine_cpus() > 1
        lines = np.empty((1 + threaded, size * 4 * k_max))
        c = np.empty(size * 2 * k_max, dtype=np.complex128)
        b = np.empty(size * len(PROBES) * k_max, dtype=np.complex128)
        b_part = np.empty_like(b)
        y_batch = np.empty(size * len(PROBES) * n_units)
        moments = np.empty(2 * size * width, dtype=np.complex128)
        moments_t = np.empty_like(moments)
        h_ss = np.empty(2 * size * m)
        free = np.empty(size * len(PROBES) * n_units)

        # Steady states, per arrangement in batches: the probes from the
        # lines turned to the first record, read by E for every bit, and
        # h_ss[0], h_ss[n] from the lines' moments.
        y = np.empty((n, len(PROBES), n_units))
        ss = np.empty((n, 2, m))

        def draw(i: int) -> np.ndarray:
            rows = batches[i][1]
            return draw_lines(words[rows], _view(lines[i % len(lines)], len(rows), 2, 2, k_max))

        def evaluate(i: int, x: np.ndarray) -> None:
            j, rows = batches[i]
            _, P, E, M, T = maps[j]
            r = len(rows)
            cr = _view(c, r, 2, k_max)
            cr.real = x[:, :, 0]
            cr.imag = x[:, :, 1]
            br = _view(b, r, len(PROBES), k_max)
            part = _view(b_part, *br.shape)
            np.multiply(P[:, 0], cr[:, None, 0], out=br)
            np.multiply(P[:, 1], cr[:, None, 1], out=part)
            br += part
            if callable(E):
                y[rows] = E(br)
            else:
                y[rows] = np.matmul(br.view(np.float64).reshape(-1, 2 * k_max), E,
                                    out=_view(y_batch, r * len(PROBES), n_units)
                                    ).reshape(r, len(PROBES), n_units)
            # the moments come as (bit, party, start/end, J); T wants
            # each bit's start, then end, moments of both parties
            mom = np.matmul(cr.reshape(2 * r, k_max), M,
                            out=_view(moments, 2 * r, M.shape[1]))
            mom_t = _view(moments_t, r, 2, 2, M.shape[1] // 2)
            np.copyto(mom_t, mom.reshape(mom_t.shape).transpose(0, 2, 1, 3))
            ss[rows] = np.matmul(mom_t.view(np.float64).reshape(2 * r, -1), T,
                                 out=_view(h_ss, 2 * r, m)).reshape(r, 2, m)

        if threaded:
            # The draws hold the GIL to seed each stream; the evaluation's
            # GEMMs and loops release it, so the two overlap.
            with ThreadPoolExecutor(max_workers=1) as worker:
                x = draw(0)
                for i in range(len(batches)):
                    pending = worker.submit(evaluate, i, x)
                    if i + 1 < len(batches):
                        x = draw(i + 1)
                    pending.result()
        else:
            for i in range(len(batches)):
                evaluate(i, draw(i))

        # Bit 0's free response, stepped from the session state.
        d = (np.zeros(m) if self._hist is None else self._hist) - ss[0, 0]
        y_0, h = maps[group_of[0]][0].propagate(d[None], S, n_units)
        y[0] += y_0[0]
        h = h[0] + ss[0, 1]

        # Hand the state from bit to bit, leaving each later bit's d in
        # ss[:, 0], then add their free responses.
        later_groups = group_of[1:].tolist()
        handoffs = {j: maps[j][0].handoff_maps(S, n_units) for j in set(later_groups)}
        for k, A_R in enumerate([handoffs[j][0] for j in later_groups], 1):
            d = ss[k, 0]
            np.subtract(h, d, out=d)
            np.matmul(A_R, d, out=h)
            h += ss[k, 1]
        for j, (_, O) in handoffs.items():
            O = O.reshape(m, len(PROBES) * n_units)
            later = members[j][members[j] > 0]
            for start in range(0, len(later), per_batch):
                rows = later[start : start + per_batch]
                y_free = np.matmul(ss[rows, 0], O, out=_view(free, len(rows), O.shape[1]))
                y[rows] += y_free.reshape(len(rows), len(PROBES), n_units)

        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(y))):
            raise DivergenceError("non-finite values during integration")
        self._hist = h
        self._time_units += n * n_units
        return y

    def run_warmup(self, n_units: int, arrangement: tuple[str, str] = (LOW, HIGH)) -> None:
        """Discarded settling interval before the first measured bit."""
        _check_count("n_units", n_units, 0)
        if n_units == 0:
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
        _check_count("bit_index", bit_index, 0)
        choices = (self.draw_choices([bit_index]) if arrangement is None
                   else np.array([arrangement]))
        return self._measure([bit_index], choices, self._noise_words([1 + bit_index]))

    def run_bits(self, n_bits: int, warmup_units: int = 0, arrangements=None) -> BepRecords:
        """Warm up, then exchange bits 0 .. n_bits - 1 as one run, with the
        (n_bits, 2) choices ``arrangements`` if the caller has drawn them
        (``draw_choices``).

        The noise seeds of the whole run, warmup included, are derived up
        front in one ``_noise_words`` call."""
        check_integer("n_bits", n_bits)
        if n_bits < 1:
            raise ValueError("n_bits must be at least 1; run_warmup settles alone")
        _check_count("warmup_units", warmup_units, 0)
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
        return max((s.factorization_residual for s in self._solvers.values()), default=0.0)

