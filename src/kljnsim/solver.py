"""Transient simulation of linear netlists driven by stochastic sources.

Modified nodal analysis with fixed-step trapezoidal integration.  The
system matrix is constant for a fixed step, so it is factorized once;
reactive elements are replaced by their trapezoidal companion models
(conductance plus history current source).  Every matrix is built from
one branch-node incidence matrix D: the step system and the t = 0
system differ only in which branches contribute conductances and which
become voltage constraints.

Because the whole per-step update is linear and time invariant, the
solver also precomputes an exact map for one record of ``stride``
internal steps.  The state enters each step only through one history
source per reactive element, so the maps act on those coordinates, half
the state.  ``propagate`` steps many independent runs record by record
with two GEMMs per record; ``handoff_maps`` gives a run's response to its
start state.  This gives the same decimated output as plain stepping up
to round-off (the tests hold it to 1e-13 absolute, 1e-12 relative over
whole sessions) at a fraction of the cost; the plain path is kept as the
reference implementation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .network import Netlist
from .noise import Waveform


class SingularNetworkError(RuntimeError):
    """The MNA matrix is singular; ``node`` names a suspect when known."""

    def __init__(self, message: str, node: str | None = None):
        super().__init__(message)
        self.node = node


class DivergenceError(RuntimeError):
    """Non-finite values appeared during integration."""


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step trapezoidal solver settings."""

    internal_step_s: float
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.internal_step_s <= 0:
            raise ValueError("internal_step_s must be positive")
        if not (0 < self.tolerance <= 1e-6):
            raise ValueError("tolerance must be in (0, 1e-6]")


@dataclass
class TransientResult:
    """Probe waveforms decimated to the measurement interval."""

    probes: dict[str, Waveform]
    factorization_residual: float
    step_count: int


class TransientSolver:
    """Stateful stepping engine for one netlist at one internal step.

    The companion state (capacitor voltage/current, inductor
    current/voltage pairs) lives in a flat vector that can be exported
    and re-imported, e.g. to continue a timeline on a netlist whose
    resistor values changed between bits.
    """

    def __init__(self, netlist: Netlist, internal_step_s: float, tolerance: float = 1e-9):
        self.netlist = netlist
        self.dt = float(internal_step_s)
        self.tolerance = tolerance
        self._build()
        self.reset_state()

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build(self) -> None:
        nl = self.netlist
        dt = self.dt
        branches = nl.branches

        self._nodes = [n for n in nl.nodes() if n != nl.ground]
        col = {n: i for i, n in enumerate(self._nodes)}
        n_nodes = len(self._nodes)

        def incidence(pairs) -> np.ndarray:
            # +1 on the first node, -1 on the second, ground dropped.
            D = np.zeros((len(pairs), n_nodes))
            for k, (a, b) in enumerate(pairs):
                if a in col:
                    D[k, col[a]] += 1.0
                if b in col:
                    D[k, col[b]] -= 1.0
            return D

        kind = np.array([br.kind for br in branches])
        self._value = np.array([br.value for br in branches], dtype=np.float64)
        self._D = incidence([(br.a, br.b) for br in branches])
        # E rows of the constraint block subtract gain x the sensed pair.
        self._K = self._value[:, None] * incidence(
            [(br.ctrl_a, br.ctrl_b) if br.kind == "E" else (None, None) for br in branches]
        )
        self._res = np.flatnonzero(kind == "R")
        self._caps = np.flatnonzero(kind == "C")
        self._inds = np.flatnonzero(kind == "L")
        self._cons = np.flatnonzero((kind == "V") | (kind == "E"))
        for k in self._res:
            if self._value[k] <= 0:
                raise ValueError(f"resistor {branches[k].name!r} must have positive value")

        self._sources = [br for br in branches if br.kind == "V"]
        self.source_names = [br.name for br in self._sources]
        # Unknown holding each source's current; the t = 0 system keeps
        # the same V/E rows first, so the index serves both systems.
        self._src_rows = n_nodes + np.flatnonzero(kind[self._cons] == "V")

        caps, inds = self._caps, self._inds
        nc, nl_ = len(caps), len(inds)
        # State layout: [cap v, cap i, ind i, ind v].
        self.n_states = 2 * nc + 2 * nl_
        self._sl_cv = slice(0, nc)
        self._sl_ci = slice(nc, 2 * nc)
        self._sl_li = slice(2 * nc, 2 * nc + nl_)
        self._sl_lv = slice(2 * nc + nl_, 2 * nc + 2 * nl_)
        self._sl_h = slice(nc, 2 * nc + nl_)  # companion currents: cap i, ind i

        g_cap = 2.0 * self._value[caps] / dt
        g_ind = dt / (2.0 * self._value[inds])
        # Weights of the history sources (see ``_history``); runs hand
        # state between solvers with equal weights in these coordinates.
        self.history_weights = np.concatenate([g_cap, g_ind])
        M = self._mna(
            np.concatenate([self._res, caps, inds]),
            np.concatenate([1.0 / self._value[self._res], g_cap, g_ind]),
            self._cons,
        )
        lu, self.factorization_residual = self._factor(M, "step system")
        self._lu0 = None

        n_u = len(M)
        Dx = np.zeros((len(branches), n_u))  # branch voltages from the unknowns
        Dx[:, :n_nodes] = self._D
        Dc, Dl = Dx[caps], Dx[inds]
        # History sources: rhs += gC v + i for capacitors, -= i + gL v for
        # inductors, on the branch's a side and opposite on b.
        E_s = np.hstack([Dc.T * g_cap, Dc.T, -Dl.T, -Dl.T * g_ind])
        E_u = np.zeros((n_u, len(self._sources)))
        E_u[self._src_rows, np.arange(len(self._sources))] = 1.0
        V_s = sla.lu_solve(lu, E_s)
        V_u = sla.lu_solve(lu, E_u)

        # State update s' = P V' + Q s.
        P = np.vstack([Dc, g_cap[:, None] * Dc, g_ind[:, None] * Dl, Dl])
        Q = np.zeros((self.n_states, self.n_states))
        Q[self._sl_ci, self._sl_cv] = -np.diag(g_cap)
        Q[self._sl_ci, self._sl_ci] = -np.eye(nc)
        Q[self._sl_li, self._sl_li] = np.eye(nl_)
        Q[self._sl_li, self._sl_lv] = np.diag(g_ind)
        self._A = P @ V_s
        self._A += Q
        self._B = P @ V_u

        # Probe rows over [V, s]: y_k = Cv V_k + Cst s_k.  Column holding
        # each branch current; resistor currents are D rows over R.
        cur = np.full(len(branches), -1)
        cur[self._cons] = np.arange(n_nodes, n_u)
        cur[caps] = n_u + self._sl_ci.start + np.arange(nc)
        cur[inds] = n_u + self._sl_li.start + np.arange(nl_)
        row = {br.name: k for k, br in enumerate(branches)}
        self.probe_names = list(nl.probes)
        Y = np.zeros((len(self.probe_names), n_u + self.n_states))
        for i, (pkind, ref) in enumerate(nl.probes.values()):
            if pkind == "v":
                if ref in col:
                    Y[i, col[ref]] = 1.0
            elif kind[row[ref]] == "R":
                Y[i, :n_u] = Dx[row[ref]] / self._value[row[ref]]
            else:
                Y[i, cur[row[ref]]] = 1.0
        Cv, Cst = Y[:, :n_u], Y[:, n_u:]

        # y_k in terms of (s_{k-1}, u_k).
        Cy_V = Cv + Cst @ P
        self._Ys0 = Cy_V @ V_s + Cst @ Q
        self._Yu0 = Cy_V @ V_u
        self._block_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._handoff_cache: dict[tuple[int, int], tuple] = {}

    def _mna(self, cond: np.ndarray, g: np.ndarray, cons: np.ndarray) -> np.ndarray:
        """MNA matrix with conductances ``g`` on the branches ``cond`` and
        one current unknown plus one voltage constraint per branch in
        ``cons`` (branch indices into the netlist)."""
        D = self._D
        n = D.shape[1]
        M = np.zeros((n + len(cons), n + len(cons)))
        M[:n, :n] = D[cond].T @ (g[:, None] * D[cond])
        M[:n, n:] = D[cons].T
        M[n:, :n] = D[cons] - self._K[cons]
        return M

    def _factor(self, M: np.ndarray, system: str):
        """LU factors of ``M`` and the residual of a random-RHS solve.

        Raises ``SingularNetworkError`` naming ``system`` for a dangling
        node, a zero pivot, or a residual above the tolerance.
        """
        # Structurally dangling unknowns make the matrix singular; name
        # the node instead of failing inside LAPACK.
        for i, n in enumerate(self._nodes):
            if not np.any(M[i]):
                raise SingularNetworkError(
                    f"node {n!r} has no connection to the rest of the network "
                    f"in the {system}",
                    node=n,
                )
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            try:
                lu = sla.lu_factor(M)
            except (sla.LinAlgError, sla.LinAlgWarning, ValueError) as exc:
                raise SingularNetworkError(f"singular {system}: {exc}") from exc

        rng = np.random.default_rng(12345)
        b = rng.standard_normal(len(M))
        x = sla.lu_solve(lu, b)
        residual = float(np.max(np.abs(M @ x - b)) / max(np.max(np.abs(b)), 1e-300))
        # Written so that a NaN residual fails too.
        if not residual <= self.tolerance:
            raise SingularNetworkError(
                f"{system}: linear solve residual {residual:.2e} exceeds "
                f"tolerance {self.tolerance:.2e} (near-singular matrix)"
            )
        return lu, residual

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------

    def reset_state(self) -> None:
        self.state = np.zeros(self.n_states)

    def get_state(self) -> np.ndarray:
        return self.state.copy()

    def set_state(self, state: np.ndarray) -> None:
        if state.shape != (self.n_states,):
            raise ValueError("state vector has wrong length")
        self.state = state.copy()

    def initialize_companions(self, u0: np.ndarray) -> None:
        """Make companion currents consistent with the sources at t = 0.

        Capacitor voltages and inductor currents (the true initial
        conditions) are kept; the instantaneous circuit is solved with
        capacitors as voltage constraints and inductors as current
        injections to obtain the capacitor currents and inductor
        voltages at t = 0.  Without this, a source that is already
        nonzero at t = 0 is seen as ramping up over the first step.
        """
        if self.n_states == 0:
            return
        if self._lu0 is None:
            M0 = self._mna(
                self._res,
                1.0 / self._value[self._res],
                np.concatenate([self._cons, self._caps]),
            )
            self._lu0, _ = self._factor(M0, "instantaneous (t = 0) system")

        n_nodes = len(self._nodes)
        n_fixed = n_nodes + len(self._cons)  # first capacitor current unknown
        rhs = np.zeros(n_fixed + len(self._caps))
        rhs[:n_nodes] = -self._D[self._inds].T @ self.state[self._sl_li]
        rhs[self._src_rows] = np.asarray(u0, dtype=np.float64)
        rhs[n_fixed:] = self.state[self._sl_cv]
        sol = sla.lu_solve(self._lu0, rhs)
        self.state[self._sl_ci] = sol[n_fixed:]
        self.state[self._sl_lv] = self._D[self._inds] @ sol[:n_nodes]

    def assemble_inputs(self, n_steps: int, waveforms: dict[str, np.ndarray]) -> np.ndarray:
        """Input matrix for ``run``: driven sources from waveform samples,
        undriven ones held at their constant branch value."""
        u = np.empty((n_steps, len(self._sources)))
        for j, br in enumerate(self._sources):
            if br.name in waveforms:
                w = np.asarray(waveforms[br.name], dtype=np.float64)
                if w.size < n_steps:
                    raise ValueError(f"waveform for source {br.name!r} too short")
                u[:, j] = w[:n_steps]
            else:
                u[:, j] = br.value
        return u

    def stored_energy(self) -> float:
        """Sum of C v^2 / 2 and L i^2 / 2 over all reactive branches."""
        cv, li = self.state[self._sl_cv], self.state[self._sl_li]
        return 0.5 * float(
            self._value[self._caps] @ cv**2 + self._value[self._inds] @ li**2
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def _history(self, x: np.ndarray) -> np.ndarray:
        """History sources h = H x of states x (one per column): gC v + i
        per capacitor, i + gL v per inductor.

        The state enters the next step only through h, so the one-step map
        factors as A = U H with U = A[:, companion-current columns]
        (201 of 402 columns on the 100-section ladder), and every record
        depends on the state through h alone.
        """
        w = self.history_weights.reshape((-1,) + (1,) * (x.ndim - 1))
        return x[self._sl_h] + w * np.concatenate([x[self._sl_cv], x[self._sl_lv]])

    def _history_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step in history coordinates: (F, Bh, Yh) with F = H U and
        Bh = H B, so that h' = F h + Bh u and y = Yh h + Yu0 u."""
        return (self._history(self._A[:, self._sl_h]), self._history(self._B),
                self._Ys0[:, self._sl_h])

    def _block_maps(self, stride: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact maps for one record of ``stride`` steps, in history
        coordinates h (see ``_history``).

        The step is h' = F h + Bh u, y = Yh h + Yu0 u (``_history_system``).
        A record's inputs u are ``stride * n_sources`` values,
        source-major (step p of source j at j * stride + p).  With g the
        history one step before the record ends, g = F^(stride-1) h + Sm u:
            y  = Yh g + Yu0 u_last   = Y_h h + Y_u u
            h' = F g + Bh u_last     = F_blk h + S_h u
        Returns the stacked transposes W_h = [Y_h; F_blk]^T and
        W_u = [Y_u; S_h]^T, so that [y, h'] = h @ W_h + u @ W_u.
        """
        cached = self._block_cache.get(stride)
        if cached is not None:
            return cached
        F, Bh, Yh = self._history_system()
        m, nu = Bh.shape

        Sm = np.zeros((m, nu, stride))
        acc = Bh  # F^(stride-2-p) Bh, starting at p = stride - 2
        for p in range(stride - 2, -1, -1):
            Sm[:, :, p] = acc
            acc = F @ acc
        Sm = Sm.reshape(m, nu * stride)
        Fm = np.linalg.matrix_power(F, stride - 1)

        YF = np.vstack([Yh, F])
        W_h = YF @ Fm
        W_u = YF @ Sm
        last = np.arange(nu) * stride + stride - 1  # the u_last entries
        W_u[:, last] += np.vstack([self._Yu0, Bh])
        maps = (np.ascontiguousarray(W_h.T), np.ascontiguousarray(W_u.T))
        self._block_cache[stride] = maps
        return maps

    def handoff_maps(self, stride: int, n_rec: int) -> tuple[np.ndarray, np.ndarray]:
        """Response of a run of ``n_rec`` records to its start history h0.

        Returns (A_R, O): the run ends at history A_R h0 + z and records
        probes h0 @ O + y (``O`` of shape (m, n_probes, n_rec)), where z
        and y are its zero-state end history and probes from
        ``propagate``.  Raises ``DivergenceError`` if the maps overflow.
        """
        key = (stride, n_rec)
        cached = self._handoff_cache.get(key)
        if cached is not None:
            return cached
        W_h, _ = self._block_maps(stride)
        ny = len(self.probe_names)
        F_blk_t = W_h[:, ny:]
        O = np.empty((len(W_h), ny, n_rec))
        rows = W_h[:, :ny]  # (Y_h F_blk^r)^T
        for r in range(n_rec):
            O[:, :, r] = rows
            rows = F_blk_t @ rows
        A_R = np.linalg.matrix_power(F_blk_t.T, n_rec)
        if not (np.all(np.isfinite(A_R)) and np.all(np.isfinite(O))):
            raise DivergenceError(
                f"the {n_rec}-record state map overflows (unstable network)"
            )
        self._handoff_cache[key] = (A_R, O)
        return A_R, O

    def propagate(self, h: np.ndarray, u: np.ndarray, stride: int):
        """Block recurrence over records for k independent runs at once.

        ``h`` (k, m) holds the start histories of the runs, one per row,
        and ``u`` (k, n_rec, n_sources * stride) their inputs, one record
        per row in the layout of ``_block_maps``.  Each record costs two
        GEMMs across the runs.  Returns the probes (k, n_probes, n_rec),
        the end histories and the histories at the start of the last
        record.  ``self.state`` is untouched.
        """
        W_h, W_u = self._block_maps(stride)
        ny = len(self.probe_names)
        n_rec = u.shape[1]
        y = np.empty((len(h), ny, n_rec))
        h_prev = h
        for r in range(n_rec):
            out = h @ W_h
            out += u[:, r] @ W_u
            y[:, :, r] = out[:, :ny]
            h, h_prev = out[:, ny:], h
        return y, h, h_prev

    def run(
        self,
        source_steps: np.ndarray,
        record_stride: int = 1,
        use_blocks: bool | None = None,
    ) -> np.ndarray:
        """Advance by ``len(source_steps)`` internal steps.

        ``source_steps[k, j]`` is the value of source j at the end of
        internal step k.  Returns probe samples at every
        ``record_stride``-th step (the last step of each stride group),
        shape (n_steps // stride, n_probes).  Internal state advances so
        consecutive calls form one continuous timeline.
        """
        u = np.atleast_2d(np.asarray(source_steps, dtype=np.float64))
        if u.ndim != 2 or u.shape[1] != len(self.source_names):
            raise ValueError(
                f"source_steps must be (n_steps, {len(self.source_names)})"
            )
        n_steps = u.shape[0]
        if n_steps % record_stride != 0:
            raise ValueError("n_steps must be a multiple of record_stride")
        if use_blocks is None:
            use_blocks = record_stride > 1 and n_steps >= 4 * record_stride
        n_rec = n_steps // record_stride

        if use_blocks and n_rec:
            # The one-run case of ``propagate``.
            ub = u.reshape(1, n_rec, record_stride, -1).transpose(0, 1, 3, 2)
            ub = ub.reshape(1, n_rec, -1)
            y, _, h_last = self.propagate(self._history(self.state)[None], ub, record_stride)
            out = y[0].T
            # A s depends on s only through H s, so after the first step of
            # the last record the state is U h_last + B u; step the rest.
            k0 = n_steps - record_stride
            s = self._A[:, self._sl_h] @ h_last[0] + self._B @ u[k0]
            for k in range(k0 + 1, n_steps):
                s = self._A @ s + self._B @ u[k]
            self.state = s
        else:
            out = np.empty((n_rec, len(self.probe_names)))
            s = self.state
            r = 0
            for k in range(n_steps):
                y = self._Ys0 @ s + self._Yu0 @ u[k]
                s = self._A @ s + self._B @ u[k]
                if (k + 1) % record_stride == 0:
                    out[r] = y
                    r += 1
            self.state = s

        if not np.all(np.isfinite(self.state)):
            raise DivergenceError("non-finite state during integration")
        if not np.all(np.isfinite(out)):
            raise DivergenceError("non-finite probe values during integration")
        return out


def transient_solve(
    netlist: Netlist,
    sources: dict[str, Waveform],
    config: SolverConfig,
    duration_s: float,
    t_s: float,
) -> TransientResult:
    """One-shot transient run from zero initial conditions.

    Every independent source in the netlist must come with a waveform at
    the internal rate covering the duration.  Probe outputs are decimated
    to the measurement interval ``t_s`` (samples at t_s, 2 t_s, ...).
    """
    dt = config.internal_step_s
    stride = int(round(t_s / dt))
    if stride < 1 or abs(stride * dt - t_s) > 1e-9 * t_s:
        raise ValueError("t_s must be an integer multiple of the internal step")
    n_steps = int(round(duration_s / dt))
    n_steps -= n_steps % stride

    solver = TransientSolver(netlist, dt, config.tolerance)
    arrays = {}
    for br in netlist.branches:
        if br.kind == "V" and br.source_ref is not None:
            if br.name not in sources:
                raise ValueError(f"no waveform supplied for source {br.name!r}")
            wf = sources[br.name]
            if abs(wf.sample_interval_s - dt) > 1e-9 * dt:
                raise ValueError(
                    f"waveform for source {br.name!r} is not at the internal rate"
                )
            arrays[br.name] = wf.samples
    u = solver.assemble_inputs(n_steps, arrays)
    solver.initialize_companions(u[0])
    recs = solver.run(u, record_stride=stride)
    probes = {
        name: Waveform(recs[:, i], sample_interval_s=t_s, start_time_s=t_s)
        for i, name in enumerate(solver.probe_names)
    }
    return TransientResult(
        probes=probes,
        factorization_residual=solver.factorization_residual,
        step_count=n_steps,
    )


def frequency_response_check(
    netlist: Netlist,
    probe: str,
    f_hz: float,
    source: str | None = None,
    config: SolverConfig | None = None,
) -> complex:
    """Complex gain from one source to one probe at ``f_hz``.

    The steady-state gain of the trapezoidal step map, which is what a
    unit sinusoid stepped through ``run`` settles to, frequency warping
    of the discretization included: with z = e^(2 pi i f dt) and the
    history-coordinate step h' = F h + Bh u, y = Yh h + Yu0 u
    (``TransientSolver._history_system``), H = Yu0 + Yh (zI - F)^-1 Bh,
    one complex solve.  The default step is 1 / (64 f).
    """
    if not f_hz > 0:
        raise ValueError(f"test frequency must be positive, got {f_hz}")
    if config is None:
        config = SolverConfig(internal_step_s=1.0 / (64.0 * f_hz))
    dt = config.internal_step_s
    if f_hz >= 0.5 / dt:
        raise ValueError("test frequency must be below the internal-step Nyquist")

    solver = TransientSolver(netlist, dt, config.tolerance)
    if probe not in solver.probe_names:
        raise ValueError(f"unknown probe {probe!r}")
    j_src = 0 if source is None else solver.source_names.index(source)
    j_probe = solver.probe_names.index(probe)

    F, Bh, Yh = solver._history_system()
    z = np.exp(2j * math.pi * f_hz * dt)
    x = np.linalg.solve(z * np.eye(len(F)) - F, Bh[:, j_src])
    return complex(solver._Yu0[j_probe, j_src] + Yh[j_probe] @ x)
