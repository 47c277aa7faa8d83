"""Transient simulation of linear netlists driven by stochastic sources.

Modified nodal analysis with fixed-step trapezoidal integration.  The
system matrix is constant for a fixed step, so it is factorized once;
reactive elements are replaced by their trapezoidal companion models
(conductance g plus history current source).  The step system is built
from one branch-node incidence matrix D, assembled from the netlist and
not kept.

A run's state is the vector h of history sources, one per reactive
element: h = g v + i per capacitor and per inductor, which is all a step
reads of the past.  The caller holds it: ``run`` and ``propagate`` take
h and return the end history, and ``stored_energy`` reads h; a start
from rest is h = 0.  One step is h' = F h + Bh u with probes
y = Yh h + Yu0 u, built straight from the step LU.  The update is linear
and time invariant, so one kernel, ``_compose``, composes its no-input
half exactly: ``stride`` steps into a record (``_block_maps``) and a
bit's records into its response to its start state (``handoff_maps``).
``propagate`` steps the free responses of many runs a record at a time,
one GEMM per record.  ``run`` is plain stepping, every step one at a
time with its inputs, and is kept only as the reference the record maps
and the bit engine are tested against (to 1e-13 absolute, and whole
sessions to 1e-12 relative).

Driven by a sum of sinusoids at lines z_k, the history settles to
Re sum_k X_k a_k z_k^t with the resolvent X_k = (z_k I - F)^-1 B
(``line_resolvent``, summed as a Taylor series about the middle of the
lines): the bit engine and ``compare.compare_models`` need no stepping
for the noise, the bit engine only for the free response.

A solver holds no run state, only read-only arrays: the step maps, the
branch indices, and caches of the no-input record map per stride, the
handoff maps per bit length and the resolvent per noise window.
Sessions take their solvers from ``shared_solver``, one per netlist,
step and tolerance in the process, so runs on one netlist build all of
that once.

The engine's products are small: 21 to 201 states, a few dozen runs.
OpenBLAS splits them over its default thread pool anyway, and the
synchronisation costs more than the split saves, so the bit engine,
``compare.compare_models`` and ``frequency_response_check`` run inside
``single_blas_thread``.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import math
import threading
import warnings
from collections import OrderedDict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .network import Netlist
from .noise import line_phases


# Extension modules linked against the BLAS numpy and scipy use, and the
# (prefix, suffix) of the thread-count symbols of the OpenBLAS builds
# they may carry: the scipy-openblas wheels (numpy's ILP64, scipy's
# LP64), and plain OpenBLAS as in older wheels and distro builds.
_BLAS_MODULES = ("numpy.linalg._umath_linalg", "scipy.linalg._fblas")
_OPENBLAS_BUILDS = (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                    ("openblas", "64_"), ("openblas", ""))


# The resolvent series of ``line_resolvent``: it stops once a term falls
# below _SERIES_TOL of the first, and an arc is split in two as soon as
# its terms, falling at their rate so far, would not get there within
# _SERIES_TERMS terms.
_SERIES_TOL = 1e-17
_SERIES_TERMS = 60

# Solvers ``shared_solver`` keeps in the process; beyond this many
# netlists the least recently used is dropped.  table1 runs on 2
# netlists, a random-arrangement scenario on 4.
SHARED_SOLVERS = 8


@dataclass(frozen=True)
class BlasPool:
    """One loaded OpenBLAS library's thread pool."""

    name: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def blas_pools() -> tuple[BlasPool, ...]:
    """The OpenBLAS thread pools numpy and scipy compute with.

    dlsym through a handle of a BLAS-linked extension module also
    searches that module's dependencies, so this finds the library a
    module actually calls without listing the process's mappings.  A
    library reached from both modules counts once; an empty tuple means
    no OpenBLAS was found.
    """
    pools: dict[int, BlasPool] = {}
    for module in _BLAS_MODULES:
        try:
            handle = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):
            continue
        for prefix, suffix in _OPENBLAS_BUILDS:
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            address = ctypes.cast(get, ctypes.c_void_p).value
            pools.setdefault(address, BlasPool(prefix + suffix, get, put))
    return tuple(pools.values())


@contextmanager
def single_blas_thread():
    """Run the body with every OpenBLAS pool at one thread, then give
    each pool back the count it had, also when the body raises.

    The counts belong to the process, so scopes that overlap in
    concurrent Python threads can hand each other the wrong count.
    """
    pools = blas_pools()
    before = [pool.get_threads() for pool in pools]
    for pool in pools:
        pool.set_threads(1)
    try:
        yield
    finally:
        for pool, n in zip(pools, before):
            pool.set_threads(n)


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


@dataclass(frozen=True)
class LineResolvent:
    """``TransientSolver.line_resolvent`` over K lines: X_k = sum_j
    V[k, j] T[j], with V (K, J) zero outside each arc's own terms and T
    (J, m, n_driven), and the probe gains H (K, n_probes, n_driven).
    ``arcs`` holds the [lo, hi) line range of each series."""

    V: np.ndarray
    T: np.ndarray
    H: np.ndarray
    arcs: tuple[tuple[int, int], ...]


class TransientSolver:
    """Stepping engine for one netlist at one internal step.

    It holds no run state: the caller holds the history vector h, one
    entry per reactive element (capacitors first, then inductors, in
    netlist order), and passes it in.  Solvers with equal
    ``history_weights`` share its meaning, so a timeline can continue on
    a netlist whose resistor values changed between bits.
    """

    def __init__(self, netlist: Netlist, internal_step_s: float, tolerance: float = 1e-9):
        self.netlist = netlist
        self.dt = float(internal_step_s)
        self.tolerance = tolerance
        self._build()

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

        kind = np.array([br.kind for br in branches])
        value = self._branch_values(range(len(branches)))
        res = np.flatnonzero(kind == "R")
        self._caps = caps = np.flatnonzero(kind == "C")
        self._inds = inds = np.flatnonzero(kind == "L")
        cons = np.flatnonzero((kind == "V") | (kind == "E"))
        for k in res:
            if value[k] <= 0:
                raise ValueError(f"resistor {branches[k].name!r} must have positive value")

        self.source_names = [br.name for br in branches if br.kind == "V"]
        n_src = len(self.source_names)

        react = np.concatenate([caps, inds])
        self.n_states = len(react)
        g = np.concatenate([2.0 * value[caps] / dt, dt / (2.0 * value[inds])])
        # Weights of the history sources h = g v + i; runs hand state
        # between solvers with equal weights.
        self.history_weights = g
        # A capacitor's companion current is g v' - h, an inductor's g v' + h.
        sign = np.concatenate([-np.ones(len(caps)), np.ones(len(inds))])
        M, D = self._mna(np.concatenate([res, react]), np.concatenate([1.0 / value[res], g]), cons)
        lu, self.factorization_residual = self._factor(M)

        n_u = len(M)
        Dx = np.zeros((len(branches), n_u))  # branch voltages from the unknowns
        Dx[:, :n_nodes] = D
        Dr = Dx[react]
        E_u = np.zeros((n_u, n_src))  # a unit voltage on each source's constraint row
        E_u[n_nodes + np.flatnonzero(kind[cons] == "V"), np.arange(n_src)] = 1.0
        V_u = sla.lu_solve(lu, E_u)
        # History sources enter the rhs as -sign h on a branch's a side
        # and opposite on b.
        V_h = sla.lu_solve(lu, -Dr.T * sign)

        # h' = g v' + i' = 2 g v' + sign h.
        gDr = 2.0 * g[:, None] * Dr
        self._A = gDr @ V_h
        self._A[np.diag_indices(self.n_states)] += sign
        self._B = gDr @ V_u

        # Probe rows y = Cv V + Ch h.  Resistor currents are D rows over R,
        # V/E currents their unknowns, reactive ones g v + sign h.  pos
        # holds a V/E branch's unknown and a reactive branch's entry of h.
        pos = np.full(len(branches), -1)
        pos[cons] = np.arange(n_nodes, n_u)
        pos[react] = np.arange(self.n_states)
        row = {br.name: k for k, br in enumerate(branches)}
        self.probe_names = list(nl.probes)
        Cv = np.zeros((len(self.probe_names), n_u))
        Ch = np.zeros((len(self.probe_names), self.n_states))
        for i, (pkind, ref) in enumerate(nl.probes.values()):
            if pkind == "v":
                if ref in col:
                    Cv[i, col[ref]] = 1.0
                continue
            k = row[ref]
            if kind[k] == "R":
                Cv[i] = Dx[k] / value[k]
            elif kind[k] in ("V", "E"):
                Cv[i, pos[k]] = 1.0
            else:
                Cv[i] = g[pos[k]] * Dx[k]
                Ch[i, pos[k]] = sign[pos[k]]
        self._Yh = Cv @ V_h + Ch
        self._Yu0 = Cv @ V_u
        _read_only(self._A, self._B, self._Yh, self._Yu0, self.history_weights,
                   self._caps, self._inds)
        self._block_cache: dict[int, np.ndarray] = {}
        self._handoff_cache: dict[tuple[int, int], tuple] = {}
        self._resolvent_cache: dict[tuple, LineResolvent] = {}

    def _branch_values(self, idx) -> np.ndarray:
        """The netlist values of the branches ``idx``."""
        return np.array([self.netlist.branches[k].value for k in idx], dtype=np.float64)

    def _mna(self, cond: np.ndarray, g: np.ndarray, cons: np.ndarray):
        """MNA matrix with conductances ``g`` on the branches ``cond`` and
        one current unknown plus one voltage constraint per branch in
        ``cons`` (branch indices into the netlist), and the branch-node
        incidence D it is assembled from.  The solver keeps neither."""
        branches = self.netlist.branches
        col = {node: i for i, node in enumerate(self._nodes)}
        n = len(col)

        def ends(pairs) -> np.ndarray:
            # The node columns of each pair, n for ground.
            return np.array([[col.get(a, n), col.get(b, n)] for a, b in pairs]).reshape(-1, 2)

        def incidence(ab: np.ndarray) -> np.ndarray:
            # +1 on the first node, -1 on the second, ground dropped.
            D = np.zeros((len(ab), n + 1))
            D[np.arange(len(ab)), ab[:, 0]] += 1.0
            D[np.arange(len(ab)), ab[:, 1]] -= 1.0
            return D[:, :n]

        ab = ends([(br.a, br.b) for br in branches])
        D = incidence(ab)
        # E rows of the constraint block subtract gain x the sensed pair.
        K = self._branch_values(range(len(branches)))[:, None] * incidence(ends(
            [(br.ctrl_a, br.ctrl_b) if br.kind == "E" else (None, None) for br in branches]))
        M = np.zeros((n + len(cons), n + len(cons)))
        # D[cond]^T diag(g) D[cond], stamped: g on both ends' diagonal
        # entries and -g between them, through a ground row and column.
        a, b = ab[cond].T
        at = np.concatenate([a * (n + 1) + a, b * (n + 1) + b, a * (n + 1) + b, b * (n + 1) + a])
        Y = np.bincount(at, np.concatenate([g, g, -g, -g]), (n + 1) ** 2)
        M[:n, :n] = Y.reshape(n + 1, n + 1)[:n, :n]
        M[:n, n:] = D[cons].T
        M[n:, :n] = D[cons] - K[cons]
        return M, D

    def _factor(self, M: np.ndarray):
        """LU factors of the step system ``M`` and the residual of a
        random-RHS solve.

        Raises ``SingularNetworkError`` for a dangling node, a zero pivot,
        or a residual above the tolerance.
        """
        # Structurally dangling unknowns make the matrix singular; name
        # the node instead of failing inside LAPACK.
        dangling = np.flatnonzero(~np.any(M[: len(self._nodes)], axis=1))
        if len(dangling):
            n = self._nodes[dangling[0]]
            raise SingularNetworkError(
                f"node {n!r} has no connection to the rest of the network in the step system",
                node=n,
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error", sla.LinAlgWarning)
            try:
                lu = sla.lu_factor(M)
            except (sla.LinAlgError, sla.LinAlgWarning, ValueError) as exc:
                raise SingularNetworkError(f"singular step system: {exc}") from exc

        rng = np.random.default_rng(12345)
        b = rng.standard_normal(len(M))
        x = sla.lu_solve(lu, b)
        residual = float(np.max(np.abs(M @ x - b)) / max(np.max(np.abs(b)), 1e-300))
        # Written so that a NaN residual fails too.
        if not residual <= self.tolerance:
            raise SingularNetworkError(
                f"step system: linear solve residual {residual:.2e} exceeds "
                f"tolerance {self.tolerance:.2e} (near-singular matrix)"
            )
        return lu, residual

    def stored_energy(self, h: np.ndarray) -> float:
        """Sum of C v^2 / 2 and L i^2 / 2 over all reactive branches one
        step after history ``h`` with every source at zero: h alone does
        not fix the present v and i, and that step's g v per capacitor and
        i per inductor is (F h + h) / 2."""
        w = 0.5 * (self._A @ h + h)
        nc = len(self._caps)
        cv = w[:nc] / self.history_weights[:nc]
        return 0.5 * float(
            self._branch_values(self._caps) @ cv**2
            + self._branch_values(self._inds) @ w[nc:] ** 2
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def _compose(self, W_h: np.ndarray, G: int) -> np.ndarray:
        """The no-input step [y, h'] = h @ W_h, W_h = [Y | F], composed
        ``G`` times: [O | F^G], O's step j F^j Y probe-major (probe p of
        step j in column p G + j).  At G = 1 it is W_h bitwise.
        """
        ny, m = len(self.probe_names), self.n_states
        Y, F = W_h[:, :ny], W_h[:, ny:]
        W_hG = np.empty((m, ny * G + m))
        O = W_hG[:, : ny * G].reshape(m, ny, G)
        rows = Y
        for j in range(G):
            O[:, :, j] = rows
            rows = F @ rows
        W_hG[:, ny * G :] = np.linalg.matrix_power(F, G)
        return W_hG

    def _block_maps(self, stride: int) -> np.ndarray:
        """The no-input map W_h of one record of ``stride`` steps, [y, h']
        = h @ W_h with y the probes of its last step: the step h' = F h,
        y = Yh h (``_A``, ``_Yh``) composed ``stride`` times.  Cached per
        stride.  At stride 1 it is the step map bitwise.
        """
        W_h = self._block_cache.get(stride)
        if W_h is None:
            ny = len(self.probe_names)
            W = self._compose(np.vstack([self._Yh, self._A]).T, stride)
            last = W[:, stride - 1 : ny * stride : stride]
            W_h, = _read_only(np.hstack([last, W[:, ny * stride :]]))
            self._block_cache[stride] = W_h
        return W_h

    def handoff_maps(self, stride: int, n_rec: int) -> tuple[np.ndarray, np.ndarray]:
        """Response of a run of ``n_rec`` records to its start history h0.

        Returns (A_R, O): with no inputs the run ends at history A_R h0
        and records probes h0 @ O (``O`` of shape (m, n_probes, n_rec));
        both are views of the record maps composed ``n_rec`` times.
        Raises ``DivergenceError`` if the maps overflow.
        """
        key = (stride, n_rec)
        cached = self._handoff_cache.get(key)
        if cached is None:
            W = self._compose(self._block_maps(stride), n_rec)
            if not np.all(np.isfinite(W)):
                raise DivergenceError(
                    f"the {n_rec}-record state map overflows (unstable network)"
                )
            ny = len(self.probe_names)
            _read_only(W)
            cached = (W[:, ny * n_rec :].T, W[:, : ny * n_rec].reshape(len(W), ny, n_rec))
            self._handoff_cache[key] = cached
        return cached

    def propagate(self, h: np.ndarray, stride: int, n_rec: int):
        """Free responses of k independent runs, ``n_rec`` records of
        ``stride`` steps with every source at zero.

        ``h`` (k, m) holds the start histories, one per row; a record
        steps as [y, h'] = h @ W_h with ``_block_maps``' W_h, one GEMM
        across the runs.  Returns the probes (k, n_probes, n_rec) and the
        end histories.
        """
        W_h = self._block_maps(stride)
        ny = len(self.probe_names)
        y = np.empty((len(h), ny, n_rec))
        for j in range(n_rec):
            out = h @ W_h
            y[:, :, j] = out[:, :ny]
            h = out[:, ny:]
        return y, h

    def line_resolvent(self, z: np.ndarray, driven) -> LineResolvent:
        """The resolvent X_k = (z_k I - F)^-1 B over the lines ``z`` (on
        an arc of the unit circle, in order), B the columns of the sources
        named in ``driven``, and the probe gains H_k = Yu0 + Yh X_k.

        X is summed as a Taylor series about an arc's middle line c:
        X_k = sum_j ((c - z_k) / r)^j U_j with U_0 = (cI - F)^-1 B and
        U_(j+1) = r (cI - F)^-1 U_j, r the largest |c - z_k|, from one
        complex LU.  A pole of F inside the series' disc keeps it from
        converging; as soon as its terms fall too slowly to reach
        _SERIES_TOL within _SERIES_TERMS terms, or grow, the arc is halved,
        down to single lines, whose one-term series is a direct solve.
        """
        cols = [self.source_names.index(name) for name in driven]
        F, B = self._A, self._B[:, cols]
        I = np.eye(self.n_states)
        arcs, powers, terms = [], [], []
        todo = [(0, len(z))]
        while todo:
            lo, hi = todo.pop()
            c = z[(lo + hi) // 2]
            w = c - z[lo:hi]
            r = float(np.max(np.abs(w)))
            lu = sla.lu_factor(c * I - F)
            U = [sla.lu_solve(lu, B, check_finite=False)]
            first = np.max(np.abs(U[0]), initial=0.0)
            done = r == 0.0 or first == 0.0  # one line, or nothing to sum
            while not done and len(U) < _SERIES_TERMS:
                U.append(r * sla.lu_solve(lu, U[-1], check_finite=False))
                term = np.max(np.abs(U[-1]))
                done = term < _SERIES_TOL * first
                # (term / first)^((_SERIES_TERMS - 1) / j) < _SERIES_TOL, j = len(U) - 1,
                # in a form that a growing series cannot overflow
                if not term < first * _SERIES_TOL ** ((len(U) - 1) / (_SERIES_TERMS - 1)):
                    break
            if done:
                arcs.append((lo, hi))
                powers.append((w / (r or 1.0))[:, None] ** np.arange(len(U)))
                terms.extend(U)
            else:
                todo += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
        V = sla.block_diag(*powers)  # arcs come off the stack in line order
        T = np.array(terms)
        YT = (self._Yh @ T).reshape(len(T), -1)
        H = self._Yu0[:, cols] + (V @ YT).reshape(len(z), len(self.probe_names), len(cols))
        return LineResolvent(*_read_only(V, T, H), tuple(arcs))

    def window_resolvent(self, n_pad: int, k_max: int, driven) -> LineResolvent:
        """``line_resolvent`` over the lines z_k = e^(2 pi i k / n_pad),
        k = 1..k_max, of a noise window (``noise.line_window``), built
        once per window and driven sources."""
        key = (n_pad, k_max, tuple(driven))
        res = self._resolvent_cache.get(key)
        if res is None:
            res = self.line_resolvent(line_phases(n_pad, k_max, 1), driven)
            self._resolvent_cache[key] = res
        return res

    def run(self, h: np.ndarray, source_steps: np.ndarray):
        """Plain stepping: advance history ``h`` by ``len(source_steps)``
        internal steps, one at a time.

        ``source_steps[k, j]`` is the value of source j at the end of
        internal step k.  A step is [y, h'] = h @ [Yh | F]^T + u @ [Yu0 |
        Bh]^T, two GEMMs.  Returns every step's probes, shape (n_steps,
        n_probes), and the end history, from which a next call continues
        the timeline.  No production path steps; this is the reference
        the record maps, the bit engine and ``compare`` are tested against.
        """
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.n_states,):
            raise ValueError("state vector has wrong length")
        u = np.atleast_2d(np.asarray(source_steps, dtype=np.float64))
        n_src = len(self.source_names)
        if u.ndim != 2 or u.shape[1] != n_src:
            raise ValueError(f"source_steps must be (n_steps, {n_src})")

        W_h = self._block_maps(1)
        # in C order, like W_h: a product's rounding depends on the layout
        W_u = np.ascontiguousarray(np.vstack([self._Yu0, self._B]).T)
        ny = len(self.probe_names)
        y = np.empty((len(u), ny))
        h = h[None]
        for j in range(len(u)):
            out = h @ W_h
            out += u[j : j + 1] @ W_u
            y[j] = out[0, :ny]
            h = out[:, ny:]
        if not np.all(np.isfinite(h)):
            raise DivergenceError("non-finite state during integration")
        if not np.all(np.isfinite(y)):
            raise DivergenceError("non-finite probe values during integration")
        return y, h[0]


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, marked read-only: a solver's arrays are shared by every
    caller of the solver."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


_shared_solvers: OrderedDict[tuple, TransientSolver] = OrderedDict()
_shared_lock = threading.Lock()


def shared_solver(netlist: Netlist, config: SolverConfig) -> TransientSolver:
    """The process's solver for ``netlist`` at ``config``, built on first use.

    Keyed by the netlist's exact content (branches, probes in order,
    ground) with the step and tolerance, so every session on one netlist
    shares one build and all it caches.  The ``SHARED_SOLVERS`` most
    recently used are kept.
    """
    key = (netlist.branches, tuple(netlist.probes.items()), netlist.ground,
           config.internal_step_s, config.tolerance)
    with _shared_lock:
        solver = _shared_solvers.get(key)
        if solver is None:
            solver = _shared_solvers[key] = TransientSolver(
                netlist, config.internal_step_s, config.tolerance)
            if len(_shared_solvers) > SHARED_SOLVERS:
                _shared_solvers.popitem(last=False)
        else:
            _shared_solvers.move_to_end(key)
    return solver


@single_blas_thread()
def frequency_response_check(
    netlist: Netlist,
    f_hz: float,
    config: SolverConfig | None = None,
) -> dict[tuple[str, str], complex]:
    """Complex gain from every source to every probe at ``f_hz``, keyed
    ``(probe, source)``.

    The steady-state gain of the trapezoidal step map, which is what a
    unit sinusoid stepped through ``run`` settles to, frequency warping
    of the discretization included: with z = e^(2 pi i f dt) and the
    step h' = F h + Bh u, y = Yh h + Yu0 u (``TransientSolver._A``,
    ``_B``, ``_Yh`` and ``_Yu0``), H = Yu0 + Yh (zI - F)^-1 Bh: the
    one-line ``line_resolvent`` over every source, a direct solve.  The
    default step is 1 / (64 f).
    """
    if not f_hz > 0:
        raise ValueError(f"test frequency must be positive, got {f_hz}")
    if config is None:
        config = SolverConfig(internal_step_s=1.0 / (64.0 * f_hz))
    dt = config.internal_step_s
    if f_hz >= 0.5 / dt:
        raise ValueError("test frequency must be below the internal-step Nyquist")

    solver = TransientSolver(netlist, dt, config.tolerance)
    z = np.exp([2j * math.pi * f_hz * dt])
    H = solver.line_resolvent(z, solver.source_names).H[0]
    return {(probe, source): complex(H[i, j])
            for i, probe in enumerate(solver.probe_names)
            for j, source in enumerate(solver.source_names)}
