"""Transient engine: analytic oracles, linearity, passivity, convergence."""

import dataclasses

import numpy as np
import pytest

from kljnsim.network import (
    Branch,
    CableSpec,
    Netlist,
    apply_capacitor_killer,
    build_distributed,
    build_lumped,
    rg58,
)
from kljnsim.noise import NoiseSpec, generate
from kljnsim.solver import (
    SingularNetworkError,
    SolverConfig,
    TransientSolver,
    frequency_response_check,
)

from conftest import rest_start_step, source_steps


def rc_netlist(r=900.0, c=100e-9):
    return Netlist(
        branches=(
            Branch("V", "u", "s", "0", source_ref="u"),
            Branch("R", "r", "s", "x", r),
            Branch("C", "c", "x", "0", c),
        ),
        probes={"v": ("v", "x"), "i": ("i", "r")},
    )


def rl_netlist(r=100.0, l=1e-3):
    return Netlist(
        branches=(
            Branch("V", "u", "s", "0", source_ref="u"),
            Branch("R", "r", "s", "x", r),
            Branch("L", "l", "x", "0", l),
        ),
        probes={"i": ("i", "l")},
    )


def killer_ladder():
    return apply_capacitor_killer(build_distributed(1000.0, 9000.0, rg58(100.0)), "alice")


def divider_netlist():
    return Netlist(
        branches=(
            Branch("V", "u", "s", "0", source_ref="u"),
            Branch("R", "ra", "s", "m", 1000.0),
            Branch("R", "rb", "m", "0", 9000.0),
        ),
        probes={"v": ("v", "m")},
    )


class TestSolverConfig:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(internal_step_s=1e-6, tolerance=1e-3)


class TestAnalyticOracles:
    def test_dc_divider(self):
        solver = TransientSolver(divider_netlist(), 1e-6)
        y, _ = solver.run(np.zeros(0), np.ones((64, 1)))
        np.testing.assert_allclose(y[:, 0], 0.9, rtol=1e-12)

    @staticmethod
    def step_error(net, probe, gain, tau, tau_ref):
        """Largest deviation of ``gain`` times ``probe`` over 1000 steps
        of tau / 100 from rest, under a unit step, from the exact response
        of a lag with time constant ``tau_ref``."""
        dt = tau / 100.0
        solver = TransientSolver(net, dt)
        y, _ = solver.run(np.zeros(1), np.ones((1000, 1)))
        t = (np.arange(1000) + 1) * dt
        return np.max(np.abs(gain * y[:, solver.probe_names.index(probe)]
                             - rest_start_step(tau_ref, dt, t)))

    def test_rc_step_response_point1_percent(self):
        r, c = 900.0, 100e-9
        tau = r * c
        assert self.step_error(rc_netlist(r, c), "v", 1.0, tau, tau) < 1e-3
        # a time constant 1 % off fails the same bound
        assert self.step_error(rc_netlist(r, c), "v", 1.0, tau, 1.01 * tau) > 1e-3

    def test_rl_step_response_point1_percent(self):
        r, l = 100.0, 1e-3
        tau = l / r
        assert self.step_error(rl_netlist(r, l), "i", r, tau, tau) < 1e-3

    def test_all_sources_zero(self):
        y, h = TransientSolver(rc_netlist(), 1e-6).run(np.zeros(1), np.zeros((128, 1)))
        assert np.all(y == 0.0) and np.all(h == 0.0)


class TestLinearity:
    def ladder_run(self, scale_a, scale_b, seed=4):
        net = build_distributed(1000.0, 9000.0, rg58(100.0))
        solver = TransientSolver(net, 31.25e-6)
        na = generate(NoiseSpec(250.0, 1.0, 0.02, 31.25e-6, seed=seed)).samples
        nb = generate(NoiseSpec(250.0, 3.0, 0.02, 31.25e-6, seed=seed + 1)).samples
        u = source_steps(solver, len(na), {"ua": scale_a * na, "ub": scale_b * nb})
        return solver.run(np.zeros(solver.n_states), u)[0]

    def test_scaling(self):
        y1 = self.ladder_run(1.0, 1.0)
        y3 = self.ladder_run(3.0, 3.0)
        scale = np.max(np.abs(y3))
        assert np.max(np.abs(3.0 * y1 - y3)) < 1e-9 * scale

    def test_superposition(self):
        ya = self.ladder_run(1.0, 0.0)
        yb = self.ladder_run(0.0, 1.0)
        yab = self.ladder_run(1.0, 1.0)
        scale = np.max(np.abs(yab))
        assert np.max(np.abs(ya + yb - yab)) < 1e-9 * scale


class TestPassivity:
    def test_energy_non_increasing_after_sources_off(self):
        net = build_distributed(1000.0, 9000.0, rg58(1000.0))
        solver = TransientSolver(net, 31.25e-6)
        drive = generate(NoiseSpec(250.0, 1.0, 0.05, 31.25e-6, seed=5)).samples
        u = source_steps(solver, len(drive), {"ua": drive, "ub": 3.0 * drive})
        _, h = solver.run(np.zeros(solver.n_states), u)
        zeros = source_steps(solver, 1, {"ua": np.zeros(1), "ub": np.zeros(1)})
        _, h = solver.run(h, zeros)  # switch-off step
        energies = [solver.stored_energy(h)]
        for _ in range(300):
            _, h = solver.run(h, zeros)
            energies.append(solver.stored_energy(h))
        e = np.array(energies)
        assert e[0] > 0
        assert np.all(np.diff(e) <= 1e-12 * e[:-1] + 1e-30)

    @pytest.mark.parametrize(
        "build, probe, energy",
        [
            (rc_netlist, "v", lambda y: 100e-9 * y**2 / 2.0),
            (rl_netlist, "i", lambda y: 1e-3 * y**2 / 2.0),
        ],
        ids=["rc", "rl"],
    )
    def test_stored_energy_is_one_zero_input_step_later(self, build, probe, energy):
        solver = TransientSolver(build(), 1e-6)
        _, h = solver.run(np.zeros(solver.n_states), np.ones((50, 1)))
        stored = solver.stored_energy(h)
        y = solver.run(h, np.zeros((1, 1)))[0][0, solver.probe_names.index(probe)]
        assert stored == pytest.approx(energy(y), rel=1e-12)


class TestDiscretization:
    def test_step_halving_below_point1_percent(self):
        # one band-limited source signal, sampled at both internal rates;
        # a cosine switch-on inside the skipped interval settles the start
        net = build_distributed(1000.0, 9000.0, rg58(1000.0))
        t_s = 1e-3
        dt_fine = t_s / 64.0
        na = generate(NoiseSpec(250.0, 1.0, 0.2, dt_fine, seed=7)).samples.copy()
        nb = generate(NoiseSpec(250.0, 3.0, 0.2, dt_fine, seed=8)).samples.copy()
        n_ramp = 512
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_ramp) / n_ramp))
        na[:n_ramp] *= ramp
        nb[:n_ramp] *= ramp
        outs = {}
        for div, sub in ((32, 2), (64, 1)):
            solver = TransientSolver(net, t_s / div)
            src = {"ua": na[sub - 1 :: sub], "ub": nb[sub - 1 :: sub]}
            u = source_steps(solver, len(src["ua"]), src)
            outs[div] = solver.run(np.zeros(solver.n_states), u)[0][div - 1 :: div]
        skip = len(outs[64]) // 5
        u32 = outs[32][skip:, 0]
        u64 = outs[64][skip:, 0]
        nrmsd = np.sqrt(np.mean((u32 - u64) ** 2)) / np.sqrt(np.mean(u64**2))
        assert nrmsd < 1e-3

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_distributed(1000.0, 9000.0, rg58(100.0)),
            lambda: build_lumped(1000.0, 9000.0, rg58(1000.0)),
            killer_ladder,
        ],
        ids=["ladder", "lumped", "killer_ladder"],
    )
    def test_block_path_matches_plain(self, build):
        # the free response a record at a time (``propagate``, as the bit
        # engine steps it) against plain stepping with every source at zero
        solver = TransientSolver(build(), 31.25e-6)
        h0 = np.random.default_rng(0).standard_normal(solver.n_states)
        ya, ha = solver.run(h0, np.zeros((640, len(solver.source_names))))
        yb, hb = solver.propagate(h0[None], 32, 20)
        np.testing.assert_allclose(ya[31::32], yb[0].T, atol=1e-13)
        np.testing.assert_allclose(ha, hb[0], atol=1e-13)

    def test_chunked_run_matches_single_run(self):
        net = build_distributed(1000.0, 9000.0, rg58(100.0))
        rng = np.random.default_rng(1)
        u = rng.standard_normal((320, 3))
        one = TransientSolver(net, 31.25e-6)
        y_one, _ = one.run(np.zeros(one.n_states), u)
        two = TransientSolver(net, 31.25e-6)
        y_a, h = two.run(np.zeros(two.n_states), u[:160])
        y_0, h = two.run(h, u[:0])
        y_b, _ = two.run(h, u[160:])
        assert y_0.shape == (0, len(two.probe_names))
        np.testing.assert_allclose(np.vstack([y_a, y_0, y_b]), y_one, atol=1e-13)


def shield_lifted_ladder():
    # the stock shield sits at 0 V; lift it to 0.3 V
    net = build_distributed(1000.0, 9000.0, rg58(1000.0))
    return dataclasses.replace(net, branches=tuple(
        dataclasses.replace(br, value=0.3) if br.name == "vsh" else br for br in net.branches))


class TestGroupMaps:
    """Groups of G records composed into one map (``_compose``, which
    builds ``handoff_maps``), and the record maps, against plain stepping
    with every source at zero."""

    STRIDE = 32

    @classmethod
    def plain_records(cls, solver, h0, n_rec):
        # the probes at the end of each record (n_rec, n_probes) and the end history
        y, h = solver.run(h0, np.zeros((n_rec * cls.STRIDE, len(solver.source_names))))
        return y[cls.STRIDE - 1 :: cls.STRIDE], h

    def test_one_record_groups_are_the_record_maps(self):
        solver = TransientSolver(build_distributed(1000.0, 9000.0, rg58(1000.0)), 31.25e-6)
        W_h = solver._block_maps(self.STRIDE)
        assert np.array_equal(solver._compose(W_h, 1), W_h)

    @pytest.mark.parametrize("G", [2, 3, 5, 7])
    # a source's value enters no map, so the lifted shield's maps meet the
    # same free response
    @pytest.mark.parametrize("build", [lambda: build_distributed(1000.0, 9000.0, rg58(1000.0)),
                                       shield_lifted_ladder], ids=["ladder", "bias_row"])
    def test_groups_match_one_record_at_a_time(self, build, G):
        solver = TransientSolver(build(), 31.25e-6)
        W_hG = solver._compose(solver._block_maps(self.STRIDE), G)
        ny = len(solver.probe_names)
        n_rec = 6 * G
        h0 = np.random.default_rng(G).standard_normal(solver.n_states)
        y1, h1 = self.plain_records(solver, h0, n_rec)
        yG, hG = np.empty_like(y1), h0
        for q in range(0, n_rec, G):
            yG[q : q + G] = (hG @ W_hG[:, : ny * G]).reshape(ny, G).T
            hG = hG @ W_hG[:, ny * G :]
        np.testing.assert_allclose(yG, y1, rtol=0, atol=1e-12 * np.max(np.abs(y1)))
        np.testing.assert_allclose(hG, h1, rtol=0, atol=1e-12 * np.max(np.abs(h1)))

    def test_one_step_records_are_the_step_maps(self):
        # so ``run`` steps with the step maps themselves
        solver = TransientSolver(build_distributed(1000.0, 9000.0, rg58(1000.0)), 31.25e-6)
        assert np.array_equal(solver._block_maps(1), np.vstack([solver._Yh, solver._A]).T)

    @pytest.mark.parametrize("n_rec", [7, 100])
    def test_handoff_maps_are_the_free_response(self, n_rec):
        solver = TransientSolver(build_distributed(1000.0, 9000.0, rg58(1000.0)), 31.25e-6)
        h0 = np.random.default_rng(n_rec).standard_normal(solver.n_states)
        y, h = self.plain_records(solver, h0, n_rec)
        A_R, O = solver.handoff_maps(self.STRIDE, n_rec)
        np.testing.assert_allclose(np.tensordot(h0, O, 1), y.T, rtol=0,
                                   atol=1e-12 * np.max(np.abs(y)))
        np.testing.assert_allclose(A_R @ h0, h, rtol=0, atol=1e-12 * np.max(np.abs(h)))


SLOW_CABLE = CableSpec(r_per_m=0.0105, l_per_m=250e-9, c_per_m=100e-12, length_m=2000.0,
                       n_segments=4)


class TestLineResolvent:
    """The series resolvent against a batched direct solve."""

    # the 256 in-band lines of the default 32768-point noise window
    Z = np.exp(2j * np.pi / 32768 * np.arange(1, 257))

    @staticmethod
    def check(net):
        solver = TransientSolver(net, 31.25e-6)
        res = solver.line_resolvent(TestLineResolvent.Z, ("ua", "ub"))
        cols = [solver.source_names.index(s) for s in ("ua", "ub")]
        F = solver._A
        X = np.linalg.solve(TestLineResolvent.Z[:, None, None] * np.eye(len(F)) - F,
                            solver._B[:, cols])
        got = np.einsum("kj,jms->kms", res.V, res.T)
        np.testing.assert_allclose(got, X, rtol=0, atol=1e-12 * np.max(np.abs(X)))
        H = solver._Yu0[:, cols] + solver._Yh @ X
        np.testing.assert_allclose(res.H, H, rtol=0, atol=1e-12 * np.max(np.abs(H)))
        return res

    @pytest.mark.parametrize("length_m", [100.0, 1000.0])
    @pytest.mark.parametrize("ra, rb", [(1e3, 9e3), (1e3, 1e3), (9e3, 9e3), (9e3, 1e3)],
                             ids=["LH", "LL", "HH", "HL"])
    def test_ladder_arrangements(self, length_m, ra, rb):
        res = self.check(build_distributed(ra, rb, rg58(length_m)))
        assert res.arcs == ((0, 256),)

    def test_killer_alice_tap(self):
        self.check(apply_capacitor_killer(build_distributed(1e3, 9e3, rg58(1000.0)), "alice"))

    def test_lifted_shield(self):
        # the slow 4-segment ladder with its shield source at 0.3 V
        net = build_distributed(5e3, 5e4, SLOW_CABLE)
        self.check(dataclasses.replace(net, branches=tuple(
            dataclasses.replace(br, value=0.3) if br.name == "vsh" else br
            for br in net.branches)))

    def test_pole_in_the_disc_splits_the_arc(self):
        # between 100 kohm ends the slow ladder's RC pole lies at 0.99688,
        # inside the disc of one series about the band's middle line
        arcs = self.check(build_distributed(1e5, 1e5, SLOW_CABLE)).arcs
        assert len(arcs) > 1
        assert [lo for lo, _ in arcs] == [0] + [hi for _, hi in arcs[:-1]]
        assert arcs[-1][1] == 256


def stepped_gain(net, probe, f_hz, source, dt, n_settle=10.0, n_fit_periods=8):
    """Gain fitted from a sinusoid stepped through ``run``: drop
    ``n_settle`` time constants (1 / (2 pi f) each), then fit a sine and
    cosine pair over whole periods."""
    solver = TransientSolver(net, dt)
    n_skip = int(np.ceil(n_settle / (2.0 * np.pi * f_hz) / dt))
    n_total = n_skip + int(round(n_fit_periods / (f_hz * dt)))
    t = (np.arange(n_total) + 1) * dt
    u = source_steps(solver, n_total, {source: np.sin(2.0 * np.pi * f_hz * t)})
    y = solver.run(np.zeros(solver.n_states), u)[0][
        n_skip:, solver.probe_names.index(probe)]
    wt = 2.0 * np.pi * f_hz * t[n_skip:]
    coef, *_ = np.linalg.lstsq(np.column_stack([np.sin(wt), np.cos(wt)]), y, rcond=None)
    return complex(coef[0], coef[1])


class TestFrequencyResponse:
    def test_rc_matches_stepped_fit(self):
        fc = 1.0 / (2.0 * np.pi * 900.0 * 100e-9)
        gain = frequency_response_check(rc_netlist(), fc)[("v", "u")]
        fitted = stepped_gain(rc_netlist(), "v", fc, "u", 1.0 / (64.0 * fc))
        assert abs(gain - fitted) < 1e-5 * abs(fitted)

    def test_ladder_matches_stepped_fit(self):
        net = build_distributed(1000.0, 9000.0, rg58(1000.0))
        cfg = SolverConfig(internal_step_s=1e-6)
        gain = frequency_response_check(net, 1768.0, config=cfg)[("u_cha", "ua")]
        fitted = stepped_gain(net, "u_cha", 1768.0, "ua", 1e-6)
        assert abs(gain - fitted) < 1e-5 * abs(fitted)

    @pytest.mark.parametrize("f_hz", [0.0, -20.0])
    def test_nonpositive_frequency_rejected(self, f_hz):
        cfg = SolverConfig(internal_step_s=1e-6)
        with pytest.raises(ValueError, match="frequency must be positive"):
            frequency_response_check(rc_netlist(), f_hz)
        with pytest.raises(ValueError, match="frequency must be positive"):
            frequency_response_check(rc_netlist(), f_hz, config=cfg)

    def test_rc_gain_at_cutoff(self):
        r, c = 900.0, 100e-9
        fc = 1.0 / (2.0 * np.pi * r * c)
        gain = frequency_response_check(rc_netlist(r, c), fc)[("v", "u")]
        assert abs(gain) == pytest.approx(1.0 / np.sqrt(2.0), rel=0.01)

    def test_dc_limit_is_divider(self):
        gain = frequency_response_check(divider_netlist(), 5.0)[("v", "u")]
        assert abs(gain) == pytest.approx(0.9, rel=0.01)

    def test_cable_pole_three_db(self):
        # voltage transfer across the loaded 1000 m cable drops ~3 dB at
        # the capacitive cutoff relative to its DC value
        net = build_distributed(1000.0, 9000.0, rg58(1000.0))
        cfg = SolverConfig(internal_step_s=1e-6)
        dc = frequency_response_check(net, 20.0, config=cfg)
        fc = frequency_response_check(net, 1768.0, config=cfg)
        g_dc, g_fc = dc[("u_cha", "ua")], fc[("u_cha", "ua")]
        # probe the transfer u_b -> u_cha too: the cross-cable path
        h_dc, h_fc = dc[("u_cha", "ub")], fc[("u_cha", "ub")]
        assert abs(h_fc) / abs(h_dc) == pytest.approx(1.0 / np.sqrt(2.0), rel=0.05)
        assert abs(g_fc) < abs(g_dc)

    def test_above_nyquist_rejected(self):
        cfg = SolverConfig(internal_step_s=1e-3)
        with pytest.raises(ValueError):
            frequency_response_check(rc_netlist(), 600.0, config=cfg)


class TestCapacitorKiller:
    def test_colocated_tap_nulls_cap_current(self):
        # with the follower sensing the capacitor's own inner-wire node,
        # the capacitor sees zero volts and carries zero current forever
        import dataclasses

        from kljnsim.network import apply_capacitor_killer, build_lumped

        nl = apply_capacitor_killer(build_lumped(1000.0, 9000.0, rg58(1000.0)), "bob")
        probes = dict(nl.probes)
        probes["i_cap"] = ("i", "cs1")
        nl = dataclasses.replace(nl, probes=probes)
        solver = TransientSolver(nl, 31.25e-6)
        drive = generate(NoiseSpec(250.0, 1.0, 0.02, 31.25e-6, seed=13)).samples
        u = source_steps(solver, len(drive), {"ua": drive, "ub": 3.0 * drive})
        recs, _ = solver.run(np.zeros(solver.n_states), u)
        i_cap = recs[:, solver.probe_names.index("i_cap")]
        ambient = np.sqrt(np.mean(recs[:, solver.probe_names.index("i_cha")] ** 2))
        assert np.max(np.abs(i_cap)) < 1e-9 * ambient

    def test_remote_tap_leaves_residual(self):
        # tapping the far end leaves a small but nonzero capacitive
        # current (measured after the cold-start transient settles)
        import dataclasses

        from kljnsim.network import apply_capacitor_killer, build_lumped

        nl = apply_capacitor_killer(build_lumped(1000.0, 9000.0, rg58(1000.0)), "alice")
        probes = dict(nl.probes)
        probes["i_cap"] = ("i", "cs1")
        nl = dataclasses.replace(nl, probes=probes)
        solver = TransientSolver(nl, 31.25e-6)
        drive = generate(NoiseSpec(250.0, 1.0, 0.06, 31.25e-6, seed=13)).samples
        u = source_steps(solver, len(drive), {"ua": drive, "ub": 3.0 * drive})
        n_settle = len(drive) // 3
        _, h = solver.run(np.zeros(solver.n_states), u[:n_settle])
        recs, _ = solver.run(h, u[n_settle:])
        i_cap = recs[:, solver.probe_names.index("i_cap")]
        ambient = np.sqrt(np.mean(recs[:, solver.probe_names.index("i_cha")] ** 2))
        assert 0 < np.sqrt(np.mean(i_cap**2)) < 0.05 * ambient


class TestErrors:
    @pytest.mark.parametrize(
        "build",
        [
            killer_ladder,
            lambda: apply_capacitor_killer(build_lumped(1000.0, 9000.0, rg58(1000.0)), "bob"),
        ],
        ids=["killer_ladder", "killer_lumped"],
    )
    def test_rest_start_skips_t0_system(self, build, monkeypatch):
        # a run starts from rest, h = 0, so a killer netlist, whose shunt
        # capacitor at the tap and follower are two voltage constraints on
        # one loop, runs without any t = 0 system: only its step system is
        # ever factored
        factored = []
        factor = TransientSolver._factor
        monkeypatch.setattr(TransientSolver, "_factor",
                            lambda self, M: factored.append(len(M)) or factor(self, M))
        solver = TransientSolver(build(), 31.25e-6)
        ramp = np.arange(64) / 64.0
        y, h = solver.run(np.zeros(solver.n_states),
                          source_steps(solver, 64, {"ua": ramp, "ub": ramp}))
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(h))
        assert len(factored) == 1

    def test_floating_node_named(self):
        nl = Netlist(
            branches=(
                Branch("V", "u", "s", "0", source_ref="u"),
                Branch("R", "r", "s", "x", 1.0),
                Branch("E", "e", "y", "0", 1.0, ctrl_a="ghost", ctrl_b="0"),
            ),
            probes={},
        )
        with pytest.raises(SingularNetworkError) as exc_info:
            TransientSolver(nl, 1e-6)
        assert exc_info.value.node == "ghost"

    @pytest.mark.parametrize(
        "call, match",
        [
            # the RC netlist's one capacitor holds the only history entry
            (lambda: TransientSolver(rc_netlist(), 1e-6).run(np.zeros(2), np.ones((64, 1))),
             "state vector has wrong length"),
            # and its one source takes one column
            (lambda: TransientSolver(rc_netlist(), 1e-6).run(np.zeros(1), np.ones((64, 2))),
             r"source_steps must be \(n_steps, 1\)"),
        ],
        ids=["history_wrong_length", "source_steps_wrong_width"],
    )
    def test_invalid_input_named_before_compute(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()
