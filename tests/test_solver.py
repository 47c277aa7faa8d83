"""Transient engine: analytic oracles, linearity, passivity, convergence."""

import numpy as np
import pytest

from kljnsim.network import (
    Branch,
    Netlist,
    apply_capacitor_killer,
    build_distributed,
    build_lumped,
    rg58,
)
from kljnsim.noise import NoiseSpec, Waveform, generate
from kljnsim.solver import (
    SingularNetworkError,
    SolverConfig,
    TransientSolver,
    frequency_response_check,
    transient_solve,
)


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
        res = transient_solve(
            divider_netlist(),
            {"u": Waveform(np.ones(64), 1e-6)},
            SolverConfig(internal_step_s=1e-6),
            duration_s=64e-6,
            t_s=1e-6,
        )
        np.testing.assert_allclose(res.probes["v"].samples, 0.9, rtol=1e-12)

    def test_rc_step_response_point1_percent(self):
        r, c = 900.0, 100e-9
        tau = r * c
        dt = tau / 100.0
        n = 1000
        res = transient_solve(
            rc_netlist(r, c),
            {"u": Waveform(np.ones(n), dt)},
            SolverConfig(internal_step_s=dt),
            duration_s=n * dt,
            t_s=dt,
        )
        t = res.probes["v"].times()
        exact = 1.0 - np.exp(-t / tau)
        assert np.max(np.abs(res.probes["v"].samples - exact)) < 1e-3

    def test_rl_step_response_point1_percent(self):
        r, l = 100.0, 1e-3
        tau = l / r
        dt = tau / 100.0
        n = 1000
        res = transient_solve(
            rl_netlist(r, l),
            {"u": Waveform(np.ones(n), dt)},
            SolverConfig(internal_step_s=dt),
            duration_s=n * dt,
            t_s=dt,
        )
        t = res.probes["i"].times()
        exact = 1.0 - np.exp(-t / tau)
        assert np.max(np.abs(r * res.probes["i"].samples - exact)) < 1e-3

    def test_all_sources_zero(self):
        res = transient_solve(
            rc_netlist(),
            {"u": Waveform(np.zeros(128), 1e-6)},
            SolverConfig(internal_step_s=1e-6),
            duration_s=128e-6,
            t_s=1e-6,
        )
        for wf in res.probes.values():
            assert np.all(wf.samples == 0.0)


class TestLinearity:
    def ladder_run(self, scale_a, scale_b, seed=4):
        net = build_distributed(1000.0, 9000.0, rg58(100.0))
        solver = TransientSolver(net, 31.25e-6)
        na = generate(NoiseSpec(250.0, 1.0, 0.02, 31.25e-6, seed=seed)).samples
        nb = generate(NoiseSpec(250.0, 3.0, 0.02, 31.25e-6, seed=seed + 1)).samples
        u = solver.assemble_inputs(len(na), {"ua": scale_a * na, "ub": scale_b * nb})
        return solver.run(u, record_stride=1)

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
        u = solver.assemble_inputs(len(drive), {"ua": drive, "ub": 3.0 * drive})
        solver.run(u, record_stride=len(drive))
        zeros = solver.assemble_inputs(1, {"ua": np.zeros(1), "ub": np.zeros(1)})
        solver.run(zeros, record_stride=1)  # switch-off step
        energies = [solver.stored_energy()]
        for _ in range(300):
            solver.run(zeros, record_stride=1)
            energies.append(solver.stored_energy())
        e = np.array(energies)
        assert e[0] > 0
        assert np.all(np.diff(e) <= 1e-12 * e[:-1] + 1e-30)


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
            u = solver.assemble_inputs(len(src["ua"]), src)
            outs[div] = solver.run(u, record_stride=div)
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
        net = build()
        a = TransientSolver(net, 31.25e-6)
        b = TransientSolver(net, 31.25e-6)
        rng = np.random.default_rng(0)
        base = rng.standard_normal((640, len(a.source_names)))
        ya = a.run(base, record_stride=32, use_blocks=False)
        yb = b.run(base, record_stride=32, use_blocks=True)
        np.testing.assert_allclose(ya, yb, atol=1e-13)
        np.testing.assert_allclose(a.state, b.state, atol=1e-13)

    def test_chunked_run_matches_single_run(self):
        net = build_distributed(1000.0, 9000.0, rg58(100.0))
        rng = np.random.default_rng(1)
        u = rng.standard_normal((320, 3))
        one = TransientSolver(net, 31.25e-6)
        y_one = one.run(u, record_stride=32)
        two = TransientSolver(net, 31.25e-6)
        y_a = two.run(u[:160], record_stride=32)
        y_b = two.run(u[160:], record_stride=32)
        np.testing.assert_allclose(np.vstack([y_a, y_b]), y_one, atol=1e-13)


def stepped_gain(net, probe, f_hz, source, dt, n_settle=10.0, n_fit_periods=8):
    """Gain fitted from a sinusoid stepped through ``run``: drop
    ``n_settle`` time constants (1 / (2 pi f) each), then fit a sine and
    cosine pair over whole periods."""
    solver = TransientSolver(net, dt)
    n_skip = int(np.ceil(n_settle / (2.0 * np.pi * f_hz) / dt))
    n_total = n_skip + int(round(n_fit_periods / (f_hz * dt)))
    t = (np.arange(n_total) + 1) * dt
    u = solver.assemble_inputs(n_total, {})
    u[:, solver.source_names.index(source)] = np.sin(2.0 * np.pi * f_hz * t)
    y = solver.run(u, record_stride=1)[n_skip:, solver.probe_names.index(probe)]
    wt = 2.0 * np.pi * f_hz * t[n_skip:]
    coef, *_ = np.linalg.lstsq(np.column_stack([np.sin(wt), np.cos(wt)]), y, rcond=None)
    return complex(coef[0], coef[1])


class TestFrequencyResponse:
    def test_rc_matches_stepped_fit(self):
        fc = 1.0 / (2.0 * np.pi * 900.0 * 100e-9)
        gain = frequency_response_check(rc_netlist(), "v", fc)
        fitted = stepped_gain(rc_netlist(), "v", fc, "u", 1.0 / (64.0 * fc))
        assert abs(gain - fitted) < 1e-5 * abs(fitted)

    def test_ladder_matches_stepped_fit(self):
        net = build_distributed(1000.0, 9000.0, rg58(1000.0))
        cfg = SolverConfig(internal_step_s=1e-6)
        gain = frequency_response_check(net, "u_cha", 1768.0, source="ua", config=cfg)
        fitted = stepped_gain(net, "u_cha", 1768.0, "ua", 1e-6)
        assert abs(gain - fitted) < 1e-5 * abs(fitted)

    @pytest.mark.parametrize("f_hz", [0.0, -20.0])
    def test_nonpositive_frequency_rejected(self, f_hz):
        cfg = SolverConfig(internal_step_s=1e-6)
        with pytest.raises(ValueError, match="frequency must be positive"):
            frequency_response_check(rc_netlist(), "v", f_hz)
        with pytest.raises(ValueError, match="frequency must be positive"):
            frequency_response_check(rc_netlist(), "v", f_hz, config=cfg)

    def test_rc_gain_at_cutoff(self):
        r, c = 900.0, 100e-9
        fc = 1.0 / (2.0 * np.pi * r * c)
        gain = frequency_response_check(rc_netlist(r, c), "v", fc)
        assert abs(gain) == pytest.approx(1.0 / np.sqrt(2.0), rel=0.01)

    def test_dc_limit_is_divider(self):
        gain = frequency_response_check(divider_netlist(), "v", 5.0)
        assert abs(gain) == pytest.approx(0.9, rel=0.01)

    def test_cable_pole_three_db(self):
        # voltage transfer across the loaded 1000 m cable drops ~3 dB at
        # the capacitive cutoff relative to its DC value
        net = build_distributed(1000.0, 9000.0, rg58(1000.0))
        cfg = SolverConfig(internal_step_s=1e-6)
        g_dc = frequency_response_check(net, "u_cha", 20.0, source="ua", config=cfg)
        g_fc = frequency_response_check(net, "u_cha", 1768.0, source="ua", config=cfg)
        # probe the transfer u_b -> u_cha too: the cross-cable path
        h_dc = frequency_response_check(net, "u_cha", 20.0, source="ub", config=cfg)
        h_fc = frequency_response_check(net, "u_cha", 1768.0, source="ub", config=cfg)
        assert abs(h_fc) / abs(h_dc) == pytest.approx(1.0 / np.sqrt(2.0), rel=0.05)
        assert abs(g_fc) < abs(g_dc)

    def test_above_nyquist_rejected(self):
        cfg = SolverConfig(internal_step_s=1e-3)
        with pytest.raises(ValueError):
            frequency_response_check(rc_netlist(), "v", 600.0, config=cfg)


class TestCapacitorKiller:
    def test_colocated_tap_nulls_cap_current(self):
        # with the follower sensing the capacitor's own inner-wire node,
        # the capacitor sees zero volts and carries zero current forever
        import dataclasses

        from kljnsim.network import apply_capacitor_killer, build_lumped

        nl = apply_capacitor_killer(build_lumped(1000.0, 9000.0, rg58(1000.0)), "bob")
        probes = dict(nl.probes)
        probes["i_cap"] = ("i", "cp")
        nl = dataclasses.replace(nl, probes=probes)
        solver = TransientSolver(nl, 31.25e-6)
        drive = generate(NoiseSpec(250.0, 1.0, 0.02, 31.25e-6, seed=13)).samples
        u = solver.assemble_inputs(len(drive), {"ua": drive, "ub": 3.0 * drive})
        recs = solver.run(u, record_stride=1)
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
        probes["i_cap"] = ("i", "cp")
        nl = dataclasses.replace(nl, probes=probes)
        solver = TransientSolver(nl, 31.25e-6)
        drive = generate(NoiseSpec(250.0, 1.0, 0.06, 31.25e-6, seed=13)).samples
        u = solver.assemble_inputs(len(drive), {"ua": drive, "ub": 3.0 * drive})
        n_settle = len(drive) // 3
        solver.run(u[:n_settle], record_stride=n_settle)
        recs = solver.run(u[n_settle:], record_stride=1)
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
    def test_singular_t0_system_named(self, build):
        # the shunt capacitor at the tap and the follower are two voltage
        # constraints on one loop, so the t = 0 system is singular
        dt = 31.25e-6
        ones = Waveform(np.ones(64), dt)
        with pytest.raises(SingularNetworkError, match=r"t = 0"):
            transient_solve(
                build(),
                {"ua": ones, "ub": ones},
                SolverConfig(internal_step_s=dt),
                duration_s=64 * dt,
                t_s=32 * dt,
            )

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

    def test_missing_source_waveform(self):
        with pytest.raises(ValueError, match="no waveform"):
            transient_solve(
                rc_netlist(),
                {},
                SolverConfig(internal_step_s=1e-6),
                duration_s=1e-4,
                t_s=1e-6,
            )

    def test_wrong_rate_waveform(self):
        with pytest.raises(ValueError, match="internal rate"):
            transient_solve(
                rc_netlist(),
                {"u": Waveform(np.ones(100), 2e-6)},
                SolverConfig(internal_step_s=1e-6),
                duration_s=1e-4,
                t_s=1e-6,
            )
