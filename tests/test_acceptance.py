"""Acceptance suite: the eight headline checks at their stated tolerances.

The heavy experiments (six-cell sweep, defense comparison, zero-
capacitance controls) run once per session at the default master seed;
every criterion prints one PASS/FAIL line.  Run with ``pytest -s`` to
see the lines as they complete.  The fixtures live in ``conftest.py``,
shared with the golden-artifact test.
"""

import numpy as np
from conftest import N_BITS

from kljnsim.attack import eve_decide
from kljnsim.compare import compare_models
from kljnsim.network import (
    Branch,
    CableSpec,
    Netlist,
    build_distributed,
    rg58,
)
from kljnsim.noise import (
    NoiseSpec,
    Waveform,
    gaussianity_report,
    generate,
    out_of_band_power_fraction,
)
from kljnsim.privacy import predicted_leak_after_xor
from kljnsim.protocol import (
    KeyExchangeSession,
    ProtocolConfig,
    expected_levels,
)
from kljnsim.scenarios import DEFAULT_MASTER_SEED
from kljnsim.solver import SolverConfig, TransientSolver, transient_solve

TABLE1_TARGETS = {
    (20, 100.0): 0.509,
    (50, 100.0): 0.521,
    (100, 100.0): 0.526,
    (20, 1000.0): 0.622,
    (50, 1000.0): 0.697,
    (100, 1000.0): 0.769,
}


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_table1_reproduction(table1):
    cells = {k: v.p_e for k, v in table1.cells.items()}
    devs = {k: cells[k] - TABLE1_TARGETS[k] for k in TABLE1_TARGETS}
    within = all(abs(d) <= 0.05 for d in devs.values())
    rank_measured = sorted(TABLE1_TARGETS, key=lambda k: cells[k])
    rank_expected = sorted(TABLE1_TARGETS, key=lambda k: TABLE1_TARGETS[k])
    rank_ok = rank_measured == rank_expected
    length_ok = all(cells[(b, 1000.0)] > cells[(b, 100.0)] for b in (20, 50, 100))
    detail = ", ".join(
        f"({b},{int(l)}m)={100 * cells[(b, l)]:.1f}%" for b, l in sorted(cells)
    )
    report(
        "criterion 1 (six-cell sweep)",
        within and rank_ok and length_ok,
        f"{detail}; rank order {'ok' if rank_ok else 'WRONG'}",
    )


def test_criterion_2_capacitor_killer(defenses):
    p = defenses["capacitor_killer_p_E"]
    report(
        "criterion 2 (capacitor killer)",
        0.47 <= p <= 0.53,
        f"p_E = {100 * p:.1f}% (bounds 47..53)",
    )


def test_criterion_3_privacy_amplification(defenses):
    p0 = defenses["baseline_p_E"]
    p1 = defenses["xor_round_1_p_E"]
    p2 = defenses["xor_round_2_p_E"]
    ok = abs(p1 - 0.642) <= 0.05 and abs(p2 - 0.544) <= 0.05
    consistent = True
    p_prev, n_prev = p0, N_BITS
    for p_meas in (p1, p2):
        pred = predicted_leak_after_xor(p_prev)
        n_prev //= 2
        if abs(p_meas - pred) > 3.0 * np.sqrt(pred * (1 - pred) / n_prev):
            consistent = False
        p_prev = p_meas
    report(
        "criterion 3 (XOR amplification)",
        ok and consistent,
        f"base {100 * p0:.1f}% -> {100 * p1:.1f}% -> {100 * p2:.1f}% "
        f"(targets 64.2/54.4, predictor {'consistent' if consistent else 'OFF'})",
    )


def test_criterion_4_model_agreement():
    cable = rg58(1000.0)
    r = {
        bw: compare_models(cable, 1000.0, 9000.0, bw, seed=DEFAULT_MASTER_SEED)
        for bw in (250e3, 25e3, 250.0)
    }
    ok = (
        r[250.0].nrmsd < 0.01
        and r[25e3].nrmsd < 0.1
        and r[250e3].nrmsd > r[25e3].nrmsd > r[250.0].nrmsd
    )
    report(
        "criterion 4 (model agreement)",
        ok,
        f"nrmsd(gamma=800)={r[250.0].nrmsd:.2e}, (8)={r[25e3].nrmsd:.2e}, "
        f"(0.8)={r[250e3].nrmsd:.2e}",
    )


def test_criterion_5_solver_oracles():
    # RC step
    r_ohm, c_f = 900.0, 100e-9
    tau = r_ohm * c_f
    dt = tau / 100.0
    rc = Netlist(
        branches=(
            Branch("V", "u", "s", "0", source_ref="u"),
            Branch("R", "r", "s", "x", r_ohm),
            Branch("C", "c", "x", "0", c_f),
        ),
        probes={"v": ("v", "x")},
    )
    res = transient_solve(
        rc, {"u": Waveform(np.ones(1000), dt)},
        SolverConfig(internal_step_s=dt), 1000 * dt, dt,
    )
    t = res.probes["v"].times()
    step_err = float(np.max(np.abs(res.probes["v"].samples - (1 - np.exp(-t / tau)))))

    # linearity and superposition on the full ladder
    net = build_distributed(1000.0, 9000.0, rg58(1000.0))
    na = generate(NoiseSpec(250.0, 1.0, 0.02, 31.25e-6, seed=100)).samples
    nb = generate(NoiseSpec(250.0, 3.0, 0.02, 31.25e-6, seed=101)).samples

    def run(sa, sb):
        solver = TransientSolver(net, 31.25e-6)
        u = solver.assemble_inputs(len(na), {"ua": sa * na, "ub": sb * nb})
        return solver.run(np.zeros(solver.n_states), u, record_stride=1)[0]

    y_a, y_b, y_ab, y_3 = run(1, 0), run(0, 1), run(1, 1), run(3, 3)
    scale = np.max(np.abs(y_ab))
    lin_err = float(np.max(np.abs(3 * y_ab - y_3)) / scale)
    sup_err = float(np.max(np.abs(y_a + y_b - y_ab)) / scale)

    # passivity after switching sources off
    solver = TransientSolver(net, 31.25e-6)
    u = solver.assemble_inputs(len(na), {"ua": na, "ub": nb})
    _, h = solver.run(np.zeros(solver.n_states), u, record_stride=len(na))
    zeros = solver.assemble_inputs(1, {"ua": np.zeros(1), "ub": np.zeros(1)})
    _, h = solver.run(h, zeros, record_stride=1)
    energies = [solver.stored_energy(h)]
    for _ in range(300):
        _, h = solver.run(h, zeros, record_stride=1)
        energies.append(solver.stored_energy(h))
    e = np.array(energies)
    passive = bool(np.all(np.diff(e) <= 1e-12 * e[:-1] + 1e-30))

    ok = step_err < 1e-3 and lin_err < 1e-9 and sup_err < 1e-9 and passive
    report(
        "criterion 5 (solver oracle)",
        ok,
        f"RC step err {step_err:.1e}, linearity {lin_err:.1e}, "
        f"superposition {sup_err:.1e}, passivity {'ok' if passive else 'VIOLATED'}",
    )


def test_criterion_6_noise_quality():
    spec = NoiseSpec(
        bandwidth_hz=250.0,
        rms_volts=1.0,
        duration_s=1000.0,  # 1e6 samples at t_s
        sample_interval_s=1e-3,
        seed=DEFAULT_MASTER_SEED,
    )
    w = generate(spec)
    sigma = float(np.std(w.samples))
    oob = out_of_band_power_fraction(w, 250.0)
    rep = gaussianity_report(w, n_bins=50)
    ok = abs(sigma - 1.0) < 0.01 and oob < 1e-3 and rep.chi2_pvalue > 0.01
    report(
        "criterion 6 (noise quality)",
        ok,
        f"sigma {sigma:.4f} V, out-of-band {oob:.1e}, chi2 p {rep.chi2_pvalue:.3f}",
    )


def test_criterion_7_null_controls(zero_c_table):
    bound = 3.0 * np.sqrt(0.25 / N_BITS)
    worst = max(abs(v.p_e - 0.5) for v in zero_c_table.cells.values())
    cells_ok = worst <= bound

    ties = [eve_decide(0.0, tie_seed=k) for k in range(10000)]
    tie_mean = float(np.mean([g == "LH" for g in ties]))
    ties_ok = abs(tie_mean - 0.5) <= 3.0 * np.sqrt(0.25 / 10000)

    report(
        "criterion 7 (null controls)",
        cells_ok and ties_ok,
        f"zero-C worst |p_E-0.5| = {worst:.3f} (bound {bound:.3f}), "
        f"tie mean {tie_mean:.3f}",
    )


def test_criterion_8_protocol_sanity():
    from scipy.stats import ks_2samp

    ideal = CableSpec(0.0, 0.0, 0.0, 1000.0, 1)
    builder = lambda ra, rb: build_distributed(ra, rb, ideal)

    cfg_long = ProtocolConfig(bep_units=100000)
    session = KeyExchangeSession(builder, cfg_long, master_seed=DEFAULT_MASTER_SEED)
    m = session.run_bit(0, ("L", "H"))
    lv = expected_levels(cfg_long)
    u_dev = abs(m.mean_sq_u[0] / lv.uu_lh - 1.0)
    i_dev = abs(m.mean_sq_i[0] / lv.ii_lh - 1.0)

    cfg = ProtocolConfig(bep_units=20)
    lh_sess = KeyExchangeSession(builder, cfg, master_seed=DEFAULT_MASTER_SEED + 1)
    hl_sess = KeyExchangeSession(builder, cfg, master_seed=DEFAULT_MASTER_SEED + 2)
    lh = [lh_sess.run_bit(i, ("L", "H")).mean_sq_u[0] for i in range(N_BITS)]
    hl = [hl_sess.run_bit(i, ("H", "L")).mean_sq_u[0] for i in range(N_BITS)]
    pvalue = float(ks_2samp(lh, hl).pvalue)

    ok = u_dev < 0.03 and i_dev < 0.03 and pvalue > 0.01
    report(
        "criterion 8 (protocol sanity)",
        ok,
        f"level deviations U {100 * u_dev:.2f}%, I {100 * i_dev:.2f}% "
        f"(bound 3%); LH/HL two-sample p = {pvalue:.3f}",
    )
