"""Eavesdropper statistic: derivative, correlation, decision, symmetry."""

import dataclasses

import numpy as np
import pytest

from kljnsim.attack import (
    cross_correlation,
    eve_decide,
    run_attack,
    success_rate,
    time_derivative,
)
from kljnsim.network import build_distributed, rg58
from kljnsim.noise import NoiseSpec, generate
from kljnsim.protocol import (
    _EVE_TIE,
    BepRecords,
    KeyExchangeSession,
    ProtocolConfig,
    derive_seed,
    run_bep,
)


class TestTimeDerivative:
    def test_linear_ramp_exact(self):
        ts = 1e-3
        t = np.arange(50) * ts
        d = time_derivative(2.5 * t, ts)
        np.testing.assert_allclose(d, 2.5, rtol=1e-9)

    def test_constant_zero(self):
        d = time_derivative(np.full(10, 3.3), 1e-3)
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_sinusoid_small_step(self):
        ts = 1e-3
        f = 10.0  # f * ts = 0.01
        t = np.arange(2000) * ts
        d = time_derivative(np.sin(2 * np.pi * f * t), ts)
        exact = 2 * np.pi * f * np.cos(2 * np.pi * f * t)
        interior = slice(1, -1)
        err = np.max(np.abs(d[interior] - exact[interior]))
        assert err < 1e-3 * 2 * np.pi * f

    def test_too_short(self):
        with pytest.raises(ValueError):
            time_derivative(np.zeros(2), 1e-3)


class TestCrossCorrelation:
    def test_orthogonal_sinusoids(self):
        ts = 1e-4
        t = np.arange(10000) * ts
        a = np.sin(2 * np.pi * 10 * t)
        b = np.cos(2 * np.pi * 10 * t)
        assert abs(cross_correlation(a, b)) < 1e-12

    def test_capacitor_oracle(self):
        # U = A sin(wt), I = C dU/dt  ->  <I dU/dt> = C A^2 w^2 / 2
        ts = 1e-5
        amp, f, c = 2.0, 50.0, 100e-9
        w = 2 * np.pi * f
        t = np.arange(20000) * ts  # whole periods
        du = amp * w * np.cos(w * t)
        i = c * amp * w * np.cos(w * t)
        assert cross_correlation(i, du) == pytest.approx(c * amp**2 * w**2 / 2, rel=1e-6)

    def test_identical_probes_give_equal_rho(self):
        rng = np.random.default_rng(0)
        i = rng.standard_normal(100)
        du = rng.standard_normal(100)
        assert cross_correlation(i, du) == cross_correlation(i, du)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_correlation(np.zeros(5), np.zeros(6))

    def test_rows_match_one_dimensional(self):
        # the batched pass over bits gives each row's 1-D value bitwise
        rng = np.random.default_rng(1)
        u, i = rng.standard_normal((2, 7, 40))
        rho = cross_correlation(i, time_derivative(u, 1e-3))
        for k in range(7):
            assert rho[k] == cross_correlation(i[k], time_derivative(u[k], 1e-3))


class TestEveDecide:
    def test_signs(self):
        assert eve_decide(1e-9) == "LH"
        assert eve_decide(-1e-9) == "HL"

    def test_tie_rule_is_fair(self):
        guesses = [eve_decide(0.0, tie_seed=k) for k in range(10000)]
        frac = np.mean([g == "LH" for g in guesses])
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 10000)


class TestSuccessRate:
    def test_all_correct(self):
        agg = success_rate([1] * 10)
        assert agg["p_E"] == 1.0
        assert agg["epsilon"] == 0.5
        assert agg["binomial_std"] == 0.0

    def test_fair_coin(self):
        rng = np.random.default_rng(2)
        q = rng.integers(0, 2, 1000)
        agg = success_rate(q)
        assert abs(agg["p_E"] - 0.5) < 3 * np.sqrt(0.25 / 1000)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            success_rate([])


def _crafted_records(signs, truths=None):
    """Records whose probes produce a rho of the requested sign per bit."""
    ts = 1e-3
    n = 32
    t = np.arange(n) * ts
    u = np.sin(2 * np.pi * 31.25 * t)  # whole period across the window
    du = 2 * np.pi * 31.25 * np.cos(2 * np.pi * 31.25 * t)
    truths = truths or [("L", "H")] * len(signs)
    probes = np.empty((len(signs), 4, n))
    for k, sign in enumerate(signs):
        i_a = sign * 1e-7 * du  # capacitive-looking current at Alice's end
        probes[k] = (u, i_a, u, np.zeros(n))
    return BepRecords(
        bit_index=np.arange(len(signs)),
        alice_choice=np.array([a for a, _ in truths]),
        bob_choice=np.array([b for _, b in truths]),
        probes=probes,
        start_time_s=np.arange(len(signs)) * n * ts,
        t_s=ts,
    )


class TestRunAttack:
    def test_crafted_signs_score_correctly(self):
        out = run_attack(_crafted_records([+1, -1]))
        assert out.guesses == ["LH", "HL"]
        assert list(out.q) == [1, 0]
        assert out.p_e == 0.5

    def test_discarded_bits_not_scored(self):
        # LL and HH bits carry no key bit: Eve is scored on LH/HL only
        ms = _crafted_records(
            [+1, -1, -1, +1], [("L", "H"), ("L", "L"), ("H", "L"), ("H", "H")]
        )
        out = run_attack(ms)
        assert out.n_bits == 2
        assert out.truths == ["LH", "HL"]
        assert list(out.bit_indices) == [0, 2]
        assert out.p_e == 1.0

    def test_ties_use_the_bit_coin(self):
        ms = _crafted_records([0, 0, +1], [("L", "H"), ("H", "L"), ("L", "H")])
        out = run_attack(ms, tie_seed_base=9)
        assert out.rho[0] == out.rho[1] == 0.0
        coins = [eve_decide(0.0, derive_seed(9, 1 + bit, _EVE_TIE)) for bit in (0, 1)]
        assert out.guesses == coins + ["LH"]

    def test_no_secure_bits_rejected(self):
        with pytest.raises(ValueError, match="secure"):
            run_attack(_crafted_records([+1], [("L", "L")]))

    def test_scale_invariance_of_guesses(self):
        ms = _crafted_records([(-1) ** k for k in range(6)])
        out1 = run_attack(ms)
        scaled = dataclasses.replace(ms, probes=7.0 * ms.probes)
        out2 = run_attack(scaled)
        assert out1.guesses == out2.guesses

    def test_sign_symmetry_under_mirroring(self):
        # swapping LH <-> HL with mirrored noise negates every rho
        cfg = ProtocolConfig(bep_units=20)
        dt = cfg.t_s / 32.0
        wf_l = generate(NoiseSpec(250.0, cfg.generator_rms("L"), 0.02, dt, seed=41))
        wf_h = generate(NoiseSpec(250.0, cfg.generator_rms("H"), 0.02, dt, seed=42))
        cable = rg58(1000.0)
        builder = lambda ra, rb: build_distributed(ra, rb, cable)
        m_lh = run_bep(builder, cfg, 0, ("L", "H"), 0,
                       noise_overrides={"alice": wf_l, "bob": wf_h})
        m_hl = run_bep(builder, cfg, 0, ("H", "L"), 0,
                       noise_overrides={"alice": wf_h, "bob": wf_l})
        out_lh = run_attack(m_lh)
        out_hl = run_attack(m_hl)
        assert out_hl.rho[0] == pytest.approx(-out_lh.rho[0], rel=1e-9)
        # Eve's score is unchanged by the swap: her guess flips with truth
        assert out_hl.q[0] == out_lh.q[0]

    def test_positive_mean_rho_under_lh(self):
        # the capacitive leak points the right way: Alice holding the
        # low resistor makes rho positive on average
        cfg = ProtocolConfig(bep_units=100)
        cable = rg58(1000.0)
        sess = KeyExchangeSession(
            lambda ra, rb: build_distributed(ra, rb, cable), cfg, master_seed=11
        )
        out = run_attack(sess.run_bits(60, warmup_units=5))
        assert np.mean(out.rho) > 0
        assert out.p_e > 0.6
