"""Protocol layer: level formulas, inference, BEP runs, symmetries."""

import numpy as np
import pytest

from kljnsim.network import CableSpec, build_distributed, rg58
from kljnsim.noise import NoiseSpec, generate
from kljnsim.protocol import (
    KeyExchangeSession,
    ProtocolConfig,
    classify_exchange,
    expected_levels,
    infer_remote_bit,
    infer_remote_resistance,
    run_bep,
)

IDEAL = CableSpec(0.0, 0.0, 0.0, 1000.0, 0.0, 1)


def ideal_builder(ra, rb):
    return build_distributed(ra, rb, IDEAL)


class TestExpectedLevels:
    def test_parallel_arithmetic(self):
        lv = expected_levels(ProtocolConfig())
        # R_par(1k, 9k) = 900 ohm; U levels scale as R_par
        assert lv.uu_lh / lv.uu_ll == pytest.approx(900.0 / 500.0)
        assert lv.uu_lh == pytest.approx(0.9, rel=1e-6)
        assert lv.ii_lh == pytest.approx(1e-7, rel=1e-6)

    def test_symmetric_resistors_half(self):
        cfg = ProtocolConfig(r_low=1000.0, r_high=1000.0 + 1e-9)
        lv = expected_levels(cfg)
        assert lv.uu_ll == pytest.approx(lv.uu_lh, rel=1e-6)

    def test_current_level_ordering(self):
        lv = expected_levels(ProtocolConfig())
        assert lv.ii_ll > lv.ii_lh > lv.ii_hh


class TestClassifyExchange:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("L", "L", "discard"), ("H", "H", "discard"),
         ("L", "H", "secure"), ("H", "L", "secure")],
    )
    def test_cases(self, a, b, expected):
        assert classify_exchange(a, b) == expected

    def test_bad_choice(self):
        with pytest.raises(ValueError):
            classify_exchange("L", "X")


class TestInference:
    def setup_method(self):
        self.cfg = ProtocolConfig()
        self.lv = expected_levels(self.cfg)

    def test_exact_levels(self):
        assert infer_remote_bit(1000.0, self.lv.uu_ll, self.lv) == "L"
        assert infer_remote_bit(1000.0, self.lv.uu_lh, self.lv) == "H"
        assert infer_remote_bit(9000.0, self.lv.uu_hh, self.lv) == "H"

    def test_geometric_mean_ties_up(self):
        gm = np.sqrt(self.lv.uu_ll * self.lv.uu_lh)
        assert infer_remote_bit(1000.0, gm, self.lv) == "H"

    def test_current_quantity_reverses_ordering(self):
        # for current, the higher level means the remote resistor is low
        assert infer_remote_bit(1000.0, self.lv.ii_ll, self.lv, "current") == "L"
        assert infer_remote_bit(1000.0, self.lv.ii_lh, self.lv, "current") == "H"

    def test_combined_ratio_estimator(self):
        assert infer_remote_resistance(1000.0, self.lv.uu_lh, self.lv.ii_lh, self.lv) == "H"
        assert infer_remote_resistance(9000.0, self.lv.uu_lh, self.lv.ii_lh, self.lv) == "L"

    def test_combined_estimator_is_elementwise(self):
        lv = self.lv
        own = np.array([1000.0, 9000.0, 1000.0, 9000.0])
        u = np.array([lv.uu_lh, lv.uu_lh, lv.uu_ll, lv.uu_hh])
        i = np.array([lv.ii_lh, lv.ii_lh, 0.0, 0.0])  # no current: voltage alone
        got = infer_remote_resistance(own, u, i, lv)
        assert got.tolist() == [infer_remote_resistance(*x, lv) for x in zip(own, u, i)]
        assert got.tolist() == ["H", "L", "L", "H"]

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            infer_remote_bit(1000.0, 1.0, self.lv, "power")


class TestRunBep:
    def test_zero_temperature_all_zero(self):
        cfg = ProtocolConfig(t_eff=0.0, bep_units=20)
        m = run_bep(ideal_builder, cfg, 0, ("L", "H"), seed=1)
        assert m.mean_sq_u[0] == 0.0
        assert m.mean_sq_i[0] == 0.0
        assert np.all(m.probes[0, 2] == 0.0)

    def test_levels_match_formula_long_bep(self):
        cfg = ProtocolConfig(bep_units=20000)
        m = run_bep(ideal_builder, cfg, 0, ("L", "H"), seed=2)
        lv = expected_levels(cfg)
        assert m.mean_sq_u[0] == pytest.approx(lv.uu_lh, rel=0.03)
        assert m.mean_sq_i[0] == pytest.approx(lv.ii_lh, rel=0.03)

    def test_mirroring_swaps_probes(self):
        # swapping LH -> HL while handing each party the other's noise
        # realization mirrors the loop geometrically
        cfg = ProtocolConfig(bep_units=20)
        dt = cfg.t_s / 32.0
        wf_l = generate(NoiseSpec(250.0, cfg.generator_rms("L"), 0.02, dt, seed=31))
        wf_h = generate(NoiseSpec(250.0, cfg.generator_rms("H"), 0.02, dt, seed=32))
        cable = rg58(100.0)
        builder = lambda ra, rb: build_distributed(ra, rb, cable)
        m_lh = run_bep(builder, cfg, 0, ("L", "H"), 0,
                       noise_overrides={"alice": wf_l, "bob": wf_h})
        m_hl = run_bep(builder, cfg, 0, ("H", "L"), 0,
                       noise_overrides={"alice": wf_h, "bob": wf_l})
        u_cha, i_cha, u_chb, i_chb = range(4)  # rows in PROBES order
        lh, hl = m_lh.probes[0], m_hl.probes[0]
        np.testing.assert_allclose(hl[u_cha], lh[u_chb], rtol=1e-10)
        np.testing.assert_allclose(hl[i_cha], lh[i_chb], rtol=1e-10)
        np.testing.assert_allclose(hl[u_chb], lh[u_cha], rtol=1e-10)

    def test_waveform_length_is_bep_units(self):
        cfg = ProtocolConfig(bep_units=20)
        m = run_bep(ideal_builder, cfg, 0, ("L", "H"), seed=3)
        assert m.probes.shape == (1, 4, 20)
        assert m.t_s == cfg.t_s


class TestSession:
    def test_deterministic(self):
        cfg = ProtocolConfig(bep_units=20)
        runs = []
        for _ in range(2):
            sess = KeyExchangeSession(ideal_builder, cfg, master_seed=5)
            runs.append(sess.run_bits(3))
        a, b = runs
        np.testing.assert_array_equal(a.probes[:, 0], b.probes[:, 0])
        np.testing.assert_array_equal(a.mean_sq_u, b.mean_sq_u)

    def test_fresh_noise_each_bit(self):
        cfg = ProtocolConfig(bep_units=20)
        sess = KeyExchangeSession(ideal_builder, cfg, master_seed=5)
        bits = sess.run_bits(2)
        assert not np.allclose(bits.probes[0, 0], bits.probes[1, 0])

    def test_records_hold_one_row_per_bit(self):
        cfg = ProtocolConfig(bep_units=20, arrangement="random")
        sess = KeyExchangeSession(ideal_builder, cfg, master_seed=5)
        bits = sess.run_bits(5, warmup_units=3)
        assert len(bits) == 5 and bits.probes.shape == (5, 4, 20)
        assert bits.bit_index.tolist() == list(range(5))
        assert [tuple(a) for a in bits.arrangement] == [sess.draw_arrangement(i)
                                                        for i in range(5)]
        for k in range(5):
            assert bits.mean_sq_u[k] == np.mean(bits.probes[k, 0] ** 2)
            assert bits.mean_sq_i[k] == np.mean(bits.probes[k, 1] ** 2)
        np.testing.assert_allclose(bits.start_time_s, (3 + 20 * np.arange(5) + 1) * cfg.t_s)
        tail = bits[2:]
        assert tail.bit_index.tolist() == [2, 3, 4]
        np.testing.assert_array_equal(tail.probes, bits.probes[2:])

    def test_given_arrangements_are_used(self):
        cfg = ProtocolConfig(bep_units=20, arrangement="random")
        sess = KeyExchangeSession(ideal_builder, cfg, master_seed=5)
        drawn = [sess.draw_arrangement(i) for i in range(4)]
        given = KeyExchangeSession(ideal_builder, cfg, master_seed=5).run_bits(
            4, warmup_units=3, arrangements=drawn)
        np.testing.assert_array_equal(given.probes, sess.run_bits(4, warmup_units=3).probes)
        forced = KeyExchangeSession(ideal_builder, cfg, master_seed=5).run_bits(
            4, arrangements=[("H", "L")] * 4)
        assert forced.arrangement.tolist() == ["HL"] * 4
        with pytest.raises(ValueError, match="arrangements"):
            sess.run_bits(3, arrangements=drawn)

    def test_random_arrangement_mixes(self):
        cfg = ProtocolConfig(bep_units=1, arrangement="random")
        sess = KeyExchangeSession(ideal_builder, cfg, master_seed=6)
        arrangements = {sess.draw_arrangement(i) for i in range(64)}
        assert arrangements == {("L", "L"), ("L", "H"), ("H", "L"), ("H", "H")}

    def test_inference_accuracy_at_bep_100(self):
        # legitimate parties decode each other with error well below 1%
        cfg = ProtocolConfig(bep_units=100, arrangement="random")
        lv = expected_levels(cfg)
        sess = KeyExchangeSession(ideal_builder, cfg, master_seed=7)
        bits = sess.run_bits(200)
        own = np.array([cfg.resistance(c) for c in bits.alice_choice])
        guess = infer_remote_resistance(own, bits.mean_sq_u, bits.mean_sq_i, lv)
        correct = np.count_nonzero(guess == bits.bob_choice)
        assert correct >= 198

    def test_lh_hl_degeneracy(self):
        # voltage level distributions for LH and HL are indistinguishable
        from scipy.stats import ks_2samp

        cfg = ProtocolConfig(bep_units=20)
        a = KeyExchangeSession(ideal_builder, cfg, master_seed=8)
        lh = [a.run_bit(i, ("L", "H")).mean_sq_u[0] for i in range(300)]
        b = KeyExchangeSession(ideal_builder, cfg, master_seed=9)
        hl = [b.run_bit(i, ("H", "L")).mean_sq_u[0] for i in range(300)]
        assert ks_2samp(lh, hl).pvalue > 0.01

    def test_bad_master_seed(self):
        with pytest.raises(ValueError):
            KeyExchangeSession(ideal_builder, ProtocolConfig(), master_seed=-1)
