"""Protocol layer: level formulas, inference, BEP runs, symmetries."""

import numpy as np
import pytest

from kljnsim import noise, protocol, seeding
from kljnsim import solver as solver_module
from kljnsim.network import CableSpec, build_distributed, rg58
from kljnsim.protocol import (
    KeyExchangeSession,
    ProtocolConfig,
    expected_levels,
    infer_remote_resistance,
)
from kljnsim.compare import compare_models
from kljnsim.solver import (
    TransientSolver,
    blas_pools,
    frequency_response_check,
)

IDEAL = CableSpec(0.0, 0.0, 0.0, 1000.0, 1)


def ideal_builder(ra, rb):
    return build_distributed(ra, rb, IDEAL)


class TestProtocolConfig:
    @pytest.mark.parametrize("r_low, r_high", [(9000.0, 1000.0), (1000.0, 1000.0)])
    def test_r_low_must_be_below_r_high(self, r_low, r_high):
        # the inference splits at sqrt(r_low r_high) and reads "above" as
        # high, so swapped resistors would invert every bit
        with pytest.raises(ValueError, match="r_low .* must be below r_high"):
            ProtocolConfig(r_low=r_low, r_high=r_high)


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


class TestInference:
    def setup_method(self):
        self.cfg = ProtocolConfig()
        self.lv = expected_levels(self.cfg)

    def test_exact_levels(self):
        # No current: the voltage level alone decides.
        assert infer_remote_resistance(1000.0, self.lv.uu_ll, 0.0, self.lv) == "L"
        assert infer_remote_resistance(1000.0, self.lv.uu_lh, 0.0, self.lv) == "H"
        assert infer_remote_resistance(9000.0, self.lv.uu_hh, 0.0, self.lv) == "H"

    def test_geometric_mean_ties_up(self):
        gm = np.sqrt(self.lv.uu_ll * self.lv.uu_lh)
        assert infer_remote_resistance(1000.0, gm, 0.0, self.lv) == "H"

    def test_combined_ratio_estimator(self):
        assert infer_remote_resistance(1000.0, self.lv.uu_lh, self.lv.ii_lh, self.lv) == "H"
        assert infer_remote_resistance(9000.0, self.lv.uu_lh, self.lv.ii_lh, self.lv) == "L"

    def test_combined_estimator_is_elementwise(self):
        lv = self.lv
        # No current: the voltage level alone, split at the geometric mean
        # of the own resistor's two levels, ties going to the larger one.
        gm_low = np.sqrt(lv.uu_ll * lv.uu_lh)
        cases = [
            (1000.0, lv.uu_lh, lv.ii_lh, "H"),
            (9000.0, lv.uu_lh, lv.ii_lh, "L"),
            (1000.0, lv.uu_ll, 0.0, "L"),
            (1000.0, lv.uu_lh, 0.0, "H"),
            (9000.0, lv.uu_lh, 0.0, "L"),
            (9000.0, lv.uu_hh, 0.0, "H"),
            (1000.0, gm_low, 0.0, "H"),
        ]
        own, u, i, expected = (np.array(c) for c in zip(*cases))
        got = infer_remote_resistance(own, u, i, lv)
        assert got.tolist() == [infer_remote_resistance(*x, lv) for x in zip(own, u, i)]
        assert got.tolist() == expected.tolist()


class TestRunBep:
    def test_zero_temperature_all_zero(self):
        cfg = ProtocolConfig(t_eff=0.0, bep_units=20)
        m = KeyExchangeSession(ideal_builder, cfg, master_seed=1).run_bit(0, ("L", "H"))
        assert m.mean_sq_u[0] == 0.0
        assert m.mean_sq_i[0] == 0.0
        assert np.all(m.probes[0, 2] == 0.0)

    def test_levels_match_formula_long_bep(self):
        cfg = ProtocolConfig(bep_units=20000)
        m = KeyExchangeSession(ideal_builder, cfg, master_seed=2).run_bit(0, ("L", "H"))
        lv = expected_levels(cfg)
        assert m.mean_sq_u[0] == pytest.approx(lv.uu_lh, rel=0.03)
        assert m.mean_sq_i[0] == pytest.approx(lv.ii_lh, rel=0.03)

    def test_mirroring_swaps_probes(self, monkeypatch):
        # swapping LH -> HL while handing each party the other's noise
        # realization mirrors the loop geometrically
        cfg = ProtocolConfig(bep_units=20)
        cable = rg58(100.0)
        builder = lambda ra, rb: build_distributed(ra, rb, cable)
        m_lh = KeyExchangeSession(builder, cfg, master_seed=0).run_bit(0, ("L", "H"))
        words = KeyExchangeSession._noise_words
        monkeypatch.setattr(KeyExchangeSession, "_noise_words",
                            lambda self, slots: words(self, slots)[:, ::-1])
        m_hl = KeyExchangeSession(builder, cfg, master_seed=0).run_bit(0, ("H", "L"))
        u_cha, i_cha, u_chb, i_chb = range(4)  # rows in PROBES order
        lh, hl = m_lh.probes[0], m_hl.probes[0]
        np.testing.assert_allclose(hl[u_cha], lh[u_chb], rtol=1e-10)
        np.testing.assert_allclose(hl[i_cha], lh[i_chb], rtol=1e-10)
        np.testing.assert_allclose(hl[u_chb], lh[u_cha], rtol=1e-10)

    def test_waveform_length_is_bep_units(self):
        cfg = ProtocolConfig(bep_units=20)
        m = KeyExchangeSession(ideal_builder, cfg, master_seed=3).run_bit(0, ("L", "H"))
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
        with pytest.raises(ValueError, match="n_bits"):
            sess.run_bits(0)

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

    def test_run_seeds_hashed_once(self, monkeypatch):
        # the scalar seed path stays the oracle; a run derives its noise
        # seeds, warmup included, in one batched pass
        calls = []
        for module, name in ((protocol, "derive_seed"), (noise, "_lines"),
                             (seeding, "pcg64_words")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        sess = KeyExchangeSession(ideal_builder, ProtocolConfig(bep_units=20), master_seed=5)
        sess.run_bits(6, warmup_units=3)
        assert calls == ["pcg64_words"]
        # a random run draws its coins in one more hash pass, not per bit
        calls.clear()
        cfg = ProtocolConfig(bep_units=20, arrangement="random")
        bits = KeyExchangeSession(ideal_builder, cfg, master_seed=5).run_bits(6, warmup_units=3)
        assert calls == ["pcg64_words"] and len(set(bits.arrangement)) > 1

    @pytest.mark.parametrize("master", [5, 2**40 + 3, 2**70 + 11])
    def test_coin_pass_matches_scalar_rule(self, master):
        # masters of one to three uint32 words
        cfg = ProtocolConfig(bep_units=20, arrangement="random")
        sess = KeyExchangeSession(ideal_builder, cfg, master_seed=master)
        choices = sess.draw_choices(range(40))
        for i in range(40):
            coins = [protocol.derive_seed(master, 1 + i, purpose) & 1
                     for purpose in (protocol._COIN_ALICE, protocol._COIN_BOB)]
            want = tuple("H" if c else "L" for c in coins)
            assert tuple(choices[i]) == sess.draw_arrangement(i) == want
        assert choices.shape == (40, 2) and len({tuple(c) for c in choices}) == 4

    @pytest.mark.parametrize("bep_units", [7, 12, 21])
    def test_record_transform_matches_phase_table(self, bep_units, monkeypatch):
        # the probes of 7, 12 and 21 records, and of the 10-unit warmup, read
        # through a phase table against one transform (a step budget of one
        # record, which also runs one bit per batch)
        cfg = ProtocolConfig(bep_units=bep_units, arrangement="random")

        def builder(ra, rb):
            return build_distributed(ra, rb, rg58(1000.0))

        table = KeyExchangeSession(builder, cfg, master_seed=2).run_bits(9, warmup_units=10)
        monkeypatch.setattr(protocol, "_CHUNK_STEPS", protocol.DEFAULT_OVERSAMPLE)
        transform = KeyExchangeSession(builder, cfg, master_seed=2).run_bits(9, warmup_units=10)
        peak = np.max(np.abs(transform.probes), axis=-1, keepdims=True)
        assert np.all(np.abs(table.probes - transform.probes) <= 1e-12 * peak)

    def test_bit_within_step_budget_reads_cached_phase_table(self):
        # 300 records at S = 32 fit the 1024-record step budget
        sess = KeyExchangeSession(ideal_builder, ProtocolConfig(bep_units=300))
        _, P, E, _, _ = sess._maps_for(("L", "H"), 300)
        n_pad, k_max, _ = noise.line_window(sess._noise_spec("L", 300))
        assert protocol._CHUNK_STEPS // sess.oversample == 1024
        assert P.shape == (4, 2, k_max) and E.shape == (2 * k_max, 300)
        assert E is protocol._record_phases(n_pad, k_max, sess.oversample, 300)

    def test_long_bit_holds_no_phase_table(self, monkeypatch):
        # 2000 records are past the step budget: they are read by one
        # transform, and the run adds no phase table wider than the budget
        # to the process cache
        widths = []
        phases = protocol._record_phases
        monkeypatch.setattr(protocol, "_record_phases",
                            lambda *args: widths.append(args[-1]) or phases(*args))
        sess = KeyExchangeSession(ideal_builder, ProtocolConfig(bep_units=2000))
        sess.run_bits(2, warmup_units=10)
        assert not isinstance(sess._maps_for(("L", "H"), 2000)[2], np.ndarray)
        assert widths == [10]  # the warmup's

    @pytest.mark.usefixtures("fresh_solvers")
    def test_handoff_maps_fetched_once_per_chunk(self, monkeypatch):
        # one fetch per arrangement of a chunk's later bits; a one-bit run,
        # warmup included, needs none
        calls = []
        handoff_maps = solver_module.TransientSolver.handoff_maps
        monkeypatch.setattr(solver_module.TransientSolver, "handoff_maps",
                            lambda self, *a: calls.append(a) or handoff_maps(self, *a))
        cfg = ProtocolConfig(bep_units=20, arrangement="random")
        KeyExchangeSession(ideal_builder, cfg, master_seed=5).run_bits(1, warmup_units=3)
        assert calls == []
        bits = KeyExchangeSession(ideal_builder, cfg, master_seed=5).run_bits(12)
        assert len(calls) == len(set(bits.arrangement[1:])) > 1

    @pytest.mark.usefixtures("fresh_solvers")
    def test_handoff_maps_fetched_once_per_run(self, monkeypatch):
        # a run stepped in batches of 2 bits still fetches each later
        # arrangement's maps once
        calls = []
        handoff_maps = solver_module.TransientSolver.handoff_maps
        monkeypatch.setattr(solver_module.TransientSolver, "handoff_maps",
                            lambda self, *a: calls.append(a) or handoff_maps(self, *a))
        monkeypatch.setattr(protocol, "_CHUNK_STEPS", 2 * 20 * 32)
        cfg = ProtocolConfig(bep_units=20, arrangement="random")
        bits = KeyExchangeSession(ideal_builder, cfg, master_seed=5).run_bits(24)
        assert len(calls) == len(set(bits.arrangement[1:])) == 4

    def test_bad_master_seed(self):
        with pytest.raises(ValueError):
            KeyExchangeSession(ideal_builder, ProtocolConfig(), master_seed=-1)

    @pytest.mark.usefixtures("fresh_solvers")
    @pytest.mark.parametrize("call, match", [
        (lambda s: s.run_bit(1.5), r"bit_index must be an integer, got 1\.5"),
        (lambda s: s.run_bit(True), "bit_index must be an integer, got True"),
        (lambda s: s.run_bit(-1), "bit_index must be at least 0, got -1"),
        (lambda s: s.run_bits(2.0), r"n_bits must be an integer, got 2\.0"),
        (lambda s: s.run_bits(2, warmup_units=2.5), r"warmup_units must be an integer, got 2\.5"),
        (lambda s: s.run_bits(2, warmup_units=-1), "warmup_units must be at least 0, got -1"),
        (lambda s: s.run_warmup(2.5), r"n_units must be an integer, got 2\.5"),
        (lambda s: s.run_warmup(-3), "n_units must be at least 0, got -3"),
    ], ids=["bit_float", "bit_bool", "bit_negative", "n_bits_float", "warmup_float",
            "warmup_negative", "settle_float", "settle_negative"])
    def test_counts_named_before_any_build_or_draw(self, call, match, monkeypatch):
        builds, draws = [], []
        init, draw_lines = TransientSolver.__init__, protocol.draw_lines
        monkeypatch.setattr(TransientSolver, "__init__",
                            lambda self, *a: builds.append(a) or init(self, *a))
        monkeypatch.setattr(protocol, "draw_lines", lambda *a: draws.append(a) or draw_lines(*a))
        sess = KeyExchangeSession(ideal_builder, ProtocolConfig(bep_units=20), master_seed=5)
        with pytest.raises(ValueError, match=match):
            call(sess)
        assert builds == [] and draws == []

    def test_numpy_integer_counts_accepted(self):
        def session():
            return KeyExchangeSession(ideal_builder, ProtocolConfig(bep_units=20), master_seed=5)

        one = session().run_bit(np.int64(1))
        assert one.bit_index.tolist() == [1]
        np.testing.assert_array_equal(one.probes, session().run_bit(1).probes)
        bits = session().run_bits(np.int64(2), warmup_units=np.int32(3))
        np.testing.assert_array_equal(bits.probes, session().run_bits(2, warmup_units=3).probes)
        sess = session()
        sess.run_warmup(0)
        np.testing.assert_array_equal(sess.run_bit(1).probes, one.probes)


@pytest.mark.usefixtures("fresh_solvers")
class TestBlasScope:
    """The engine runs every OpenBLAS pool on one thread and gives each
    pool its count back afterwards."""

    @pytest.fixture
    def pools(self):
        # Two threads outside the engine, so that a restore shows.
        pools = blas_pools()
        if not pools:
            pytest.skip("no OpenBLAS thread pool loaded")
        before = [pool.get_threads() for pool in pools]
        for pool in pools:
            pool.set_threads(2)
        yield pools
        for pool, n in zip(pools, before):
            pool.set_threads(n)

    @staticmethod
    def record_threads(monkeypatch, pools, fail=False, method="propagate"):
        """Patch a ``TransientSolver`` method to note every pool's count
        when called."""
        seen = []
        original = getattr(TransientSolver, method)

        def recording(self, *args):
            seen.append([pool.get_threads() for pool in pools])
            if fail:
                raise RuntimeError("injected failure")
            return original(self, *args)

        monkeypatch.setattr(TransientSolver, method, recording)
        return seen

    def test_session_runs_on_one_thread(self, pools, monkeypatch):
        seen = self.record_threads(monkeypatch, pools)
        cfg = ProtocolConfig(bep_units=20, arrangement="random")
        KeyExchangeSession(ideal_builder, cfg, master_seed=5).run_bits(6, warmup_units=3)
        # the warmup and the run each step their first bit's free response
        assert len(seen) == 2 and all(s == [1] * len(pools) for s in seen)
        assert [pool.get_threads() for pool in pools] == [2] * len(pools)

    def test_counts_restored_when_run_raises(self, pools, monkeypatch):
        seen = self.record_threads(monkeypatch, pools, fail=True)
        sess = KeyExchangeSession(ideal_builder, ProtocolConfig(bep_units=20), master_seed=5)
        with pytest.raises(RuntimeError, match="injected"):
            sess.run_bits(4)
        assert seen == [[1] * len(pools)]
        assert [pool.get_threads() for pool in pools] == [2] * len(pools)

    def test_frequency_response_check_runs_on_one_thread(self, pools, monkeypatch):
        seen = self.record_threads(monkeypatch, pools, method="_build")
        frequency_response_check(build_distributed(1e3, 9e3, rg58(100.0)), 1e3)
        assert seen == [[1] * len(pools)]
        assert [pool.get_threads() for pool in pools] == [2] * len(pools)

    def test_compare_models_runs_on_one_thread(self, pools, monkeypatch):
        # each cable model's line gains come from one resolvent
        seen = self.record_threads(monkeypatch, pools, method="line_resolvent")
        compare_models(rg58(10.0), 1e3, 9e3, 250e3, duration_s=2e-5)
        assert len(seen) == 2 and all(s == [1] * len(pools) for s in seen)
        assert [pool.get_threads() for pool in pools] == [2] * len(pools)
