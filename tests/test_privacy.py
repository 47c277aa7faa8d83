"""XOR compression: halving mechanics and the leak-reduction model."""

import numpy as np
import pytest

from kljnsim.attack import AttackOutcome
from kljnsim.privacy import empirical_amplification, predicted_leak_after_xor, xor_halve


def _outcome(guesses, truths):
    q = np.array([int(g == t) for g, t in zip(guesses, truths)])
    n = len(guesses)
    return AttackOutcome(
        rho_a=np.zeros(n), rho_b=np.zeros(n), rho=np.zeros(n),
        guesses=list(guesses), truths=list(truths), q=q, bit_indices=np.arange(n),
    )


class TestXorHalve:
    def test_direct_example(self):
        out = xor_halve(np.array([1, 0, 1, 1]))
        np.testing.assert_array_equal(out, [1, 0])

    def test_zeros_stay_zero(self):
        out = xor_halve(np.zeros(10, dtype=int))
        assert len(out) == 5
        assert np.all(out == 0)

    def test_odd_trailing_bit_dropped(self):
        out = xor_halve(np.array([1, 1, 0]))
        np.testing.assert_array_equal(out, [0])

    def test_two_rounds_quarter_length(self):
        rng = np.random.default_rng(0)
        key = rng.integers(0, 2, 1001)
        twice = xor_halve(xor_halve(key))
        assert len(twice) == 1001 // 4

    def test_too_short(self):
        with pytest.raises(ValueError):
            xor_halve(np.array([1]))

    def test_key_validation(self):
        with pytest.raises(ValueError):
            xor_halve(np.array([0, 2]))
        with pytest.raises(ValueError):
            xor_halve(np.array([], dtype=int))


class TestPredictedLeak:
    def test_strongest_cell_operating_point(self):
        p1 = predicted_leak_after_xor(0.769)
        assert p1 == pytest.approx(0.6447, abs=2e-4)
        p2 = predicted_leak_after_xor(p1)
        assert p2 == pytest.approx(0.5418, abs=2e-4)

    def test_half_is_fixed_point(self):
        assert predicted_leak_after_xor(0.5) == 0.5

    def test_contraction_toward_half(self):
        for p in (0.55, 0.7, 0.9, 0.999):
            p_next = predicted_leak_after_xor(p)
            assert 0.5 < p_next < p
        # iterating converges to 0.5
        p = 0.95
        for _ in range(20):
            p = predicted_leak_after_xor(p)
        assert p == pytest.approx(0.5, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            predicted_leak_after_xor(1.2)


class TestEmpiricalAmplification:
    def test_perfect_eve_stays_perfect(self):
        out = _outcome(["LH"] * 16, ["LH"] * 16)
        assert empirical_amplification(out, 3) == [1.0, 1.0, 1.0]

    def test_pairwise_match_rule(self):
        # q pattern (1,1),(1,0),(0,0),(0,1): XOR bit correct iff pair agrees
        guesses = ["LH", "LH", "LH", "HL", "HL", "HL", "HL", "LH"]
        truths = ["LH"] * 8
        out = _outcome(guesses, truths)
        assert empirical_amplification(out, 1) == [0.5]

    def test_matches_independence_model_statistically(self):
        rng = np.random.default_rng(3)
        p = 0.769
        n = 20000
        truths = ["LH"] * n
        guesses = ["LH" if rng.random() < p else "HL" for _ in range(n)]
        out = _outcome(guesses, truths)
        emp = empirical_amplification(out, 1)[0]
        pred = predicted_leak_after_xor(out.p_e)
        assert emp == pytest.approx(pred, abs=3 * np.sqrt(pred * (1 - pred) / (n // 2)))

    def test_insufficient_bits(self):
        out = _outcome(["LH"] * 3, ["LH"] * 3)
        with pytest.raises(ValueError):
            empirical_amplification(out, 2)

    @pytest.mark.parametrize("n", [16, 17, 30, 61])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_equals_xor_of_truth_and_guess_keys(self, n, rounds):
        # the parties XOR their true key and Eve XORs her guessed key,
        # pairwise; she scores the bits where the two compressed keys agree
        rng = np.random.default_rng(100 * n + rounds)
        truths = rng.choice(["LH", "HL"], n).tolist()
        guesses = rng.choice(["LH", "HL"], n).tolist()
        truth = np.array([t == "LH" for t in truths], dtype=int)
        guess = np.array([g == "LH" for g in guesses], dtype=int)
        oracle = []
        for _ in range(rounds):
            m = len(truth) // 2
            truth = truth[: 2 * m : 2] ^ truth[1 : 2 * m : 2]
            guess = guess[: 2 * m : 2] ^ guess[1 : 2 * m : 2]
            oracle.append(float(np.mean(truth == guess)))
        assert empirical_amplification(_outcome(guesses, truths), rounds) == oracle

    def test_bad_rounds(self):
        out = _outcome(["LH"] * 8, ["LH"] * 8)
        with pytest.raises(ValueError):
            empirical_amplification(out, 0)
