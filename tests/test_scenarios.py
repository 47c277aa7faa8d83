"""Harness: configuration round-trips, determinism, persistence, CLI."""

import dataclasses
import json
import math

import numpy as np
import pytest

from kljnsim import scenarios
from kljnsim.cli import main as cli_main
from kljnsim.privacy import empirical_amplification
from kljnsim.protocol import KeyExchangeSession, infer_remote_resistance
from kljnsim.scenarios import (
    DEFAULT_MASTER_SEED,
    DefenseSpec,
    ScenarioConfig,
    default_scenario,
    reproduce_table1,
    run_scenario,
)


def random_scenario(n_bits, seed, xor_rounds=0, output_dir=None):
    """The (20 BEP, 100 m) cell with random resistor choices."""
    defense = DefenseSpec(kind="xor", xor_rounds=xor_rounds) if xor_rounds else None
    cfg = default_scenario(20, 100.0, n_bits=n_bits, master_seed=seed, defense=defense,
                           output_dir=output_dir)
    return dataclasses.replace(
        cfg, protocol=dataclasses.replace(cfg.protocol, arrangement="random"))


class TestConfig:
    def test_round_trip(self):
        cfg = default_scenario(20, 100.0, n_bits=7, master_seed=3)
        assert ScenarioConfig.parse(cfg.serialize()) == cfg

    def test_round_trip_with_defense(self):
        cfg = default_scenario(
            100, 1000.0, defense=DefenseSpec(kind="both", tap="bob", xor_rounds=2)
        )
        assert ScenarioConfig.parse(cfg.serialize()) == cfg

    def test_unknown_key_rejected(self):
        d = json.loads(default_scenario(20, 100.0).serialize())
        d["n_bit"] = 5
        with pytest.raises(ValueError, match="n_bit"):
            ScenarioConfig.from_dict(d)

    def test_xor_rounds_checked_against_bits(self, monkeypatch):
        cfg = default_scenario(20, 100.0, n_bits=3,
                               defense=DefenseSpec(kind="xor", xor_rounds=2))
        monkeypatch.setattr(KeyExchangeSession, "run_bits", None)  # never reached
        with pytest.raises(ValueError, match="XOR rounds"):
            run_scenario(cfg)

    def test_defense_validation(self):
        with pytest.raises(ValueError):
            DefenseSpec(kind="tinfoil")
        with pytest.raises(ValueError):
            DefenseSpec(kind="xor", xor_rounds=0)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            default_scenario(20, 100.0, n_bits=0)


class TestRunScenario:
    def test_deterministic_minus_wall_clock(self):
        cfg = default_scenario(20, 100.0, n_bits=8, master_seed=21)
        a = run_scenario(cfg).summary_dict()
        b = run_scenario(cfg).summary_dict()
        a.pop("wall_clock_s")
        b.pop("wall_clock_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_persistence_files(self, tmp_path):
        out = tmp_path / "scen"
        cfg = default_scenario(20, 100.0, n_bits=5, master_seed=4, output_dir=str(out))
        run_scenario(cfg)
        names = {p.name for p in out.iterdir()}
        assert names == {
            "summary.json",
            "eve_bits.csv",
            "eve_summary.json",
            "bep_records.jsonl",
            "manifest.json",
        }
        records = [json.loads(line) for line in (out / "bep_records.jsonl").open()]
        assert len(records) == 5
        assert records[0]["classification"] == "secure"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "summary.json" in manifest["files"]

    def test_eve_csv_shape(self, tmp_path):
        out = tmp_path / "s"
        cfg = default_scenario(20, 100.0, n_bits=4, master_seed=5, output_dir=str(out))
        run_scenario(cfg)
        lines = (out / "eve_bits.csv").read_text().splitlines()
        assert lines[0] == "bit,rho_a,rho_b,rho,guess,q"
        assert len(lines) == 5

    def test_dump_netlist_and_waveforms(self, tmp_path):
        cfg = default_scenario(20, 100.0, n_bits=2, master_seed=6)
        nl_path = tmp_path / "net.txt"
        wf_path = tmp_path / "wf.csv"
        run_scenario(cfg, dump_waveforms=str(wf_path), dump_netlist=str(nl_path))
        assert nl_path.read_text().startswith("V ua sa 0 ua")
        lines = wf_path.read_text().splitlines()
        assert lines[0] == "t,U_cha,I_cha,U_chb,I_chb"
        assert len(lines) == 1 + 2 * 20

    def test_xor_defense_produces_rounds(self):
        cfg = default_scenario(
            20, 100.0, n_bits=16, master_seed=7,
            defense=DefenseSpec(kind="xor", xor_rounds=2),
        )
        res = run_scenario(cfg)
        assert len(res.amplification) == 2

    def test_random_arrangement_scores_secure_bits(self, tmp_path):
        cfg = random_scenario(24, 7, xor_rounds=2, output_dir=str(tmp_path))
        res = run_scenario(cfg)
        session = KeyExchangeSession(None, cfg.protocol, cfg.solver, master_seed=7)
        secure = [i for i in range(24) if len(set(session.draw_arrangement(i))) == 2]
        assert 4 <= len(secure) < 24
        out = res.outcome
        assert list(out.bit_indices) == secure
        assert set(out.truths) <= {"LH", "HL"}
        assert res.n_secure == out.n_bits == len(secure)
        assert res.amplification == empirical_amplification(out, 2)
        rows = (tmp_path / "eve_bits.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == secure
        assert len((tmp_path / "bep_records.jsonl").read_text().splitlines()) == 24

    def test_inference_once_feeds_count_and_records(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return infer_remote_resistance(*args)

        monkeypatch.setattr(scenarios, "infer_remote_resistance", counted)
        res = run_scenario(random_scenario(24, 7, output_dir=str(tmp_path)))
        assert len(calls) == 1
        records = [json.loads(line) for line in (tmp_path / "bep_records.jsonl").open()]
        assert res.n_inference_errors == sum(
            r["alice_infers_bob"] != r["bob_choice"] for r in records)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "max_residual" not in summary
        assert summary["factorization_residual"] == res.factorization_residual < 1e-9

    def test_coins_drawn_once_per_bit(self, monkeypatch):
        calls = []
        draw = KeyExchangeSession.draw_arrangement

        def counted(self, bit_index):
            calls.append(bit_index)
            return draw(self, bit_index)

        monkeypatch.setattr(KeyExchangeSession, "draw_arrangement", counted)
        run_scenario(random_scenario(24, 7))
        assert sorted(calls) == list(range(24))

    def test_short_secure_key_checked_before_simulating(self, monkeypatch):
        # seed 3 draws 3 secure bits of 4: one XOR round, not two
        class Simulated(Exception):
            pass

        def run_bits(*args, **kwargs):
            raise Simulated

        cfg = random_scenario(4, 3, xor_rounds=2)
        with monkeypatch.context() as m:
            m.setattr(KeyExchangeSession, "run_bits", run_bits)
            with pytest.warns(RuntimeWarning, match="XOR rounds"), pytest.raises(Simulated):
                run_scenario(cfg)
            # seed 0 draws no secure bit at all
            with pytest.raises(ValueError, match="no secure bits"):
                run_scenario(random_scenario(4, 0))
        with pytest.warns(RuntimeWarning):
            res = run_scenario(cfg)
        assert res.n_secure == 3
        assert res.amplification[0] == empirical_amplification(res.outcome, 1)[0]
        assert math.isnan(res.amplification[1])

    def test_zero_capacitance_near_chance(self):
        cfg = default_scenario(50, 1000.0, n_bits=200, master_seed=8, c_per_m=0.0)
        res = run_scenario(cfg)
        assert abs(res.p_e - 0.5) < 3 * np.sqrt(0.25 / 200)


class TestTable1Harness:
    def test_small_sweep_shapes(self, tmp_path):
        res = reproduce_table1(master_seed=9, n_bits=4, output_dir=str(tmp_path))
        assert len(res.cells) == 6
        text = res.format_table()
        assert "1000 m cable" in text
        csv_lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert len(csv_lines) == 4
        assert (tmp_path / "bep20_len100" / "summary.json").exists()

    def test_cells_independent_of_execution_order(self):
        # each cell's seed derives from (master, index): rerunning one
        # cell alone reproduces its value from the full sweep
        from kljnsim.protocol import derive_seed

        full = reproduce_table1(master_seed=10, n_bits=4)
        idx = 3  # (50, 1000.0) in the cell list
        cfg = default_scenario(50, 1000.0, n_bits=4,
                               master_seed=derive_seed(10, 1000 + idx))
        alone = run_scenario(cfg)
        assert alone.p_e == full.cells[(50, 1000.0)].p_e


class TestCli:
    def test_table1_command(self, capsys):
        rc = cli_main(["table1", "--bits", "4", "--seed", "3"])
        assert rc == 0
        assert "1000 m cable" in capsys.readouterr().out

    def test_noise_check_command(self, capsys, tmp_path):
        rc = cli_main(["noise-check", "--samples", "20000", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chi2 normality p" in out
        assert (tmp_path / "gaussianity.csv").exists()

    def test_compare_models_command(self, capsys):
        rc = cli_main(["compare-models", "--bandwidth", "250", "--seed", "3"])
        assert rc == 0
        assert "indistinguishable" in capsys.readouterr().out

    def test_run_command(self, tmp_path, capsys):
        cfg = default_scenario(20, 100.0, n_bits=3, master_seed=12)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.serialize())
        rc = cli_main(["run", "--config", str(path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_bits"] == 3

    def test_run_seed_overrides_config_seed(self, tmp_path, capsys):
        cfg = default_scenario(20, 100.0, n_bits=2, master_seed=12)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.serialize())
        for argv, seed in ((["--seed", str(DEFAULT_MASTER_SEED)], DEFAULT_MASTER_SEED),
                           ([], 12)):
            assert cli_main(["run", "--config", str(path)] + argv) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["config"]["master_seed"] == seed

    @pytest.mark.parametrize("flag", ["--dump-netlist", "--dump-waveforms"])
    def test_dump_flags_only_on_run(self, flag, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["table1", flag, str(tmp_path / "x")])
        assert not (tmp_path / "x").exists()

    def test_error_is_machine_readable(self, capsys):
        rc = cli_main(["run", "--config", "/nonexistent/path.json"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_defenses_command_smoke(self, capsys):
        rc = cli_main(["defenses", "--bits", "8", "--seed", "3"])
        assert rc == 0
        assert "capacitor killer" in capsys.readouterr().out
