"""Harness: configuration round-trips, determinism, persistence, CLI."""

import dataclasses
import json
import math
import os
from unittest import mock

import numpy as np
import pytest

from kljnsim import protocol, scenarios, seeding
from kljnsim.cli import main as cli_main
from kljnsim.network import rg58
from kljnsim.privacy import empirical_amplification
from kljnsim.protocol import KeyExchangeSession, ProtocolConfig, infer_remote_resistance
from kljnsim.scenarios import (
    DEFAULT_MASTER_SEED,
    DefenseSpec,
    ScenarioConfig,
    default_scenario,
    default_warmup_units,
    reproduce_defenses,
    reproduce_table1,
    run_scenario,
)
from kljnsim.solver import blas_pools


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

    def test_saved_velocity_key_rejected(self):
        # the velocity follows from L and C and is no longer a config field
        d = default_scenario(20, 100.0).to_dict()
        assert "velocity_m_s" not in d["cable"]
        d["cable"]["velocity_m_s"] = 2e8
        with pytest.raises(ValueError, match="unknown cable keys: velocity_m_s"):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("section, key, value", [
        ("protocol", "t_s", 1e-3),
        ("scenario", "solver", {"internal_step_s": 1e-3 / 32, "tolerance": 1e-9}),
    ], ids=["t_s", "solver"])
    def test_saved_time_base_keys_rejected(self, section, key, value):
        # t_s and the solver step follow from the band; neither is a field
        d = default_scenario(20, 100.0).to_dict()
        target = d if section == "scenario" else d[section]
        assert key not in target
        target[key] = value
        with pytest.raises(ValueError, match=f"unknown {section} keys: {key}$"):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize("bandwidth_hz", [250.0, 500.0])
    def test_solver_step_follows_the_band(self, bandwidth_hz):
        cfg = default_scenario(20, 100.0)
        cfg = dataclasses.replace(
            cfg, protocol=dataclasses.replace(cfg.protocol, bandwidth_hz=bandwidth_hz))
        assert cfg.protocol.t_s == 1.0 / (4.0 * bandwidth_hz)
        assert cfg.solver.internal_step_s == cfg.protocol.t_s / protocol.DEFAULT_OVERSAMPLE
        assert cfg.solver == KeyExchangeSession(None, cfg.protocol).solver_config

    @pytest.mark.parametrize("section, key, value", [
        ("protocol", "bep_units", 20.0),
        ("defense", "xor_rounds", 2.0),
        ("cable", "n_segments", 10.0),
        ("scenario", "master_seed", 3.5),
        ("scenario", "n_bits", True),
    ])
    def test_non_integer_rejected_before_drawing(self, section, key, value):
        d = default_scenario(20, 100.0, n_bits=8, master_seed=3,
                             defense=DefenseSpec(kind="xor", xor_rounds=2)).to_dict()
        (d if section == "scenario" else d[section])[key] = value
        with mock.patch.object(protocol, "draw_lines", wraps=protocol.draw_lines) as draw:
            with pytest.raises(ValueError, match=f"{key} must be an integer, got {value!r}"):
                run_scenario(ScenarioConfig.from_dict(d))
        assert draw.call_count == 0

    @pytest.mark.parametrize("key, make", [
        ("bep_units", lambda: default_scenario(20.0, 100.0, n_bits=4)),
        ("bep_units", lambda: ScenarioConfig(ProtocolConfig(bep_units=True), rg58(100.0))),
        ("n_bits", lambda: default_scenario(20, 100.0, n_bits=4.0)),
        ("master_seed", lambda: default_scenario(20, 100.0, n_bits=4, master_seed=3.5)),
        ("xor_rounds", lambda: default_scenario(
            20, 100.0, n_bits=4, defense=DefenseSpec(kind="xor", xor_rounds=2.0))),
        ("n_segments", lambda: ScenarioConfig(ProtocolConfig(bep_units=20),
                                              rg58(100.0, n_segments=10.0))),
    ], ids=["bep_units", "bep_units_bool", "n_bits", "master_seed", "xor_rounds",
            "n_segments"])
    def test_non_integer_named_on_the_api_path(self, key, make):
        # built in Python, not parsed: the config itself names the field
        with mock.patch.object(protocol, "draw_lines", wraps=protocol.draw_lines) as draw:
            with pytest.raises(ValueError, match=f"^{key} must be an integer"):
                run_scenario(make())
        assert draw.call_count == 0

    def test_capacitance_override_sets_the_velocity(self):
        cable = default_scenario(20, 100.0, c_per_m=200e-12).cable
        assert cable.velocity_m_s == 1.0 / math.sqrt(cable.l_per_m * cable.c_per_m)

    def test_warmup_covers_the_cable_pole_above_a_floor(self):
        protocol = ProtocolConfig(bep_units=20)
        cables = (dataclasses.replace(rg58(1000.0), c_per_m=0.0), rg58(1000.0), rg58(10_000.0))
        assert [default_warmup_units(protocol, c) for c in cables] == [10, 10, 23]

    def test_swapped_resistors_rejected(self):
        d = json.loads(default_scenario(20, 100.0).serialize())
        d["protocol"]["r_low"], d["protocol"]["r_high"] = 9000.0, 1000.0
        with pytest.raises(ValueError, match="r_low .* must be below r_high"):
            ScenarioConfig.from_dict(d)

    def test_xor_rounds_checked_against_bits(self, monkeypatch):
        cfg = default_scenario(20, 100.0, n_bits=3,
                               defense=DefenseSpec(kind="xor", xor_rounds=2))
        monkeypatch.setattr(KeyExchangeSession, "run_bits", None)  # never reached
        with pytest.raises(ValueError, match="XOR rounds"):
            run_scenario(cfg)

    def test_too_short_to_score_rejected_before_simulating(self, monkeypatch):
        # Eve differentiates each probe, which takes at least 3 samples
        monkeypatch.setattr(KeyExchangeSession, "run_bits", None)  # never reached
        with pytest.raises(ValueError, match="bep_units"):
            run_scenario(default_scenario(2, 100.0, n_bits=50))

    def test_defense_validation(self):
        with pytest.raises(ValueError):
            DefenseSpec(kind="tinfoil")
        with pytest.raises(ValueError):
            DefenseSpec(kind="xor", xor_rounds=0)

    @pytest.mark.parametrize("kind, rounds", [("none", 2), ("capacitor_killer", 3)])
    def test_ignored_xor_rounds_rejected(self, kind, rounds):
        with pytest.raises(ValueError, match="xor_rounds"):
            DefenseSpec(kind=kind, xor_rounds=rounds)

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

    def test_manifest_records_provenance(self, tmp_path):
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_scenario(default_scenario(20, 100.0, n_bits=4, master_seed=4,
                                          output_dir=str(out)))
            manifests.append((out / "manifest.json").read_text())
        assert manifests[0] == manifests[1]
        manifest = json.loads(manifests[0])
        assert set(manifest["versions"]) == {"kljnsim", "python", "numpy", "scipy", "blas"}
        assert manifest["versions"]["numpy"] == np.__version__
        assert set(manifest["versions"]["blas"]) == {"name", "version"}
        assert set(manifest["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        pools = [pool.name for pool in blas_pools()]
        if pools:
            assert manifest["engine_blas_threads"] == {name: 1 for name in pools}
        else:
            assert manifest["engine_blas_threads"] is None
        # the count the engine's worker selection reads (protocol.engine_cpus)
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert manifest["engine_cpus"] == protocol.engine_cpus() == cpus

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
        # one coin pass covers every bit: both parties' coins in slots 1..24
        calls = []
        derive_states = seeding.derive_states

        def counted(master, slots, purposes):
            calls.append((list(slots), list(purposes)))
            return derive_states(master, slots, purposes)

        monkeypatch.setattr(seeding, "derive_states", counted)
        run_scenario(random_scenario(24, 7))
        coin = (protocol._COIN_ALICE, protocol._COIN_BOB)
        coin_calls = [c for c in calls if set(c[1]) & set(coin)]
        assert coin_calls == [([s for s in range(1, 25) for _ in coin], list(coin) * 24)]

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

    def test_capacitance_override_runs(self):
        res = reproduce_table1(n_bits=4, c_per_m=50e-12)
        assert len(res.cells) == 6

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

    def test_noise_check_zero_rms_prints_sigma(self, capsys):
        assert cli_main(["noise-check", "--samples", "2000", "--rms", "0"]) == 0
        assert "sample sigma" in capsys.readouterr().out

    def test_compare_models_command(self, capsys, tmp_path):
        for out in ([], ["--out", str(tmp_path)]):
            rc = cli_main(["compare-models", "--bandwidth", "250", "--seed", "3"] + out)
            assert rc == 0
            assert "indistinguishable" in capsys.readouterr().out
        assert len(list(tmp_path.glob("compare_gamma*.csv"))) == 1

    def test_run_command(self, tmp_path, capsys):
        cfg = default_scenario(20, 100.0, n_bits=3, master_seed=12)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.serialize())
        out = tmp_path / "out"
        for argv in ([], ["--out", str(out)]):
            rc = cli_main(["run", "--config", str(path)] + argv)
            assert rc == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["n_bits"] == 3
        assert summary["config"]["output_dir"] == str(out)
        assert {p.name for p in out.iterdir()} == {
            "summary.json", "eve_bits.csv", "eve_summary.json", "bep_records.jsonl",
            "manifest.json"}

    def test_band_alone_sets_the_time_base(self, tmp_path, capsys, monkeypatch):
        # one edit, the band, moves t_s and the solver step with it
        d = default_scenario(20, 100.0, n_bits=3, master_seed=12).to_dict()
        d["protocol"]["bandwidth_hz"] = 500.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        seen, attack = [], scenarios.run_attack

        def run_attack(records, **kwargs):
            seen.append(records)
            return attack(records, **kwargs)

        monkeypatch.setattr(scenarios, "run_attack", run_attack)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert [r.t_s for r in seen] == [1.0 / (4.0 * 500.0)]
        config = json.loads((out / "summary.json").read_text())["config"]
        assert "solver" not in config and "t_s" not in config["protocol"]
        assert config["protocol"]["bandwidth_hz"] == 500.0

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

    def test_missing_config_key_named(self, tmp_path, capsys):
        d = default_scenario(20, 100.0).to_dict()
        del d["cable"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "missing scenario keys: cable"}

    @pytest.mark.parametrize("section", ["protocol", "cable", "defense"])
    def test_unknown_section_key_named(self, section, tmp_path, capsys):
        d = default_scenario(20, 100.0).to_dict()
        d[section]["bep"] = 30
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"unknown {section} keys: bep"}

    @pytest.mark.parametrize("section,value", [("protocol", 3), ("defense", None),
                                               ("cable", [1.0]), ("scenario", [])])
    def test_non_object_section_named(self, section, value, tmp_path, capsys):
        d = default_scenario(20, 100.0).to_dict()
        if section == "scenario":
            d = value
        else:
            d[section] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"{section} must be a JSON object"}

    @pytest.mark.parametrize("command", ["table1", "defenses"])
    def test_negative_seed_named(self, command, capsys):
        rc = cli_main([command, "--bits", "4", "--seed", "-1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "master_seed must be non-negative"}

    def test_defenses_command_smoke(self, capsys, tmp_path):
        for out in ([], ["--out", str(tmp_path)]):
            rc = cli_main(["defenses", "--bits", "8", "--seed", "3"] + out)
            assert rc == 0
            assert "capacitor killer" in capsys.readouterr().out
        report = json.loads((tmp_path / "defenses.json").read_text())
        assert report == reproduce_defenses(master_seed=3, n_bits=8)
