"""Experiment orchestration, persistence, and the reproducibility surface.

A scenario bundles the protocol operating point, cable, solver settings,
key length, optional defense, and a master seed; everything a run emits
is a pure function of that bundle.  The two built-in campaigns are the
six-cell attack sweep (three BEP durations times two cable lengths) and
the defense comparison on the strongest cell.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attack import AttackOutcome, attack_summary, run_attack, write_attack_csv
from .network import CableSpec, apply_capacitor_killer, build_distributed, rg58
from .privacy import empirical_amplification
from .protocol import (
    PROBES,
    BepRecords,
    KeyExchangeSession,
    ProtocolConfig,
    derive_seed,
    expected_levels,
    infer_remote_resistance,
)
from .solver import SolverConfig

# Default master seed for the built-in campaigns; results are
# deterministic given the seed, so documented numbers reproduce exactly.
DEFAULT_MASTER_SEED = 20250809

# The built-in six-cell sweep: (bep_units, cable length in meters).
TABLE1_CELLS = [(20, 100.0), (20, 1000.0), (50, 100.0), (50, 1000.0),
                (100, 100.0), (100, 1000.0)]


@dataclass(frozen=True)
class DefenseSpec:
    """Countermeasure selection: none, shield drive, XOR rounds, or both."""

    kind: str = "none"  # none | capacitor_killer | xor | both
    tap: str = "alice"
    xor_rounds: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "capacitor_killer", "xor", "both"):
            raise ValueError(f"unknown defense kind {self.kind!r}")
        if self.kind in ("xor", "both") and self.xor_rounds < 1:
            raise ValueError("xor defense needs xor_rounds >= 1")
        if self.tap not in ("alice", "bob"):
            raise ValueError("tap must be 'alice' or 'bob'")

    @property
    def use_killer(self) -> bool:
        return self.kind in ("capacitor_killer", "both")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one attack experiment."""

    protocol: ProtocolConfig
    cable: CableSpec
    solver: SolverConfig
    n_bits: int = 1000
    defense: DefenseSpec = field(default_factory=DefenseSpec)
    master_seed: int = DEFAULT_MASTER_SEED
    output_dir: str | None = None

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown scenario keys: {', '.join(unknown)}")
        return cls(
            protocol=ProtocolConfig(**d["protocol"]),
            cable=CableSpec(**d["cable"]),
            solver=SolverConfig(**d["solver"]),
            n_bits=d.get("n_bits", 1000),
            defense=DefenseSpec(**d.get("defense", {})),
            master_seed=d.get("master_seed", DEFAULT_MASTER_SEED),
            output_dir=d.get("output_dir"),
        )

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def parse(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


def default_scenario(
    bep_units: int,
    length_m: float,
    n_bits: int = 1000,
    master_seed: int = DEFAULT_MASTER_SEED,
    defense: DefenseSpec | None = None,
    c_per_m: float | None = None,
    output_dir: str | None = None,
) -> ScenarioConfig:
    """Canonical operating point: 1k/9k resistors, 0.25 kHz band, RG58."""
    protocol = ProtocolConfig(bep_units=bep_units)
    cable = rg58(length_m)
    if c_per_m is not None:
        cable = dataclasses.replace(cable, c_per_m=c_per_m)
    solver = SolverConfig(internal_step_s=protocol.t_s / 32.0)
    return ScenarioConfig(
        protocol=protocol,
        cable=cable,
        solver=solver,
        n_bits=n_bits,
        defense=defense or DefenseSpec(),
        master_seed=master_seed,
        output_dir=output_dir,
    )


def default_warmup_units(protocol: ProtocolConfig, cable: CableSpec) -> int:
    """Settling interval: five time constants of the slowest cable pole,
    with a floor that also covers the cold-start numerical transient."""
    c_total = cable.c_per_m * cable.length_m
    if c_total <= 0:
        return 10
    tau = (protocol.r_high / 2.0) * c_total
    return max(int(math.ceil(5.0 * tau / protocol.t_s)), 10)


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    config: ScenarioConfig
    p_e: float
    epsilon: float
    binomial_std: float
    amplification: list[float]
    wall_clock_s: float
    factorization_residual: float
    n_secure: int
    n_inference_errors: int
    outcome: AttackOutcome

    def summary_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "p_E": self.p_e,
            "epsilon": self.epsilon,
            "binomial_std": self.binomial_std,
            "amplification": self.amplification,
            "n_bits": self.config.n_bits,
            "n_secure": self.n_secure,
            "n_inference_errors": self.n_inference_errors,
            "factorization_residual": self.factorization_residual,
            "wall_clock_s": self.wall_clock_s,
        }

    def serialize(self) -> str:
        return json.dumps(self.summary_dict(), indent=2, sort_keys=True)


def run_scenario(
    config: ScenarioConfig,
    dump_waveforms: str | None = None,
    dump_netlist: str | None = None,
) -> ScenarioResult:
    """End to end: build netlist, exchange bits, attack, amplify, persist."""
    t_start = time.perf_counter()

    def builder(r_alice: float, r_bob: float):
        netlist = build_distributed(r_alice, r_bob, config.cable)
        if config.defense.use_killer:
            netlist = apply_capacitor_killer(netlist, config.defense.tap)
        return netlist

    if dump_netlist:
        nl = builder(config.protocol.r_low, config.protocol.r_high)
        Path(dump_netlist).write_text(nl.to_text())

    rounds = config.defense.xor_rounds if config.defense.kind in ("xor", "both") else 0
    if config.n_bits < 2**rounds:
        raise ValueError(f"{config.n_bits} bits cannot support {rounds} XOR rounds")
    session = KeyExchangeSession(
        builder, config.protocol, config.solver, master_seed=config.master_seed
    )
    # Attack and XOR rounds see the secure bits only; count them before
    # simulating, from the draws the exchange then uses.
    arrangements = [session.draw_arrangement(i) for i in range(config.n_bits)]
    n_secure = sum(a != b for a, b in arrangements)
    if n_secure == 0:
        raise ValueError(f"no secure bits among {config.n_bits}")
    supported = min(rounds, n_secure.bit_length() - 1)
    if supported < rounds:
        warnings.warn(
            f"{n_secure} secure bits support {supported} of {rounds} XOR rounds; "
            "the rest are reported as NaN",
            RuntimeWarning,
            stacklevel=2,
        )

    warmup = default_warmup_units(config.protocol, config.cable)
    records = session.run_bits(config.n_bits, warmup_units=warmup, arrangements=arrangements)

    outcome = run_attack(records, tie_seed_base=config.master_seed)
    amplification = empirical_amplification(outcome, supported) if supported else []
    amplification += [math.nan] * (rounds - supported)
    # Bob's choice as Alice infers it from her own resistor and readings.
    own = np.where(records.alice_choice == "L", config.protocol.r_low, config.protocol.r_high)
    alice_infers_bob = infer_remote_resistance(
        own, records.mean_sq_u, records.mean_sq_i, expected_levels(config.protocol)
    )

    result = ScenarioResult(
        config=config,
        p_e=outcome.p_e,
        epsilon=outcome.epsilon,
        binomial_std=outcome.binomial_std,
        amplification=amplification,
        wall_clock_s=time.perf_counter() - t_start,
        factorization_residual=session.factorization_residual,
        n_secure=n_secure,
        n_inference_errors=int(np.count_nonzero(alice_infers_bob != records.bob_choice)),
        outcome=outcome,
    )

    if dump_waveforms:
        _write_waveforms_csv(records, dump_waveforms)
    if config.output_dir:
        persist_scenario(result, records, alice_infers_bob, Path(config.output_dir))
    return result


def _write_waveforms_csv(records: BepRecords, path) -> None:
    t = records.start_time_s[:, None] + np.arange(records.probes.shape[-1]) * records.t_s
    columns = [t] + [records.probes[:, k] for k in range(len(PROBES))]
    np.savetxt(path, np.stack([c.ravel() for c in columns], axis=1), fmt="%.9g",
               delimiter=",", header="t,U_cha,I_cha,U_chb,I_chb", comments="")


def persist_scenario(
    result: ScenarioResult, records: BepRecords, alice_infers_bob: np.ndarray, out_dir: Path
) -> None:
    """Write summary JSON, per-bit attack CSV, and per-BEP JSON lines."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(result.serialize() + "\n")
    write_attack_csv(result.outcome, out_dir / "eve_bits.csv")
    (out_dir / "eve_summary.json").write_text(
        json.dumps(attack_summary(result.outcome), indent=2, sort_keys=True) + "\n"
    )

    columns = {
        "bit": records.bit_index,
        "alice_choice": records.alice_choice,
        "bob_choice": records.bob_choice,
        "mean_sq_u": records.mean_sq_u,
        "mean_sq_i": records.mean_sq_i,
        "classification": np.where(records.secure, "secure", "discard"),
        "alice_infers_bob": alice_infers_bob,
    }
    rows = zip(*(c.tolist() for c in columns.values()))
    with open(out_dir / "bep_records.jsonl", "w") as f:
        f.writelines(json.dumps(dict(zip(columns, row)), sort_keys=True) + "\n" for row in rows)

    manifest = {
        "files": sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json"),
        "n_bits": result.config.n_bits,
        "master_seed": result.config.master_seed,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


@dataclass
class Table1Result:
    """The six-cell sweep with per-cell binomial uncertainty."""

    cells: dict[tuple[int, float], ScenarioResult]
    master_seed: int
    n_bits: int

    def p_e(self, bep_units: int, length_m: float) -> float:
        return self.cells[(bep_units, length_m)].p_e

    def rows(self) -> list[dict]:
        out = []
        for bep in (20, 50, 100):
            row = {
                "bep_units": bep,
                "bits_per_second": 1.0 / (bep * 1e-3),
            }
            for length in (100.0, 1000.0):
                cell = self.cells[(bep, length)]
                row[f"p_E_{int(length)}m"] = cell.p_e
                row[f"std_{int(length)}m"] = cell.binomial_std
            out.append(row)
        return out

    def format_table(self) -> str:
        lines = [
            "Eve's success rate p_E with "
            f"{self.n_bits}-bit keys (seed {self.master_seed})",
            f"{'BEP duration':>12} | {'bits/s':>6} | {'100 m cable':>16} | {'1000 m cable':>16}",
            "-" * 60,
        ]
        for row in self.rows():
            c100 = f"{100 * row['p_E_100m']:.1f}% ± {100 * row['std_100m']:.1f}"
            c1000 = f"{100 * row['p_E_1000m']:.1f}% ± {100 * row['std_1000m']:.1f}"
            lines.append(
                f"{row['bep_units']:>12} | {row['bits_per_second']:>6.0f} | "
                f"{c100:>16} | {c1000:>16}"
            )
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("bep_units,bits_per_second,p_E_100m,std_100m,p_E_1000m,std_1000m\n")
            for row in self.rows():
                f.write(
                    f"{row['bep_units']},{row['bits_per_second']:.0f},"
                    f"{row['p_E_100m']:.6f},{row['std_100m']:.6f},"
                    f"{row['p_E_1000m']:.6f},{row['std_1000m']:.6f}\n"
                )


def reproduce_table1(
    master_seed: int = DEFAULT_MASTER_SEED,
    n_bits: int = 1000,
    output_dir: str | None = None,
    c_per_m: float | None = None,
) -> Table1Result:
    """Run the six-cell sweep with the canonical defaults.

    Per-cell seeds derive from the master seed by cell index, so the
    cells may be computed in any order (or concurrently) with identical
    results.
    """
    cells: dict[tuple[int, float], ScenarioResult] = {}
    for idx, (bep, length) in enumerate(TABLE1_CELLS):
        sub_dir = None
        if output_dir:
            sub_dir = str(Path(output_dir) / f"bep{bep}_len{int(length)}")
        config = default_scenario(
            bep_units=bep,
            length_m=length,
            n_bits=n_bits,
            master_seed=derive_seed(master_seed, 1000 + idx),
            c_per_m=c_per_m,
            output_dir=sub_dir,
        )
        cells[(bep, length)] = run_scenario(config)
    result = Table1Result(cells=cells, master_seed=master_seed, n_bits=n_bits)
    if output_dir:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.to_csv(out / "table1.csv")
        (out / "table1.txt").write_text(result.format_table() + "\n")
    return result


def reproduce_defenses(
    master_seed: int = DEFAULT_MASTER_SEED,
    n_bits: int = 1000,
    output_dir: str | None = None,
) -> dict:
    """Strongest attack cell three ways: shield drive, one XOR, two XORs."""
    base_cfg = default_scenario(
        bep_units=100,
        length_m=1000.0,
        n_bits=n_bits,
        master_seed=derive_seed(master_seed, 2000),
        defense=DefenseSpec(kind="xor", xor_rounds=2),
    )
    base = run_scenario(base_cfg)

    killer_cfg = default_scenario(
        bep_units=100,
        length_m=1000.0,
        n_bits=n_bits,
        master_seed=derive_seed(master_seed, 2001),
        defense=DefenseSpec(kind="capacitor_killer"),
    )
    killer = run_scenario(killer_cfg)

    report = {
        "baseline_p_E": base.p_e,
        "capacitor_killer_p_E": killer.p_e,
        "xor_round_1_p_E": base.amplification[0],
        "xor_round_2_p_E": base.amplification[1],
        "n_bits": n_bits,
        "master_seed": master_seed,
    }
    if output_dir:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "defenses.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    return report
