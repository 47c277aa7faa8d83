"""Command-line entry points for the built-in experiments.

Subcommands: ``table1`` (six-cell attack sweep), ``defenses`` (shield
drive and XOR compression on the strongest cell), ``compare-models``
(lumped vs ladder cable agreement), ``run --config PATH`` (one scenario
from a JSON file), and ``noise-check`` (generator statistics).

Exit code 0 on success; on failure a machine-readable JSON error object
goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compare import compare_models, write_comparison_csv
from .network import rg58
from .noise import (
    NoiseSpec,
    gaussianity_report,
    generate,
    out_of_band_power_fraction,
    write_gaussianity_csv,
)
from .scenarios import (
    DEFAULT_MASTER_SEED,
    ScenarioConfig,
    reproduce_defenses,
    reproduce_table1,
    run_scenario,
)


def _add_common(parser: argparse.ArgumentParser, seed: int | None = DEFAULT_MASTER_SEED) -> None:
    parser.add_argument("--seed", type=int, default=seed,
                        help="master seed (default %(default)s)" if seed is not None
                        else "master seed (default: the config file's)")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory for result files")


def _cmd_table1(args) -> int:
    result = reproduce_table1(master_seed=args.seed, n_bits=args.bits,
                              output_dir=args.out)
    print(result.format_table())
    return 0


def _cmd_defenses(args) -> int:
    report = reproduce_defenses(master_seed=args.seed, n_bits=args.bits,
                                output_dir=args.out)
    print(f"baseline attack      : p_E = {100 * report['baseline_p_E']:.1f}%")
    print(f"capacitor killer     : p_E = {100 * report['capacitor_killer_p_E']:.1f}%")
    print(f"one XOR round        : p_E = {100 * report['xor_round_1_p_E']:.1f}%")
    print(f"two XOR rounds       : p_E = {100 * report['xor_round_2_p_E']:.1f}%")
    return 0


def _cmd_compare_models(args) -> int:
    cable = rg58(args.length)
    print(f"{'bandwidth':>12} | {'gamma':>8} | {'nrmsd':>10} | verdict")
    print("-" * 52)
    for bw in args.bandwidth:
        report = compare_models(cable, 1000.0, 9000.0, bw, seed=args.seed)
        print(f"{bw:>10.3g} Hz | {report.gamma:>8.3g} | {report.nrmsd:>10.3e} | "
              f"{report.verdict}")
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            write_comparison_csv(report, out / f"compare_gamma{report.gamma:g}.csv")
    return 0


def _cmd_run(args) -> int:
    config = ScenarioConfig.parse(Path(args.config).read_text())
    if args.seed is not None:
        config = ScenarioConfig.from_dict({**config.to_dict(), "master_seed": args.seed})
    if args.out:
        config = ScenarioConfig.from_dict({**config.to_dict(), "output_dir": args.out})
    result = run_scenario(config, dump_waveforms=args.dump_waveforms,
                          dump_netlist=args.dump_netlist)
    print(result.serialize())
    return 0


def _cmd_noise_check(args) -> int:
    spec = NoiseSpec(
        bandwidth_hz=args.bandwidth,
        rms_volts=args.rms,
        duration_s=args.samples * args.dt,
        sample_interval_s=args.dt,
        seed=args.seed,
    )
    w = generate(spec)
    report = gaussianity_report(w, n_bins=args.bins)
    oob = out_of_band_power_fraction(w, args.bandwidth)
    print(f"samples              : {len(w)}")
    print(f"target rms           : {args.rms:.6g} V")
    error = f" ({100 * (report.sample_std / args.rms - 1):+.3f}%)" if args.rms else ""
    print(f"sample sigma         : {report.sample_std:.6g} V{error}")
    print(f"out-of-band fraction : {oob:.3e}")
    print(f"chi2 normality p     : {report.chi2_pvalue:.4f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_gaussianity_csv(report, out / "gaussianity.csv")
        print(f"wrote {out / 'gaussianity.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kljnsim",
        description="Resistor-noise key exchange simulator: cable-capacitance "
                    "leak analysis and countermeasures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="six-cell attack sweep")
    _add_common(p)
    p.add_argument("--bits", type=int, default=1000, help="key length per cell")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("defenses", help="killer and XOR on the strongest cell")
    _add_common(p)
    p.add_argument("--bits", type=int, default=1000)
    p.set_defaults(func=_cmd_defenses)

    p = sub.add_parser("compare-models", help="lumped vs distributed cable")
    _add_common(p)
    p.add_argument("--length", type=float, default=1000.0, help="cable length [m]")
    p.add_argument("--bandwidth", type=float, nargs="+",
                   default=[250e3, 25e3, 250.0], help="noise bandwidths [Hz]")
    p.set_defaults(func=_cmd_compare_models)

    p = sub.add_parser("run", help="run one scenario from a JSON config")
    _add_common(p, seed=None)
    p.add_argument("--config", type=str, required=True, help="scenario JSON path")
    p.add_argument("--dump-waveforms", type=str, default=None,
                   help="write probe waveforms CSV to this path")
    p.add_argument("--dump-netlist", type=str, default=None,
                   help="write the netlist text to this path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("noise-check", help="noise generator statistics")
    _add_common(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--bandwidth", type=float, default=250.0)
    p.add_argument("--rms", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=_cmd_noise_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured failure for scripting
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
