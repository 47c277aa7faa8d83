"""Golden artifact: the documented default-seed outputs, pinned exactly.

``golden_default_seed.json`` holds, for every cell of the six-cell sweep
at 1000 bits, p_E and Eve's guesses on the secure bits ("1" = LH, in bit
order), plus the defense report.  It also holds one random-arrangement
scenario (``conftest.random_arrangement_scenario``): Eve's guesses, p_E,
p_E after each XOR round and the parties' inference errors.  A change
that moves any of them fails here and names the flipped bits.  The runs
are the acceptance suite's (session fixtures in ``conftest.py``), so each
runs once.

Re-record only for a change meant to move these numbers, and list the
flipped bits with it:  PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_default_seed.json")


def guess_string(outcome) -> str:
    return "".join("1" if g == "LH" else "0" for g in outcome.guesses)


def random_row(result) -> dict:
    cfg = result.config
    return {"bep_units": cfg.protocol.bep_units, "length_m": cfg.cable.length_m,
            "n_bits": cfg.n_bits, "p_E": result.p_e, "xor_p_E": result.amplification,
            "n_inference_errors": result.n_inference_errors,
            "guesses": guess_string(result.outcome)}


def snapshot(table1, defenses, random_run) -> dict:
    return {
        "master_seed": table1.master_seed,
        "n_bits": table1.n_bits,
        "table1": [
            {"bep_units": bep, "length_m": length, "p_E": cell.p_e,
             "guesses": guess_string(cell.outcome)}
            for (bep, length), cell in table1.cells.items()
        ],
        "defenses": defenses,
        "random_arrangement": random_row(random_run),
    }


def row_problems(name: str, want: dict, got: dict, outcome) -> list[str]:
    """What differs between a live row and its golden row, naming the
    flipped bits by their index in the exchange."""
    if len(got["guesses"]) != len(want["guesses"]):
        return [f"{name}: {len(got['guesses'])} secure bits, golden {len(want['guesses'])}"]
    problems = []
    flipped = [int(outcome.bit_indices[k])
               for k, (a, b) in enumerate(zip(got["guesses"], want["guesses"])) if a != b]
    if flipped:
        problems.append(f"{name}: {len(flipped)} guesses flipped at bits {flipped}")
    for key in sorted(want.keys() - {"guesses"}):
        if got[key] != want[key]:
            problems.append(f"{name}: {key} {got[key]!r}, golden {want[key]!r}")
    return problems


def test_default_seed_outputs_match_golden(table1, defenses, random_run):
    golden = json.loads(GOLDEN.read_text())
    live = json.loads(json.dumps(snapshot(table1, defenses, random_run)))
    problems = []
    for want, got in zip(golden["table1"], live["table1"]):
        cell = (want["bep_units"], want["length_m"])
        problems += row_problems(f"cell {cell}", want, got, table1.cells[cell].outcome)
    problems += row_problems("random arrangement", golden["random_arrangement"],
                             live["random_arrangement"], random_run.outcome)
    if live["defenses"] != golden["defenses"]:
        problems.append(f"defenses {live['defenses']}, golden {golden['defenses']}")
    if {k: live[k] for k in ("master_seed", "n_bits")} != \
            {k: golden[k] for k in ("master_seed", "n_bits")}:
        problems.append("seed or key length differs from the golden run")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    from conftest import random_arrangement_scenario

    from kljnsim.scenarios import (DEFAULT_MASTER_SEED, reproduce_defenses, reproduce_table1,
                                   run_scenario)

    table1 = reproduce_table1(master_seed=DEFAULT_MASTER_SEED, n_bits=1000)
    defenses = reproduce_defenses(master_seed=DEFAULT_MASTER_SEED, n_bits=1000)
    random_run = run_scenario(random_arrangement_scenario())
    GOLDEN.write_text(json.dumps(snapshot(table1, defenses, random_run), indent=1) + "\n")
