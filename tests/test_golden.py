"""Golden artifact: the documented default-seed outputs, pinned exactly.

``golden_default_seed.json`` holds, for every cell of the six-cell sweep
at 1000 bits, p_E and Eve's guesses on the secure bits ("1" = LH, in bit
order), plus the defense report.  A change that moves any of them fails
here and names the flipped bits.  The sweep is the acceptance suite's
(session fixtures in ``conftest.py``), so it runs once.

Re-record only for a change meant to move these numbers, and list the
flipped bits with it:  PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_default_seed.json")


def guess_string(outcome) -> str:
    return "".join("1" if g == "LH" else "0" for g in outcome.guesses)


def snapshot(table1, defenses) -> dict:
    return {
        "master_seed": table1.master_seed,
        "n_bits": table1.n_bits,
        "table1": [
            {"bep_units": bep, "length_m": length, "p_E": cell.p_e,
             "guesses": guess_string(cell.outcome)}
            for (bep, length), cell in table1.cells.items()
        ],
        "defenses": defenses,
    }


def test_default_seed_outputs_match_golden(table1, defenses):
    golden = json.loads(GOLDEN.read_text())
    live = json.loads(json.dumps(snapshot(table1, defenses)))
    problems = []
    for want, got in zip(golden["table1"], live["table1"]):
        cell = (want["bep_units"], want["length_m"])
        outcome = table1.cells[cell].outcome
        if len(got["guesses"]) != len(want["guesses"]):
            problems.append(f"cell {cell}: {len(got['guesses'])} secure bits, "
                            f"golden {len(want['guesses'])}")
            continue
        flipped = [int(outcome.bit_indices[k])
                   for k, (a, b) in enumerate(zip(got["guesses"], want["guesses"])) if a != b]
        if flipped:
            problems.append(f"cell {cell}: {len(flipped)} guesses flipped at bits {flipped}")
        if got["p_E"] != want["p_E"]:
            problems.append(f"cell {cell}: p_E {got['p_E']!r}, golden {want['p_E']!r}")
    if live["defenses"] != golden["defenses"]:
        problems.append(f"defenses {live['defenses']}, golden {golden['defenses']}")
    if {k: live[k] for k in ("master_seed", "n_bits")} != \
            {k: golden[k] for k in ("master_seed", "n_bits")}:
        problems.append("seed or key length differs from the golden run")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    from kljnsim.scenarios import DEFAULT_MASTER_SEED, reproduce_defenses, reproduce_table1

    table1 = reproduce_table1(master_seed=DEFAULT_MASTER_SEED, n_bits=1000)
    defenses = reproduce_defenses(master_seed=DEFAULT_MASTER_SEED, n_bits=1000)
    GOLDEN.write_text(json.dumps(snapshot(table1, defenses), indent=1) + "\n")
