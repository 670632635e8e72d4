"""The first schema violation in a long list or a large matrix, pinned word
for word.  Lists and matrix rows test all their entries first and walk them
one by one, with a path for each, only to report a failure.  These documents
put the bad entry deep inside, after many good ones: the report must name the
first violation in document order, as a walk over every entry does."""

import pytest

from convexop.errors import ScenarioSchemaError
from convexop.scenario import parse_scenario_text

N = 1024
CLASSICAL = "model: {kind: classical, n: %d, mu: [%s]}\ninitial: {values: [%s]}\n"
QUANTUM = "model: {kind: quantum, d: 8}\ninitial: {pure: [1, 0, 0, 0, 0, 0, 0, 0]}\n"


def classical(mu=None, values=None, steps=" []\n"):
    mu = mu or ["1"] * N
    values = values or ["1.0"] * N
    return CLASSICAL % (N, ", ".join(mu), ", ".join(values)) + "steps:" + steps


def subset(bad: dict) -> str:
    """A 1,024-entry subset whose entries at the keys of ``bad`` are replaced."""
    entries = [bad.get(k, str(k)) for k in range(N)]
    return classical(steps="\n  - measure: {name: m, outcome: in, subset: [%s]}\n"
                     % ", ".join(entries))


def grid(rows: int = 8, width: int = 8) -> list:
    """Rows of good complex entries: reals and [re, im] pairs."""
    return [["[0.5, -0.5]" if (r + c) % 3 else "1.0" for c in range(width)]
            for r in range(rows)]


def observable(rows: list) -> str:
    text = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return QUANTUM + "steps:\n  - measure: {name: m, outcome: '0', observable: [%s]}\n" % text


def replaced(rows: list, r: int, c: int, entry: str) -> list:
    rows = [list(row) for row in rows]
    rows[r][c] = entry
    return rows


def shortened(rows: list, r: int) -> list:
    return rows[:r] + [rows[r][:-1]] + rows[r + 1:]


def cycles(bad_at: int, bad: str) -> str:
    quarter = [[str(k) for k in range(lo, lo + N // 4)] for lo in range(0, N, N // 4)]
    quarter[2][bad_at] = bad
    text = ", ".join("[" + ", ".join(cycle) + "]" for cycle in quarter)
    return classical().replace("steps:", "evolution: {permutation: [%s]}\nsteps:" % text)


OBS = "steps[0].measure.observable"

FIRST_VIOLATIONS = [
    (subset({900: "true"}), "steps[0].measure.subset[900]: expected an integer"),
    (subset({900: "1.5"}), "steps[0].measure.subset[900]: expected an integer"),
    (subset({900: '"3"'}), "steps[0].measure.subset[900]: expected an integer"),
    (subset({900: "true", 901: "1.5", 902: '"3"'}),
     "steps[0].measure.subset[900]: expected an integer"),
    (subset({1023: "1.5", 1000: "true"}),
     "steps[0].measure.subset[1000]: expected an integer"),
    (observable(replaced(grid(), 3, 7, "[1.0, .inf]")),
     f"{OBS}[3][7][1]: expected a finite number"),
    (observable(replaced(grid(), 3, 7, "[.nan, x]")),
     f"{OBS}[3][7][0]: expected a finite number"),
    (observable(replaced(grid(), 6, 5, "[1.0, 2.0, 3.0]")),
     f"{OBS}[6][5]: complex entries are [re, im] pairs"),
    (observable(replaced(replaced(grid(), 6, 5, "[1.0, 2.0, 3.0]"), 6, 2, "x")),
     f"{OBS}[6][2]: expected a real number"),
    (observable(shortened(grid(12), 11)), f"{OBS}[11]: rows have unequal lengths"),
    (observable(shortened(replaced(grid(12), 11, 0, "x"), 11)),
     f"{OBS}[11]: rows have unequal lengths"),
    (observable(shortened(replaced(grid(12), 4, 6, "[1]"), 11)),
     f"{OBS}[4][6]: complex entries are [re, im] pairs"),
    (classical(values=["1.0"] * 700 + [".nan"] + ["1.0"] * (N - 701)),
     "initial.values[700]: expected a finite number"),
    (classical(mu=["1"] * 5 + [str(10**400)] + ["1"] * (N - 6)),
     "model.mu[5]: expected a finite number"),
    (cycles(100, "1.5"), "evolution.permutation[2][100]: expected an integer"),
]


@pytest.mark.parametrize("text, message", FIRST_VIOLATIONS)
def test_first_violation_is_reported(text, message):
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario_text(text)
    assert str(info.value) == message
