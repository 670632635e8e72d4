"""Rows that repeat in a report are rendered once per call, with their own text.

``render_json`` keeps the text of each mapping it has rendered, keyed by the
indent and the mapping's ``id``, and a report's rows of one shared record are
one object.  ``1``, ``1.0``, ``True``, ``"1"`` and ``np.int64(1)`` compare or
hash alike in places, and rows holding them must still each get their own
text.
"""

import hashlib

import numpy as np

from convexop.scenario import parse_scenario_text, render_json, render_report, run_scenario

VALUES = [1, 1.0, True, "1", np.int64(1)]
TEXTS = ["1", "1", "true", '"1"', "1"]


def rows_text(texts, indent):
    pad = " " * indent
    return ",\n".join(
        f'{pad}  {{\n{pad}    "x": {text}\n{pad}  }}' for text in texts
    )


def test_rows_of_alike_values_keep_their_own_text():
    order = [0, 2, 1, 2, 3, 4, 0, 2, 3, 1, 4, 4, 2]
    rows = [{"x": VALUES[k]} for k in order]
    texts = [TEXTS[k] for k in order]
    assert render_json(rows) == "[\n" + rows_text(texts, 0) + "\n]\n"
    nested = render_json({"a": rows, "b": rows[::-1]})
    assert nested == (
        '{\n  "a": [\n' + rows_text(texts, 2) + "\n  ],\n"
        '  "b": [\n' + rows_text(texts[::-1], 2) + "\n  ]\n}\n"
    )


def test_literal_rows_at_two_indents():
    rows = [{"x": True}, {"x": 1}, {"x": True}, {"x": "1"}, {"x": 1.0}]
    assert render_json(rows) == (
        '[\n  {\n    "x": true\n  },\n  {\n    "x": 1\n  },\n  {\n    "x": true\n  },\n'
        '  {\n    "x": "1"\n  },\n  {\n    "x": 1\n  }\n]\n'
    )
    assert render_json({"k": [{"x": 1}, {"x": True}], "x": True}) == (
        '{\n  "k": [\n    {\n      "x": 1\n    },\n    {\n      "x": true\n    }\n  ],\n'
        '  "x": true\n}\n'
    )


def test_one_row_at_two_indents_in_one_call():
    assert render_json({"a": {"x": 1}, "b": [{"x": 1}, {"x": True}], "c": {"x": True}}) == (
        '{\n  "a": {\n    "x": 1\n  },\n  "b": [\n    {\n      "x": 1\n    },\n'
        '    {\n      "x": true\n    }\n  ],\n  "c": {\n    "x": true\n  }\n}\n'
    )


def test_keys_of_alike_values_keep_their_own_text():
    assert render_json([{1: "a"}, {True: "a"}, {1.0: "a"}, {1: "a"}]) == (
        '[\n  {\n    "1": "a"\n  },\n  {\n    "True": "a"\n  },\n'
        '  {\n    "1.0": "a"\n  },\n  {\n    "1": "a"\n  }\n]\n'
    )


def test_a_row_that_cannot_be_rendered_still_fails():
    for value in (float("nan"), float("inf")):
        try:
            render_json([{"x": 1.0}, {"x": value}])
        except ValueError:
            continue
        raise AssertionError(f"{value} was rendered")


def post_selected_document() -> str:
    """A qutrit under 294 evolve steps and 6 measurements, post-selected."""
    rng = np.random.default_rng(300)
    d = 3
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2.0

    def reals(values):
        return "[" + ", ".join(repr(float(x)) for x in values) + "]"

    def complexes(row):
        return "[" + ", ".join(f"[{float(z.real)!r}, {float(z.imag)!r}]" for z in row) + "]"

    lines = [
        "model: {kind: quantum, d: 3}",
        f"initial: {{pure: {reals(rng.uniform(0.1, 1.0, d))}}}",
        "evolution: {hamiltonian: [" + ", ".join(map(complexes, h)) + "]}",
        "steps:",
    ]
    for k in range(1, 301):
        if k % 50:
            lines.append(f"  - evolve: {{delta: {float(rng.uniform(0.05, 0.5))!r}}}")
        else:
            a = rng.normal(size=(d, d))
            outcome = "unobserved" if k % 100 else '"0"'
            observable = "[" + ", ".join(map(reals, a + a.T)) + "]"
            lines.append(f"  - measure: {{name: m{k}, outcome: {outcome}, "
                         f"observable: {observable}}}")
    lines.append(f"post_selection: {{pure: {reals(rng.uniform(0.1, 1.0, d))}}}")
    return "\n".join(lines) + "\n"


def test_a_post_selected_300_step_report_keeps_its_bytes():
    text = render_report(run_scenario(parse_scenario_text(post_selected_document())))
    assert text.count('"name": "evolve"') == 294
    # the bytes one evolve step at a time gave, rendered row by row
    assert len(text) == 34944
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f0f9095f61163d4a680498f074fd9c8be4298e435b9eb24598bd7f5661f015ec"
    )


def test_one_row_object_at_two_indents_and_twice_in_one_list():
    row = {"x": 1}
    assert render_json({"a": row, "b": [row, {"x": True}, row], "c": row}) == (
        '{\n  "a": {\n    "x": 1\n  },\n  "b": [\n    {\n      "x": 1\n    },\n'
        '    {\n      "x": true\n    },\n    {\n      "x": 1\n    }\n  ],\n'
        '  "c": {\n    "x": 1\n  }\n}\n'
    )
    # one object per alike value, each shared through the list and at two indents
    rows = [{"x": value} for value in VALUES]
    order = [0, 2, 1, 2, 3, 4, 0, 2, 3, 1, 4, 4, 2]
    shared = [rows[k] for k in order]
    texts = [TEXTS[k] for k in order]
    assert render_json({"a": shared, "b": shared[::-1]}) == (
        '{\n  "a": [\n' + rows_text(texts, 2) + "\n  ],\n"
        '  "b": [\n' + rows_text(texts[::-1], 2) + "\n  ]\n}\n"
    )
    assert render_json([shared, shared]) == (
        "[\n  [\n" + rows_text(texts, 2) + "\n  ],\n  [\n" + rows_text(texts, 2) + "\n  ]\n]\n"
    )


def test_a_report_shares_one_row_per_record():
    report = run_scenario(parse_scenario_text(post_selected_document()))
    evolved = [row for row in report.per_step if row["name"] == "evolve"]
    assert len(evolved) == 294 and all(row is evolved[0] for row in evolved)
    measured = [row for row in report.per_step if row["name"] != "evolve"]
    assert len({id(row) for row in measured}) == len(measured) == 7
