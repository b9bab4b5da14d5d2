"""The README's references to the library: each backticked ``name(args)``
that names a gutkin function lists its leading parameters, as named in the
function's signature; and each CSV header a command writes is the column
list the README gives for it."""

import importlib
import inspect
import json
import pathlib
import re

import pytest

from gutkin.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("support_geometry", "billiard2d", "billiard_nd", "geodesic_chords", "cli")
# a code span that is a call: a dotted name, then its arguments in parentheses
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(([^`]*)\)`")
PARAMETER = re.compile(r"\*{0,2}[A-Za-z_]\w*")


def gutkin_functions(name: str) -> list:
    """The functions a README name refers to: gutkin.<module>.<function>
    for a dotted name, else every module-level function of that name."""
    if name.startswith("gutkin."):
        module, _, attr = name.rpartition(".")
        found = [getattr(importlib.import_module(module), attr, None)]
    else:
        found = [getattr(importlib.import_module(f"gutkin.{module}"), name, None)
                 for module in MODULES]
    return [f for f in found if inspect.isfunction(f)]


def signature_names(function) -> list[str]:
    stars = {inspect.Parameter.VAR_POSITIONAL: "*", inspect.Parameter.VAR_KEYWORD: "**"}
    return [stars.get(p.kind, "") + p.name
            for p in inspect.signature(function).parameters.values()]


def readme_references() -> list[tuple[str, list[str]]]:
    """(name, parameter names) of every README call span that names a gutkin
    function; a default, as in ``source=None``, is dropped."""
    refs = []
    for name, args in CALL.findall(README.read_text(encoding="utf-8")):
        if gutkin_functions(name):
            refs.append((name, [a.split("=")[0].strip() for a in args.split(",") if a.strip()]))
    return refs


def test_references_found():
    names = {name for name, _ in readme_references()}
    assert {"solve_gutkin_angles", "support_grid", "orbit_nd", "gutkin.cli.main"} <= names


@pytest.mark.parametrize("name, params", readme_references(),
                         ids=lambda v: v if isinstance(v, str) else ",".join(v))
def test_parameters_match_signature(name, params):
    assert all(PARAMETER.fullmatch(p) for p in params), (
        f"`{name}(...)` in README.md must list parameter names, got {params}")
    signatures = [signature_names(f) for f in gutkin_functions(name)]
    assert any(s[:len(params)] == params for s in signatures), (
        f"`{name}({', '.join(params)})` in README.md does not match {signatures}")


def readme_columns() -> dict[str, str]:
    """command -> the column list that README's "Their columns" block gives it."""
    text = README.read_text(encoding="utf-8")
    block = text[text.index("Their columns, one row per sample:"):]
    return dict(re.findall(r"^\* `([a-z-]+)[^`]*`: `([^`]+)`", block, re.MULTILINE))


# small runs of each command that writes a CSV; {table}, {spec} and {out}
# are filled in per test
CSV_RUNS = {
    "orbit": ["orbit", "--table", "{table}", "--p", "0.3", "--phi", "0.2", "--steps", "2"],
    "phase-portrait": ["phase-portrait", "--table", "{table}", "--steps", "2"],
    "ellipsoid": ["ellipsoid", "--spec", "{spec}", "--steps", "2"],
    "chords": ["chords", "--surface", "sphere", "--delta", "0.5", "--length", "0.01"],
}


@pytest.mark.parametrize("command, d", [("orbit", 3), ("phase-portrait", 3), ("ellipsoid", 3),
                                        ("ellipsoid", 5), ("chords", 3)])
def test_csv_header_matches_readme(tmp_path, command, d):
    table, spec, out = tmp_path / "t.json", tmp_path / "e.json", tmp_path / "out.csv"
    assert main(["table", "--n", "5", "--a0", "1", "--an", "0.05", "--out", str(table)]) == 0
    spec.write_text(json.dumps({"d": d, "A": [[float(i == j) for j in range(d)] for i in range(d)]}))
    subs = {"{table}": str(table), "{spec}": str(spec)}
    assert main([subs.get(a, a) for a in CSV_RUNS[command]] + ["--out", str(out)]) == 0
    # README writes a run of d numbered columns as X_1..X_d
    want = re.sub(r"(\w+)_1\.\.\1_d", lambda m: ",".join(f"{m[1]}_{i}" for i in range(1, d + 1)),
                  readme_columns()[command])
    assert out.read_text().splitlines()[0] == want
