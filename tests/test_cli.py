import json

import pytest

from taitkit.cli import main
from taitkit.codecs import BUNDLED_TABLE

from importlib import resources

from conftest import GRANNY_PD

TABLE_PATH = str(resources.files("taitkit.data").joinpath(BUNDLED_TABLE))


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_invariants_ok(tmp_path):
    out = tmp_path / "report.json"
    code = run(["invariants", "--input", TABLE_PATH, "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report) >= 18
    assert all(entry["pass"] for entry in report)
    names = [entry["name"] for entry in report]
    assert names == sorted(names)


def test_invariants_fail_on_kink(tmp_path):
    table = tmp_path / "kink.json"
    table.write_text(json.dumps([
        {"name": "kink", "pd": [[1, 1, 2, 2]], "tags": {}}]))
    out = tmp_path / "report.json"
    assert run(["invariants", "--input", str(table), "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = [c for c in report[0]["report"] if not c["pass"]]
    assert any(c["check"] == "reduced_no_unit_self_pairing" for c in failed)


def test_invariants_missing_file():
    assert run(["invariants", "--input", "/no/such/file.json"]) == 2


@pytest.mark.parametrize("content", [
    b"\xff\xfe[1]",
    b"[" * 200_000 + b"]" * 200_000,
], ids=["not-utf-8", "nested-past-recursion-limit"])
def test_invariants_unreadable_table(tmp_path, capsys, content):
    table = tmp_path / "table.json"
    table.write_bytes(content)
    assert run(["invariants", "--input", str(table)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("taitkit: cannot load ")


def test_orbit_command(tmp_path):
    out = tmp_path / "orbit.json"
    dot = tmp_path / "orbit.dot"
    code = run(["orbit", "--input", TABLE_PATH, "--name", "3_1",
                "--max-nodes", "50", "--max-depth", "20",
                "--output", str(out), "--dot", str(dot)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["members"]) == 1
    assert not payload["truncated"]
    assert dot.read_text().startswith("graph")


def test_orbit_truncation_exit_code(tmp_path):
    out = tmp_path / "orbit.json"
    code = run(["orbit", "--input", TABLE_PATH, "--name", "8_8",
                "--max-nodes", "1", "--output", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["truncated"]


def test_orbit_unknown_name():
    assert run(["orbit", "--input", TABLE_PATH, "--name", "nope"]) == 2


def test_flype_check_related(capsys):
    assert run(["flype-check", "--input", TABLE_PATH,
                "--a", "8_10", "--b", "8_10-flyped"]) == 0
    assert "Related" in capsys.readouterr().out


def test_flype_check_distinguished(capsys):
    assert run(["flype-check", "--input", TABLE_PATH,
                "--a", "3_1", "--b", "4_1"]) == 0
    assert "DistinguishedByInvariant" in capsys.readouterr().out


def test_flype_check_inconclusive_under_adversarial_limits(capsys):
    code = run(["flype-check", "--input", TABLE_PATH,
                "--a", "8_8", "--b", "8_8-flyped", "--max-nodes", "1"])
    assert code == 3
    assert "NotRelatedWithin" in capsys.readouterr().out


def test_flype_check_related_at_smallest_sufficient_limit(capsys):
    code = run(["flype-check", "--input", TABLE_PATH,
                "--a", "8_8", "--b", "8_8-flyped", "--max-nodes", "2"])
    assert code == 0
    assert "Related" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["orbit", "--name", "8_8", "--max-nodes", "-1"],
    ["orbit", "--name", "8_8", "--max-depth", "-3"],
    ["flype-check", "--a", "8_8", "--b", "8_8-flyped", "--max-nodes", "-1"],
    ["flype-check", "--a", "8_8", "--b", "8_8-flyped", "--max-depth", "-3"],
    ["orbit", "--name", "8_8", "--max-depth", "two"],
])
def test_bad_search_limit_is_usage_error(argv, capsys):
    assert run(argv[:1] + ["--input", TABLE_PATH] + argv[1:]) == 2
    assert "non-negative integer" in capsys.readouterr().err


def non_alternating_table(tmp_path):
    """The granny knot with crossing 0 switched, next to the trefoil."""
    table = tmp_path / "mixed.json"
    table.write_text(json.dumps([
        {"name": "switched", "pd": [[4, 2, 5, 1]] + [list(t) for t in GRANNY_PD[1:]],
         "tags": {}},
        {"name": "3_1", "pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], "tags": {}},
    ]))
    return str(table)


@pytest.mark.parametrize("argv", [
    ["orbit", "--name", "switched"],
    ["flype-check", "--a", "switched", "--b", "3_1"],
])
def test_non_alternating_is_input_error(tmp_path, capsys, argv):
    table = non_alternating_table(tmp_path)
    assert run(argv[:1] + ["--input", table] + argv[1:]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("taitkit: ")


def test_invariants_non_alternating_reports_precondition(tmp_path):
    out = tmp_path / "report.json"
    table = non_alternating_table(tmp_path)
    assert run(["invariants", "--input", table, "--output", str(out)]) == 1
    report = {entry["name"]: entry for entry in json.loads(out.read_text())}
    assert report["3_1"]["pass"]
    assert report["switched"]["report"][0]["check"] == "preconditions"
