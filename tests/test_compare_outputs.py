"""The report of tools/compare_outputs.py on synthetic CLI outputs."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)
summarize = compare_outputs.summarize

CSV = """# subcommand: fisher-scan
# f_zero: 16.0
coupling,fisher
0.0,16.0
0.5,3.25
1.0,0.125
"""


def test_identical_outputs_have_no_difference():
    assert summarize(CSV, CSV) == (0, 0.0, [])


def test_csv_cells_are_counted_with_their_largest_relative_difference():
    tree = CSV.replace("3.25", "3.2500000000000004").replace("0.125", "0.12500000000000003")
    cells, largest, lines = summarize(CSV, tree)
    assert (cells, lines) == (2, [])
    assert largest == pytest.approx(2.4e-16, rel=0.1)
    # a meta line's number is a cell too; -0.0 and 0.0 differ by nothing
    tree = CSV.replace("f_zero: 16.0", "f_zero: 16.5").replace("\n0.0,", "\n-0.0,")
    cells, largest, lines = summarize(CSV, tree)
    assert (cells, largest, lines) == (2, 0.5 / 16.5, [])


def test_json_numbers_and_other_lines():
    base = {"meta": {"probe": "fock(2,1,1)", "f_zero": 16.0}, "rows": [[0.0, 16.0], [0.5, 1e-300]]}
    tree = {"meta": {"probe": "fock(2,1,2)", "f_zero": 16.0}, "rows": [[0.0, 16.0], [0.5, 3e-300]]}
    a, b = json.dumps(base, indent=2), json.dumps(tree, indent=2)
    cells, largest, lines = summarize(a, b)
    # the probe label's digits are numbers too: "2,1,1" and "2,1,2" differ in one
    assert cells == 2
    assert largest == pytest.approx(2.0 / 3.0)
    assert lines == []
    # text that differs is listed with its line number
    cells, largest, lines = summarize(a, b.replace("fock", "noisy"))
    assert cells == 1
    assert lines == [(3, '    "probe": "fock(2,1,1)",', '    "probe": "noisy(2,1,2)",')]


def test_lines_only_one_side_has_are_listed():
    cells, _, lines = summarize(CSV, CSV + "1.5,0.0625\n")
    assert cells == 0
    assert lines == [(7, "<end>", "1.5,0.0625")]
    cells, _, lines = summarize("error: bad\n", CSV)
    assert lines[0] == (1, "error: bad", "# subcommand: fisher-scan")
    assert len(lines) == len(CSV.splitlines())


def test_a_revision_that_cannot_be_exported_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        compare_outputs.main(["no-such-revision-anywhere"])
    assert exc.value.code == 2
    assert "cannot export src/" in capsys.readouterr().err


def test_every_corpus_config_names_a_fixture():
    operands = set()
    for argv in compare_outputs.read_corpus():
        for i, arg in enumerate(argv):
            if arg == "--config":
                operands.add(argv[i + 1])
            elif arg.startswith("--config="):
                operands.add(arg.removeprefix("--config="))
    fixtures = {path.name for path in compare_outputs.CONFIGS.glob("*.json")}
    # the one operand left out on purpose: reading it fails with exit 3
    assert "no-such-config.json" in operands
    assert "no-such-config.json" not in fixtures
    assert operands - {"no-such-config.json"} <= fixtures
