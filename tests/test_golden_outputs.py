"""The golden-output tool: two runs give identical trees with the expected exit codes."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden_outputs.py"

# labels whose command does not exit 0; every other label must
NONZERO_EXITS = {
    "run-quadratic_overstated": 2,       # overstated curvature: a theory check fails
    "compare-quadratic_overstated": 2,
    "moduli-quadratic_origin": 1,        # minimizer at the origin: nothing to sample
    "moduli-least_squares_wide": 1,      # wide matrix: no bounded level set to sample
    "run-powersum_p200": 1,              # p = 200: pair_radius ** p overflows
    "moduli-powersum_p200": 1,           # p = 200: a sampled E overflows
    "run-powersum_huge_center": 1,       # E(0) overflows
    "moduli-powersum_huge_center": 1,
}

REPORT_SUFFIXES = (".report.txt", ".moduli.txt", ".compare.txt")
STATUS_LINES = {"0\n": [b"STATUS: OK"], "2\n": [b"STATUS: VIOLATION"], "1\n": []}


def _load_tool():
    spec = importlib.util.spec_from_file_location("golden_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_golden_outputs_repeat_with_fixed_exit_codes(tmp_path):
    tool = _load_tool()
    first, second = tmp_path / "first", tmp_path / "second"
    tool.run_all(first)
    tool.run_all(second)
    tree = _tree(first)
    assert tree == _tree(second)

    labels = [label for label, _ in tool.commands(tmp_path)]
    assert sorted(p.name for p in first.iterdir()) == sorted(labels)
    codes = {label: (first / label / "exit_code.txt").read_text() for label in labels}
    assert codes == {label: f"{NONZERO_EXITS.get(label, 0)}\n" for label in labels}
    assert set(NONZERO_EXITS) <= set(labels)

    # one STATUS rule for every command: a report's first line is the status
    # its exit code stands for, and a command that exits 1 writes no report
    heads = {label: [] for label in labels}
    for path, data in tree.items():
        label, name = path.split("/")
        if name.endswith(REPORT_SUFFIXES):
            heads[label].append(data.split(b"\n", 1)[0])
    assert heads == {label: STATUS_LINES[codes[label]] for label in labels}

    # a command that completes prints nothing to stderr: no overflow, no
    # "not unique", no other warning on a shipped config
    noisy = {label: tree[f"{label}/stderr.txt"].decode() for label in labels
             if codes[label] != "1\n" and tree[f"{label}/stderr.txt"]}
    assert noisy == {}
