"""The demo scripts, canonical configs and README stay in step with the
library: every name a demo imports from gffforge exists, every config
loads, and README's config-key table and command block are the
harness's.  Nothing here runs a demo."""

import ast
import importlib
from pathlib import Path

import pytest

from gffforge.averaging import DEFAULT_T_GRID, DEFAULT_U_GRID
from gffforge.cli import _COMMANDS, EXPERIMENTS, load_config

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(DEMOS.glob("*.py"))
CONFIGS = sorted((DEMOS / "configs").glob("*.cfg"))


def test_demo_and_config_sets_are_complete():
    assert len(SCRIPTS) == 7
    assert len(CONFIGS) == 6


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_demo_imports_resolve(script):
    tree = ast.parse(script.read_text(), filename=str(script))
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gffforge"
    ]
    assert imports, f"{script.name} imports nothing from gffforge"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{script.name}: {node.module} has no {', '.join(missing)}"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_canonical_config_loads(config):
    cfg = load_config(config.stem, config)
    assert cfg.experiment == config.stem
    assert cfg.output_dir == f"runs/{config.stem}"


def test_readme_key_table_matches_the_harness():
    # README's table of the keys each experiment reads, with defaults, is
    # the harness's own; U and T stand for the default grids
    text = (DEMOS.parent / "README.md").read_text()
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| key |"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.strip("|").split("|"))
    header = [c.strip() for c in rows[0]]
    table = {name: {} for name in header[1:]}
    for row in rows[2:]:
        key, *cells = (c.strip().strip("`") for c in row)
        for name, cell in zip(header[1:], cells):
            if cell:
                table[name][key] = cell
    names = {DEFAULT_U_GRID: "U", DEFAULT_T_GRID: "T"}
    assert table == {
        experiment: {key: names.get(default, str(default)) for key, default in keys.items()}
        for experiment, (_, keys) in EXPERIMENTS.items()
    }
    for name, grid in (("U", DEFAULT_U_GRID), ("T", DEFAULT_T_GRID)):
        assert f"- {name}: `{', '.join(map(str, grid))}`" in lines


def test_readme_command_block_matches_the_parser():
    # every subcommand is one `gffforge <name>` line of README's command
    # block, and every such line names a subcommand
    lines = (DEMOS.parent / "README.md").read_text().splitlines()
    start = lines.index("## Command line")
    fence = [i for i in range(start, len(lines)) if lines[i].startswith("```")][:2]
    block = lines[fence[0] + 1 : fence[1]]
    named = [line.split()[1] for line in block if line.startswith("gffforge ")]
    assert sorted(named) == sorted(_COMMANDS)
