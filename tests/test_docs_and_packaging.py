"""Documentation and packaging sanity: the docs reference real code."""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).parents[1]


class TestDocsExist:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
        "docs/architecture.md", "docs/calibration.md", "docs/conformance.md",
        "docs/fleet.md", "docs/paper_map.md", "docs/service.md",
        "docs/static_analysis.md",
        "examples/README.md",
    ])
    def test_file_present_and_nonempty(self, name):
        path = REPO / name
        assert path.exists(), name
        assert path.stat().st_size > 200, name

    def test_design_confirms_paper_identity(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "10.1109/IPDPSW.2015.70" in text
        assert "No title collision" in text

    def test_experiments_md_reports_all_claims_ok(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        match = re.search(r"\*\*(\d+)/(\d+) claims reproduced\*\*", text)
        assert match is not None
        assert match.group(1) == match.group(2)
        assert int(match.group(2)) >= 45


class TestPaperMapReferencesRealModules:
    def test_every_mapped_module_imports(self):
        text = (REPO / "docs" / "paper_map.md").read_text()
        modules = set(re.findall(r"`((?:specs|topology|power|pcu|cstates|"
                                 r"memory|workloads|instruments|tuning|"
                                 r"cpufreq|experiments)/\w+\.py)`", text))
        assert len(modules) >= 15
        for rel in modules:
            dotted = "repro." + rel[:-3].replace("/", ".")
            importlib.import_module(dotted)

    def test_every_mapped_test_file_exists(self):
        text = (REPO / "docs" / "paper_map.md").read_text()
        files = set(re.findall(r"`((?:tests|benchmarks)/test_\w+\.py)`",
                               text))
        assert len(files) >= 15
        for rel in files:
            assert (REPO / rel).exists(), rel


class TestLayerDiagram:
    def test_diagram_matches_configured_layers(self):
        """The mermaid layer map in static_analysis.md draws the
        [[tool.repro-lint.layer]] tables: same layers in the same order,
        each with its packages, each on top of the one below."""
        from repro.lint import LintConfig

        text = (REPO / "docs" / "static_analysis.md").read_text()
        diagram = re.search(r"```mermaid\n(.*?)```", text, re.S).group(1)
        nodes = re.findall(r'^  (\w+)\["(\w+)\\n(.*)"\]$', diagram, re.M)
        layers = LintConfig.load(REPO).layers
        assert [(title, tuple("repro." + p for p in packages.split(" · ")))
                for _, title, packages in nodes] == layers
        names = [name for name, _ in layers]
        assert [node for node, _, _ in nodes] == names
        edges = re.findall(r"^  (\w+) --> (\w+)$", diagram, re.M)
        assert edges == list(zip(names[1:], names[:-1]))


class TestPackaging:
    def test_console_scripts_resolve(self):
        import tomllib

        config = tomllib.loads((REPO / "pyproject.toml").read_text())
        scripts = config["project"]["scripts"]
        assert len(scripts) == 9
        for target in scripts.values():
            module, func = target.split(":")
            mod = importlib.import_module(module)
            assert callable(getattr(mod, func))

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_consistent(self):
        import tomllib

        import repro

        config = tomllib.loads((REPO / "pyproject.toml").read_text())
        assert repro.__version__ == config["project"]["version"]


def test_documented_run_paper_flags_exist():
    """Every ``--flag`` the README, docs or Makefile pass to
    ``scripts/run_paper.py`` is one its ``--help`` lists."""
    import os
    import subprocess
    import sys

    sources = [REPO / "README.md", REPO / "Makefile",
               *sorted((REPO / "docs").glob("*.md"))]
    documented = set()
    for path in sources:
        text = path.read_text().replace("\\\n", " ")  # join continuations
        for args in re.findall(r"scripts/run_paper\.py([^`\n]*)", text):
            documented.update(re.findall(r"(?<![\w-])--[a-z][\w-]*",
                                         args.split("#")[0]))
    assert "--chaos" in documented
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    listed = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_paper.py"), "--help"],
        capture_output=True, text=True, env=env, check=True).stdout
    missing = sorted(flag for flag in documented
                     if not re.search(rf"(?<![\w-]){flag}(?![\w-])", listed))
    assert not missing, f"documented but not accepted: {missing}"


HEAVY_DEPS = ("scipy", "networkx", "pytest", "_pytest")

_RUN_PATHS = {
    "import repro": "import repro",
    **{module: f"import {module}" for module in (
        "repro.fleet.cli", "repro.fleet.worker", "repro.service.cli",
        "repro.service.core", "repro.tools.pepcctl")},
    # the way perfbench loads it
    "scripts/run_paper.py": (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('run_paper', "
        f"{str(REPO / 'scripts' / 'run_paper.py')!r})\n"
        "spec.loader.exec_module(importlib.util.module_from_spec(spec))"),
    # fig1's builder, the only one that reaches the die topology
    "fig1's builder": (
        "from repro.experiments.catalog import CATALOG\n"
        "fig1 = CATALOG['fig1']\n"
        "fig1.run(**fig1.default)"),
}


def test_run_paths_import_no_heavy_deps():
    """No run path pays for scipy, networkx or pytest at start-up, and
    fig1's builder not even while it runs: the Brent solve is
    ``repro.util.roots``, the die's hop counts are a breadth-first
    search (networkx loads only inside ``Die.to_graph`` and
    ``ring_path``), and run_paper writes its artifacts without the
    benchmark conftest."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    report = f"import sys; print(sorted(set({HEAVY_DEPS!r}) & set(sys.modules)))"
    loaded = {
        path: subprocess.run(
            [sys.executable, "-c", f"{code}\n{report}"], capture_output=True,
            text=True, env=env, check=True).stdout.strip().splitlines()[-1]
        for path, code in _RUN_PATHS.items()}
    assert loaded == {path: "[]" for path in _RUN_PATHS}
