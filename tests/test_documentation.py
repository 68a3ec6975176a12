"""Consistency checks between the documentation and the repository contents.

These tests keep README.md, DESIGN.md and EXPERIMENTS.md honest: every
benchmark or example they reference must exist, every name README's code
imports from ``repro`` must still be there, and the per-experiment index
must cover every benchmark file that exists.  They also hold the test-only
oracle boundary: nothing under ``src/`` may import ``tests/oracle/``.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDocumentsExist:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md", "Makefile"],
    )
    def test_document_present_and_non_trivial(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text(encoding="utf-8")) > 500


class TestReferencesResolve:
    def test_readme_example_references_exist(self):
        readme = _read("README.md")
        for match in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_readme_benchmark_references_exist(self):
        readme = _read("README.md")
        for match in re.findall(r"bench_\w+\.py", readme):
            assert (ROOT / "benchmarks" / match).exists(), match

    def test_readme_python_imports_resolve(self):
        blocks = re.findall(r"```python\n(.*?)```", _read("README.md"), re.S)
        assert blocks
        checked = 0
        for block in blocks:
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                        checked += 1
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("repro"):
                            importlib.import_module(alias.name)
                            checked += 1
        assert checked

    def test_dotted_repro_names_in_the_docs_resolve(self):
        # Each backticked `repro.…` name: import its longest importable
        # module prefix, then getattr the rest.
        paths = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
        checked = 0
        for path in paths:
            for name in re.findall(r"`(repro(?:\.\w+)+)`", path.read_text(encoding="utf-8")):
                parts = name.split(".")
                for cut in range(len(parts), 0, -1):
                    try:
                        target = importlib.import_module(".".join(parts[:cut]))
                    except ImportError:
                        continue
                    break
                for attr in parts[cut:]:
                    assert hasattr(target, attr), f"{path.relative_to(ROOT)}: {name}"
                    target = getattr(target, attr)
                checked += 1
        assert checked > 50

    def test_experiments_md_covers_every_benchmark(self):
        experiments = _read("EXPERIMENTS.md")
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in experiments or path.stem in experiments, path.name

    def test_design_md_lists_every_subpackage(self):
        design = _read("DESIGN.md")
        for package in (
            "repro.core",
            "repro.circuits",
            "repro.tech",
            "repro.baselines",
            "repro.dnn",
            "repro.analysis",
        ):
            assert package in design

    def test_design_md_maps_every_paper_artifact(self):
        design = _read("DESIGN.md")
        for artefact in (
            "Fig. 2",
            "Fig. 7(a)",
            "Fig. 7(b)",
            "Fig. 8",
            "Fig. 9",
            "Table I",
            "Table II",
            "Table III",
        ):
            assert artefact in design, artefact

    def test_experiments_md_records_paper_values(self):
        experiments = _read("EXPERIMENTS.md")
        for anchor in ("2.25", "372", "8.09", "0.68", "0.22", "140", "603"):
            assert anchor in experiments, anchor


class TestMetricInventory:
    """docs/OBSERVABILITY.md names every metric family and label in src/."""

    @staticmethod
    def _declared():
        families, labels = set(), set()
        for path in sorted((ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("counter", "gauge", "histogram")
                ):
                    continue
                if node.args and isinstance(node.args[0], ast.Constant):
                    families.add(node.args[0].value)
                for keyword in node.keywords:
                    if keyword.arg == "labelnames":
                        labels.update(ast.literal_eval(keyword.value))
        return families, labels

    def test_every_family_and_label_is_documented(self):
        doc = _read("docs/OBSERVABILITY.md")
        documented = set()
        for span in re.findall(r"`([^`]+)`", doc):
            documented.update(re.findall(r"\w+", span))
            # `prefix_{a,b}_suffix` brace lists name one family per entry.
            for head, options, tail in re.findall(r"(\w*)\{([\w,]+)\}(\w*)", span):
                documented.update(head + option + tail for option in options.split(","))
        vocabulary = re.search(r"Label names come from a \*\*closed vocabulary\*\*.*?\n\n", doc, re.S)
        assert vocabulary, "the closed label vocabulary paragraph is missing"
        families, labels = self._declared()
        assert len(families) > 25 and "sla" in labels
        undocumented_labels = labels - set(re.findall(r"`(\w+)`", vocabulary.group(0)))
        assert (sorted(families - documented), sorted(undocumented_labels)) == ([], [])


class TestPackageMetadata:
    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("field", ["name", "version"])
    def test_setup_py_declares_the_package(self, field):
        # README installs with `pip install -e .`; setup.py must name the
        # package and carry repro.__version__.  Neither query writes files.
        pytest.importorskip("setuptools")
        import repro

        expected = {"name": "repro", "version": repro.__version__}[field]
        done = subprocess.run(
            [sys.executable, "setup.py", f"--{field}"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == expected


class TestOracleBoundary:
    def test_no_module_under_src_imports_the_oracle(self):
        offenders = []
        for path in sorted((ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    roots = [alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    roots = [(node.module or "").split(".")[0]]
                else:
                    continue
                if "oracle" in roots:
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
        assert not offenders, offenders
