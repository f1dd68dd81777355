"""The CI workflow runs what it claims to run.

YAML silently keeps the last of two duplicate keys, so a step with two
``run:`` lines drops the first command without any error.  These tests
load ``.github/workflows/ci.yml`` with a loader that rejects duplicate
keys, and check that every pytest marker declared in ``pyproject.toml``
has a CI step running ``pytest -m <marker>``, every ``examples/*.py``
script has a CI step running it, the repository benchmark's own tests
(outside tier-1's ``testpaths``) have a step, and every example or
benchmark script a step runs exists.
"""

import pathlib
import re

import pytest
import yaml

ROOT = pathlib.Path(__file__).resolve().parent.parent
CI_YML = ROOT / ".github" / "workflows" / "ci.yml"


class _UniqueKeyLoader(yaml.SafeLoader):
    """Safe loader that raises on a mapping key given twice."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


def _load(text: str):
    return yaml.load(text, Loader=_UniqueKeyLoader)


def _steps() -> list[dict]:
    workflow = _load(CI_YML.read_text())
    return [step for job in workflow["jobs"].values()
            for step in job["steps"]]


def test_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError,
                       match="duplicate key 'run'"):
        _load("- name: step\n  run: a\n  run: b\n")


def test_workflow_has_no_duplicate_keys():
    assert _steps()


def test_every_marker_has_a_ci_step():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    markers = [line.split(":", 1)[0].strip() for line in
               pyproject["tool"]["pytest"]["ini_options"]["markers"]]
    runs = [step.get("run", "") for step in _steps()]
    missing = [m for m in markers
               if not any(re.search(rf"pytest\b.*\s-m\s+{re.escape(m)}\b",
                                    run) for run in runs)]
    assert markers
    assert not missing, f"markers with no CI step: {missing}"


def test_every_example_has_a_ci_step():
    examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    runs = [step.get("run", "") for step in _steps()]
    missing = [e for e in examples
               if not any(re.search(rf"python\s+examples/{re.escape(e)}\b",
                                    run) for run in runs)]
    assert examples
    assert not missing, f"examples with no CI step: {missing}"


def test_perfbench_tests_have_a_ci_step():
    runs = [step.get("run", "") for step in _steps()]
    assert any(re.search(r"pytest\s+perfbench/tests\b", run)
               for run in runs), "no CI step runs perfbench/tests"


def test_every_ci_script_exists():
    runs = "\n".join(step.get("run", "") for step in _steps())
    scripts = re.findall(r"python\s+((?:examples|benchmarks)/[\w.-]+\.py)",
                         runs)
    missing = sorted({s for s in scripts if not (ROOT / s).is_file()})
    assert scripts
    assert not missing, f"CI runs scripts that do not exist: {missing}"
