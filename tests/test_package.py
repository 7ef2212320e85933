"""The package surface: every public name resolves on first use."""

import ast
import inspect
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import twoloc

SUBMODULES = ("core", "documents", "fixtures", "fractions", "groupoids", "saturation",
              "transport")


def fresh_interpreter(code: str):
    """Run `code` in a new interpreter and return what it printed, as JSON."""
    src = os.path.dirname(os.path.dirname(twoloc.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    return json.loads(proc.stdout)


def test_every_public_name_is_the_object_of_its_defining_module():
    for name in twoloc.__all__:
        obj = getattr(twoloc, name)
        home = sys.modules[f"twoloc.{twoloc._MODULE_OF[name]}"]
        assert vars(home)[name] is obj, name
        assert vars(twoloc)[name] is obj, name  # later lookups skip __getattr__
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == home.__name__, name


def test_dir_and_star_import_cover_all():
    assert set(twoloc.__all__) <= set(dir(twoloc))
    assert set(SUBMODULES) <= set(dir(twoloc))
    namespace = {}
    exec("from twoloc import *", namespace)
    assert set(twoloc.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(twoloc, name) for name in twoloc.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        twoloc.no_such_name
    assert not hasattr(twoloc, "fraction")


def test_bare_import_loads_no_submodule_and_reaches_each_on_access():
    loaded, reached = fresh_interpreter(f"""
import json, sys
import twoloc
loaded = sorted(m for m in sys.modules if m.startswith("twoloc"))
reached = [getattr(twoloc, name).__name__ for name in {SUBMODULES!r}]
print(json.dumps([loaded, reached]))
""")
    assert loaded == ["twoloc"]
    assert reached == [f"twoloc.{name}" for name in SUBMODULES]


def test_a_name_loads_only_its_module_and_what_that_imports():
    loaded = fresh_interpreter("""
import json, sys
from twoloc import check_bf
print(json.dumps(sorted(m for m in sys.modules if m.startswith("twoloc"))))
""")
    assert loaded == ["twoloc", "twoloc.core", "twoloc.saturation"]


def test_no_test_module_imports_another():
    # shared oracles live in oracles.py and shared inputs in corpus.py
    imports = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.name, node.module))
    assert ("test_core.py", "oracles") in imports
    assert [(name, module) for name, module in imports
            if module.startswith("test_") or module == "functor_enum"] == []


def test_no_module_of_the_package_imports_dataclasses():
    # importing it loads inspect, ast and dis, a third of a CLI query's own start-up
    package = Path(twoloc.__file__).parent
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((path.name, node.module))
    assert ("core.py", "functools") in imports
    assert [(name, module) for name, module in imports if module == "dataclasses"] == []


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason=(
    "the 8,192-token buffer is CPython 3.11's parser's; 3.12 splits an f-string into "
    "several tokens, so the count differs"))
def test_every_module_of_the_package_stays_under_the_parsers_token_buffer():
    # past 8,192 tokens CPython 3.11 doubles its token buffer, so compiling the
    # module, which every process does when no bytecode is written, peaks about
    # 0.46 MB higher; counted as the parser reads them: no comments, blank
    # lines or encoding
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    counts = {}
    for path in sorted(Path(twoloc.__file__).parent.glob("*.py")):
        with path.open("rb") as f:
            tokens = tokenize.tokenize(f.readline)
            counts[path.name] = sum(tok.type not in skipped for tok in tokens)
    assert counts["fractions.py"] > 7000
    assert {name: n for name, n in counts.items() if n >= 8192} == {}
