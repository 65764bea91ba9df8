"""The package names that README.md quotes exist.

A backticked span outside fenced code that starts with ``module.name``,
for a module of the package, names ``name`` in ``apfree.<module>``; one
that starts with ``apfree.<module>`` names the module.  A call's
arguments may follow.
"""

import importlib
import re
from pathlib import Path

import apfree

ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in Path(apfree.__file__).parent.glob("*.py")}


def quoted_names(text: str):
    """(module, name) of every backticked package name in text, name None
    for a module named as ``apfree.<module>``."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        match = re.match(r"(\w+)\.(\w+)", span)
        if not match:
            continue
        first, second = match.groups()
        if first == "apfree":
            yield second, None
        elif first in MODULES:
            yield first, second


def missing(names):
    """The quoted names the package lacks, as written."""
    absent = []
    for module, name in names:
        if module not in MODULES:
            absent.append(f"apfree.{module}")
        elif name is not None and not hasattr(importlib.import_module(f"apfree.{module}"), name):
            absent.append(f"{module}.{name}")
    return absent


def test_readme_names_exist():
    names = list(quoted_names((ROOT / "README.md").read_text()))
    assert len(names) >= 20
    assert missing(names) == []


def test_scan_sees_missing_names():
    text = ("`budget.SCAN` and `verify.check_sweeps(kinds)`, `apfree.gridscan`, "
            "`np.unique`, `tests/oracle.py`, `gridscan.gone`, `apfree.nowhere`,\n"
            "```sh\nverify.missing\n```\n`x gridscan.inside`")
    names = list(quoted_names(text))
    assert names == [("budget", "SCAN"), ("verify", "check_sweeps"), ("gridscan", None),
                     ("gridscan", "gone"), ("nowhere", None)]
    assert missing(names) == ["gridscan.gone", "apfree.nowhere"]
