"""Setuptools build configuration.

The whole of it: there is no ``pyproject.toml``.  Kept as a ``setup.py`` so
that fully offline environments (no ``wheel`` package available for PEP 660
editable builds) can do a legacy editable install via
``pip install -e . --no-use-pep517 --no-build-isolation`` or
``python setup.py develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read, not imported: importing the package needs NumPy before it is built.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$',
                     _INIT.read_text(encoding="utf-8"), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
