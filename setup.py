"""Setuptools entry point and package metadata.

All metadata lives here (there is no ``pyproject.toml``), so both
``python setup.py --name`` and ``pip install -e .`` work offline, where
the ``wheel`` package needed by PEP 660 editable installs may be
unavailable.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
# Read the version without importing the package (its imports need the
# runtime dependencies, which may not be installed yet).
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["networkx"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
