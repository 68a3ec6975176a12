"""Package metadata: ``pip install -e .`` installs ``repro`` from ``src/``.

The version is read from ``src/repro/__init__.py`` so the two cannot
drift.  pip's editable install needs the ``wheel`` package; a fully
offline environment without it can install with ``python setup.py develop``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = (Path(__file__).resolve().parent / "src" / "repro" / "__init__.py").read_text(
    encoding="utf-8"
)

setup(
    name="repro",
    version=re.search(r'^__version__ = "([^"]+)"', INIT, re.MULTILINE).group(1),
    description="Bit-parallel 6T SRAM in-memory computing (Lee et al., DAC 2020), reproduced",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
