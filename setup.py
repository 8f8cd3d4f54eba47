"""Package metadata for ``repro``.

This file is the project's only packaging metadata; there is no
pyproject.toml.  A plain ``setup.py`` also keeps ``pip install -e .``
working in offline environments where the ``wheel`` package (required by
PEP 660 editable builds on setuptools<70) is absent.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
