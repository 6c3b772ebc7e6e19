"""Setuptools entry point.

A classic ``setup.py`` (rather than a PEP 517 ``pyproject.toml`` build) is
used so that ``pip install -e .`` works in fully offline environments
where pip cannot download build-isolation requirements.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of SparqLog: efficient evaluation of SPARQL 1.1 "
        "queries via Warded Datalog±"
    ),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[
        "numpy",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
