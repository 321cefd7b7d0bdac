"""Setup script (also the canonical packaging metadata).

The offline environment has no ``wheel`` package, so PEP 660 editable
installs (``pip install -e .``) cannot build their editable wheel; use
``python setup.py develop`` there instead.  With ``wheel`` present,
``pip install -e . --no-build-isolation`` works as usual.

Package discovery is configured explicitly for the ``src/`` layout:
bare ``find_packages()`` would look in the repo root and find nothing,
silently installing an empty distribution — ``package_dir`` plus
``find_packages(where="src")`` picks up every ``repro.*`` subpackage
(including ``repro.scenarios``) automatically.
"""

from setuptools import find_packages, setup

setup(
    name="repro-intermittent-control",
    version="1.0.0",
    description=(
        "Reproduction of 'Opportunistic Intermittent Control with Safety "
        "Guarantees for Autonomous Systems' (DAC 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)
