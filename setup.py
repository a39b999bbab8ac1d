from setuptools import find_packages, setup

setup(
    name="repro-hulls88",
    version="0.4.0",
    description=(
        "Reproduction of the complex-object algebra/calculus system of "
        "Hull & Su (PODS '88), grown into a plan-compiling query engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # CI and contributors install the same way: pip install -e ".[dev]".
    # Tier-1 test modules import hypothesis at module level.
    extras_require={"dev": ["hypothesis", "pytest", "ruff"]},
)
