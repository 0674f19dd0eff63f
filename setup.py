"""Legacy shim so ``pip install -e .`` works without the ``wheel`` package
(offline environments).

The only metadata carried here is the runtime dependency: numpy, which
the fleet generator, the query pipeline and the index-snapshot restore
all import.
"""

from setuptools import setup

setup(
    install_requires=["numpy>=1.22"],
)
