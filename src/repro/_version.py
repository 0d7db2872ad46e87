"""Single source of the package version.

Lives in its own module (rather than ``repro/__init__``) so deep
modules — e.g. the benchmark history rows — can read it without
importing the package root and its experiment-harness re-exports.
"""

__version__ = "1.0.0"
