"""Exact-arithmetic engine and verification toolkit for the Mittag-Leffler
polynomial family and its reduced and monic variants.

The submodules are the API (`mlpoly.sequences`, `mlpoly.suite`, ...); the
package itself exposes only `__version__`, so importing it loads nothing else.
"""

__version__ = "0.1.0"
