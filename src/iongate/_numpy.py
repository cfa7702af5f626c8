"""numpy, bound on first use.

The layers write ``np.<name>`` against `np` below instead of importing numpy,
so importing them loads no numpy: the closed-form `solve` runs on `math`
alone, and a command that computes with arrays pays numpy's import when it
first reads an attribute. Every lookup is forwarded to the numpy module as it
is at that moment; nothing is cached, so a test that patches
``numpy.linalg.eigh`` or ``numpy.kron`` reaches the package's calls too. A
lookup costs about 0.8 us, which no command repeats often enough to notice.
Dunder lookups (``__wrapped__``, ``__version__``, ...) raise AttributeError
without importing numpy, so introspection never loads it.
"""

from __future__ import annotations


class _Numpy:
    __slots__ = ()

    def __getattr__(self, name: str):
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        import numpy

        return getattr(numpy, name)


np = _Numpy()
