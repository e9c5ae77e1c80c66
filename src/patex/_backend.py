"""Kernel backend selection.

The compiled extension (patex._corec, hand-written C built by setup.py) is
preferred when it built; the pure-Python twin (patex._corepy) is the
drop-in fallback.  Set PATEX_PURE=1 to force the pure backend.  The parity
tests import both modules directly, and the benchmark never sets
PATEX_PURE: it measures whichever backend the build produced.
"""

import os

if os.environ.get("PATEX_PURE"):
    from patex import _corepy as kernels
else:
    try:
        from patex import _corec as kernels  # type: ignore[no-redef]
    except ImportError:
        from patex import _corepy as kernels


def backend_name() -> str:
    """Name of the active kernel backend: "c" or "python"."""
    return kernels.BACKEND
