"""Bindings for the permutation-scan kernels.

`min_descents` is the width-bounded bitset branch and bound of `_reference`
on every backend, so there is one `min_descents`, not two: in pure Python it
outruns the compiled scan of `_fast` on all but the smallest posets.  Its
only bound is the Dilworth width of the unused elements, which every
ascending-run decomposition obeys.  It is not seeded from the minimal
homogeneous chain count or the noncrossing minimum, because
`verify_chain_bounds` compares the scan against exactly those quantities and
a seed would assume the inequalities it tests.

The backend selects only `permutations_avoiding`: the compiled extension when
importable, otherwise the pure-Python reference with identical output.  Set
POSET_DECOMP_KERNEL=pure or =compiled to force a backend (forcing `compiled`
raises if the extension is missing instead of silently degrading).
"""

from __future__ import annotations

import os

from . import _reference

_requested = os.environ.get("POSET_DECOMP_KERNEL", "auto").strip().lower() or "auto"

if _requested in ("auto", "compiled", "c"):
    try:
        from . import _fast as _impl

        BACKEND = "compiled"
    except ImportError:
        if _requested != "auto":
            raise ImportError(
                "POSET_DECOMP_KERNEL requested the compiled kernels but the "
                "extension is not built; reinstall or use POSET_DECOMP_KERNEL=pure"
            ) from None
        _impl = _reference
        BACKEND = "pure"
elif _requested in ("pure", "py", "python"):
    _impl = _reference
    BACKEND = "pure"
else:
    raise ValueError(
        f"POSET_DECOMP_KERNEL={_requested!r} not recognized (use 'compiled', 'pure' or 'auto')"
    )

min_descents = _reference.min_descents
permutations_avoiding = _impl.permutations_avoiding
