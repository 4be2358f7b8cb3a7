"""The two-level model's reality domain, in pure Python.

The two-level matrix [[a, b], [-conj(b), d]] (a, d real, b complex) has
two real eigenvalues where its discriminant ``(a - d)^2 - 4|b|^2`` is
positive, a complex-conjugate pair where it is negative, and an
exceptional point on the boundary 2|b| = |a - d|.

The classification has one kernel, ``_h2_point``: the discriminant, the
default boundary band and the tag of one point, on validated Python
floats.  ``models.discriminant_h2`` and ``models.classify_h2`` validate
each argument once and call it for one point; ``sweep_h2`` validates a
and d once, computes (a - d)^2 and |a| + |d| once, and calls it once for
every point of a grid, with the same float operations and therefore the
same bits as ``classify_h2``.  Only ``discriminant_h2`` passes the kernel
a band: 0.0, which skips the default band, since that can overflow where
the discriminant does not.

Validation (``_h2_params``) has a fast path for the common call: a and d
of type ``float`` exactly, b of type ``complex`` exactly, all four parts
finite.  Such a triple is already what the coercion returns, so it is
used as given.  Everything else takes the general coercion: ints, bools,
strings, and numpy scalars (subclasses of float and complex, never the
exact types), which yields the same values, refusals and messages.

This module imports only ``math`` and ``typing``, so a ``sweep`` child,
which needs nothing else of the package, loads neither numpy nor the
library's dataclasses.
"""
from __future__ import annotations

import math
from typing import Iterator, Literal

DomainTag = Literal["interior", "exterior", "boundary"]

#: default boundary band is this factor times (|a| + |d| + |b|)^2
BOUNDARY_BAND_FACTOR = 1e-9


def _real_scalar(x, name: str) -> float:
    xc = complex(x)
    if xc.imag != 0.0:
        raise ValueError(f"{name} must be real, got {x!r}")
    if not math.isfinite(xc.real):
        raise ValueError(f"{name} must be finite")
    return xc.real


def _complex_scalar(x, name: str) -> complex:
    xc = complex(x)
    if not (math.isfinite(xc.real) and math.isfinite(xc.imag)):
        raise ValueError(f"{name} must be finite")
    return xc


def _h2_params(a, d, b) -> tuple[float, float, complex]:
    # a finite float, float, complex triple is already what the coercion returns
    if (type(a) is float and type(d) is float and type(b) is complex and math.isfinite(a)
            and math.isfinite(d) and math.isfinite(b.real) and math.isfinite(b.imag)):
        return a, d, b
    return _real_scalar(a, "a"), _real_scalar(d, "d"), _complex_scalar(b, "b")


# The h2 kernel uses CPython's ``**`` and ``abs(complex)`` on Python floats:
# numpy's squares and complex moduli differ from them in the last bit for
# some inputs, and the sweep's CSV must not move by one byte.


def _h2_invariants(a: float, d: float) -> tuple[float, float]:
    """((a - d)**2, |a| + |d|).

    A square that overflows comes back as inf: it would overflow at every
    b, and an inf makes ``_h2_point`` refuse the first point.
    """
    try:
        diff2 = (a - d) ** 2
    except OverflowError:
        diff2 = math.inf
    return diff2, abs(a) + abs(d)


def _h2_point(
    diff2: float, sum_ad: float, modulus: float, band: float | None = None
) -> tuple[float, DomainTag, float]:
    """(discriminant, tag, band) of one point: the h2 kernel.

    The discriminant is (a - d)**2 - 4|b|**2 from ``diff2`` = (a - d)**2
    and ``modulus`` = |b|; it raises OverflowError when that leaves
    float64, whether Python raises it on the way or the result is not
    finite (a - d or 4|b|**2 can reach inf without raising).  ``band``
    defaults to BOUNDARY_BAND_FACTOR * (|a| + |d| + |b|)**2 from ``sum_ad``
    = |a| + |d|, which may raise OverflowError too; a given band is used
    as it is.
    """
    disc = diff2 - 4.0 * modulus**2
    if not math.isfinite(disc):
        raise OverflowError(
            f"discriminant overflows at (a - d)**2 = {diff2!r}, |b| = {modulus!r}"
        )
    if band is None:
        band = BOUNDARY_BAND_FACTOR * (sum_ad + modulus) ** 2
    if abs(disc) <= band:
        return disc, "boundary", band
    return disc, "interior" if disc > 0 else "exterior", band


def sweep_h2(a, d, re_axis, im_axis) -> Iterator[tuple[float, DomainTag]]:
    """(discriminant, tag) of ``classify_h2(a, d, complex(re, im))`` over a grid.

    Points come in row-major order: every ``im`` for the first ``re``,
    then the next ``re``.  a, d and each axis value are validated once,
    and (a - d)^2 and |a| + |d| are computed once; each point costs only
    its own arithmetic, with the same float operations as ``classify_h2``
    and so the same bits.  The generator raises OverflowError at the
    first point where ``classify_h2`` would.
    """
    ar, dr = _real_scalar(a, "a"), _real_scalar(d, "d")
    res = [_real_scalar(x, "b_re") for x in re_axis]
    ims = [_real_scalar(x, "b_im") for x in im_axis]
    diff2, sum_ad = _h2_invariants(ar, dr)
    for re in res:
        for im in ims:
            disc, tag, _ = _h2_point(diff2, sum_ad, abs(complex(re, im)))
            yield disc, tag
