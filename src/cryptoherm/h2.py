"""The two-level model's reality domain, in pure Python.

The two-level matrix [[a, b], [-conj(b), d]] (a, d real, b complex) has
two real eigenvalues where its discriminant ``(a - d)^2 - 4|b|^2`` is
positive, a complex-conjugate pair where it is negative, and an
exceptional point on the boundary 2|b| = |a - d|.

The classification has one kernel, ``_h2_point``: the discriminant, the
default boundary band and the tag of one point, on validated Python
floats.  Each entry prepares its point in one step, ``_h2_prepare``:
``models.build_h2`` takes the validated a, d and b from it, and
``models.discriminant_h2`` and ``models.classify_h2`` also take (a - d)^2
and |a| + |d| and call the kernel for one point.  Only
``discriminant_h2`` passes the kernel a band: 0.0, which skips the
default band, since that can overflow where the discriminant does not.

A point's row depends on b only through |b|: the discriminant is
(a - d)^2 - 4|b|^2, and the band reads |b| too.  So the grid walk that
``sweep_h2`` and the ``sweep`` command share, ``_sweep_indices``,
prepares a and d once and calls the kernel once per distinct modulus
``abs(complex(re, im))`` of the grid, with the same float operations and
therefore the same bits as ``classify_h2``; every later point with that
modulus reuses the row.  The walk is lazy, point by point, so a refused
point is refused after every row before it.

Validation has a fast path for the common call: a and d of type
``float`` exactly, b of type ``complex`` exactly, all four parts finite.
Such a triple is already what the coercion returns, so it is used as
given.  Everything else takes the general coercion: ints, bools,
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


def _h2_prepare(a, d, b) -> tuple[float, float, complex, float, float]:
    """(a, d, b, (a - d)**2, |a| + |d|) of one point: its validated parameters and invariants.

    A finite float, float, complex triple is already what the coercion
    returns, so it is used as given.  A square that overflows comes back
    as inf: it would overflow at every b, and an inf makes ``_h2_point``
    refuse the first point.
    """
    if not (type(a) is float and type(d) is float and type(b) is complex and math.isfinite(a)
            and math.isfinite(d) and math.isfinite(b.real) and math.isfinite(b.imag)):
        a, d, b = _real_scalar(a, "a"), _real_scalar(d, "d"), _complex_scalar(b, "b")
    # the h2 kernel uses CPython's ``**`` and ``abs(complex)`` on Python floats:
    # numpy's squares and complex moduli differ from them in the last bit for
    # some inputs, and the sweep's CSV must not move by one byte
    try:
        diff2 = (a - d) ** 2
    except OverflowError:
        diff2 = math.inf
    return a, d, b, diff2, abs(a) + abs(d)


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


def _sweep_indices(a, d, re_axis, im_axis, rows: list) -> Iterator[int]:
    """The grid walk of ``sweep_h2`` and the ``sweep`` command: one index into ``rows`` per point.

    Points come in row-major order, and each point's (discriminant, tag)
    is appended to ``rows`` before its index is first yielded.  A row
    depends on b only through |b|, so the kernel runs once per distinct
    modulus ``abs(complex(re, im))``, keyed in a dict that lives for one
    walk; the modulus is never -0.0 or NaN, so equal keys mean equal rows.
    The walk stays lazy: it raises OverflowError at the first point where
    ``classify_h2`` would, after yielding every point before it.
    """
    *_, diff2, sum_ad = _h2_prepare(a, d, 0j)
    res = [_real_scalar(x, "b_re") for x in re_axis]
    ims = [_real_scalar(x, "b_im") for x in im_axis]
    seen: dict[float, int] = {}
    for re in res:
        for im in ims:
            modulus = abs(complex(re, im))
            index = seen.get(modulus)
            if index is None:
                disc, tag, _ = _h2_point(diff2, sum_ad, modulus)
                index = seen[modulus] = len(rows)
                rows.append((disc, tag))
            yield index


def sweep_h2(a, d, re_axis, im_axis) -> Iterator[tuple[float, DomainTag]]:
    """(discriminant, tag) of ``classify_h2(a, d, complex(re, im))`` over a grid.

    Points come in row-major order: every ``im`` for the first ``re``,
    then the next ``re``.  a, d and each axis value are validated once,
    and (a - d)^2 and |a| + |d| are computed once; the kernel runs once
    per distinct |b| of the grid, with the same float operations as
    ``classify_h2`` and so the same bits, and a point whose |b| was seen
    before gets that point's row.  The iterator raises OverflowError at
    the first point where ``classify_h2`` would, after yielding every
    point before it.
    """
    rows: list[tuple[float, DomainTag]] = []
    return map(rows.__getitem__, _sweep_indices(a, d, re_axis, im_axis, rows))
