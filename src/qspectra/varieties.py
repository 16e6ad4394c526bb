"""The variety model: what a variety id names.

An id is Pn, G(k,n), IG(2,2n) or an ADE label (An, Dn, En).  It names a
ring builder (the provider), the Ext backend that checks collections on
it, and that backend's ambient Grassmannian G(k,n): Pn = G(1,n+1), and
IG(2,2n) is a hyperplane section of G(2,2n).  The ADE rings are Milnor
algebras of plane singularities and have no backend.  The builders
reject parameters outside their range when they run.

This is the only module that reads a variety id.  REGISTRY is the
catalogue of ids that the command line accepts.
"""

import re
from collections import namedtuple

from .algebra import jacobi_ring, qh_ig2, qh_projective
from .schur import qh_grassmannian

Variety = namedtuple("Variety", "id provider backend k n")

_ID = re.compile(r"P([0-9]+)|G\(([0-9]+),([0-9]+)\)|IG\(2,([0-9]+)\)"
                 r"|([ADE][0-9]+)")


def parse_variety(vid):
    """The Variety that an id names, or None when no family covers it.

    The provider calls its builder by name when it runs, so patching the
    builder in this module reaches every provider.
    """
    m = _ID.fullmatch(vid)
    if m is None:
        return None
    p, k, n, isotropic, label = m.groups()
    if p is not None:
        p = int(p)
        return Variety(vid, lambda: qh_projective(p), "grassmannian", 1, p + 1)
    if k is not None:
        k, n = int(k), int(n)
        return Variety(vid, lambda: qh_grassmannian(k, n), "grassmannian",
                       k, n)
    if label is not None:
        return Variety(vid, lambda: jacobi_ring(label), None, None, None)
    n = int(isotropic)
    if n % 2 or n < 4:
        return None
    return Variety(vid, lambda: qh_ig2(n // 2), "hyperplane", 2, n)


REGISTRY = {vid: parse_variety(vid) for vid in (
    "P1 P2 P3 P4 P5 P6 P7 P8 P9 P10 G(2,4) G(2,5) G(2,6) G(3,6) "
    "IG(2,4) IG(2,6) IG(2,8) IG(2,10) A1 A2 A3 A4 A5 A6 A7 A8 "
    "D4 D5 D6 E6 E7 E8").split()}
