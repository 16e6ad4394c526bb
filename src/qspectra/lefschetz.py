"""Lefschetz collection shapes and their comparison against spectrum data.

A collection here is a purely combinatorial object: a starting block of
opaque bundle descriptors and a non-increasing support partition, stored
as given and read zero-padded to the Fano index, so the rectangular-part
formula m * sigma[m-1] degenerates correctly for short partitions while
reading a collection file, whose format only this module knows, costs the
same whatever its Fano index.  Descriptor strings are only interpreted by
the cohomology backend; the numerology below never looks inside them.
"""

import json


class LefschetzCollection:
    """Starting block plus support partition, read padded to fano_index.

    asserted_full marks the builtin collections, whose fullness is a cited
    theorem; user-built collections leave it False and the total-length
    check is then reported as a bare comparison, not a completeness claim.
    """

    __slots__ = ("variety", "starting_block", "_support", "fano_index",
                 "asserted_full")

    def __init__(self, variety, starting_block, support, fano_index,
                 asserted_full=False):
        if type(fano_index) is not int:
            raise TypeError("fano_index must be an int, got %r"
                            % (fano_index,))
        if fano_index < 1:
            raise ValueError("fano_index must be positive")
        if not isinstance(variety, str):
            raise TypeError("variety must be a string, got %r" % (variety,))
        support = tuple(support)
        if any(type(s) is not int for s in support):
            raise TypeError("support entries must be ints, got %r"
                            % (support,))
        if len(support) > fano_index:
            raise ValueError("support partition longer than the Fano index")
        # a tail of zeros after nonnegative entries breaks neither check
        if any(s < 0 for s in support):
            raise ValueError("support partition has negative entries")
        if any(a < b for a, b in zip(support, support[1:])):
            raise ValueError("support partition not non-increasing")
        block = tuple(starting_block)
        if not all(isinstance(e, str) for e in block):
            raise TypeError("starting block entries must be strings, got %r"
                            % (block,))
        if support and support[0] > len(block):
            raise ValueError("support partition exceeds the starting block")
        self.variety = variety
        self.starting_block = block
        self._support = support
        self.fano_index = fano_index
        self.asserted_full = bool(asserted_full)

    @property
    def support(self):
        """The support partition, zero-padded to length fano_index."""
        return self._support + (0,) * (self.fano_index - len(self._support))

    def __repr__(self):
        return "LefschetzCollection(%r, sigma=%r)" % (
            self.variety, self.support)


def twisted_objects(c):
    """The full collection in Lefschetz order: (descriptor, twist) pairs,
    block by block, block i holding the first support[i] objects."""
    out = []
    for twist, width in enumerate(c.support):
        for e in c.starting_block[:width]:
            out.append((e, twist))
    return out


def lengths(c):
    """Total, rectangular, and expected-residual lengths of a collection."""
    total = sum(c.support)
    rectangular = c.fano_index * c.support[-1]
    return {
        "total": total,
        "rectangular": rectangular,
        "residual_expected": total - rectangular,
    }


class NumerologyVerdict:
    """Outcome of the shape-versus-spectrum comparison."""

    __slots__ = ("variety", "total_length", "rect_length",
                 "residual_expected", "checks")

    def __init__(self, variety, total_length, rect_length, residual_expected,
                 checks):
        self.variety = variety
        self.total_length = total_length
        self.rect_length = rect_length
        self.residual_expected = residual_expected
        self.checks = checks

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks.values())

    def __repr__(self):
        state = "ok" if self.ok else "FAIL"
        return "NumerologyVerdict(%r, %s)" % (self.variety, state)


def conjecture_numerology(report, c):
    """Compare a collection's shape with a spectrum report.

    Checks: the total length against the algebra dimension (a completeness
    claim only for asserted-full collections), the smallest block width
    against the orbit count, the residual length against the zero-fiber
    dimension, and, when the zero fiber is reduced, the residual length
    against its point count.  Orthogonality per point is a categorical
    statement and is only echoed as that count comparison.
    """
    if report.fano_index != c.fano_index:
        raise ValueError("Fano index mismatch: report %d, collection %d"
                         % (report.fano_index, c.fano_index))
    sizes = lengths(c)
    k = report.orbit_count_by_length
    checks = {}
    checks["total_vs_dim"] = {
        "ok": sizes["total"] == report.dim_total,
        "explanation": ("full collection of length %d vs dim %d"
                        if c.asserted_full else
                        "length %d vs dim H* = %d (no fullness asserted)")
                       % (sizes["total"], report.dim_total),
    }
    checks["smallest_block_vs_orbits"] = {
        "ok": report.orbit_length_integral and c.support[-1] == k,
        "explanation": "sigma[m-1] = %d vs k = %r"
                       % (c.support[-1], k),
    }
    checks["residual_vs_zero_fiber"] = {
        "ok": sizes["residual_expected"] == report.dim_zero_part,
        "explanation": "residual %d vs zero-fiber length %d"
                       % (sizes["residual_expected"], report.dim_zero_part),
    }
    zp = report.zero_part
    if zp["dim"] == zp["geometric_point_count"]:
        checks["residual_vs_zero_points"] = {
            "ok": sizes["residual_expected"] == zp["geometric_point_count"],
            "explanation": "reduced zero fiber: residual %d vs %d points"
                           % (sizes["residual_expected"],
                              zp["geometric_point_count"]),
        }
    return NumerologyVerdict(
        variety=c.variety,
        total_length=sizes["total"],
        rect_length=sizes["rectangular"],
        residual_expected=sizes["residual_expected"],
        checks=checks,
    )


def builtin_collection(name, n=None):
    """Named collections with concrete bundle descriptors.

    beilinson and kuznetsov_ig2 take the parameter n; the two G(2,4)
    collections are parameter-free.
    """
    if name == "beilinson":
        if n is None or n < 1:
            raise ValueError("beilinson requires n >= 1")
        return LefschetzCollection(
            variety="P%d" % n, starting_block=("O",),
            support=(1,) * (n + 1), fano_index=n + 1, asserted_full=True)
    if name == "kapranov_g24":
        return LefschetzCollection(
            variety="G(2,4)", starting_block=("O", "U*", "S^2 U*"),
            support=(3, 2, 1, 0), fano_index=4, asserted_full=True)
    if name == "minimal_g24":
        return LefschetzCollection(
            variety="G(2,4)", starting_block=("O", "U*"),
            support=(2, 2, 1, 1), fano_index=4, asserted_full=True)
    if name == "kuznetsov_ig2":
        if n is None or n < 2:
            raise ValueError("kuznetsov_ig2 requires n >= 2")
        block = tuple("O" if i == 0 else "U*" if i == 1 else "S^%d U*" % i
                      for i in range(n))
        support = (n,) * (n - 1) + (n - 1,) * n
        return LefschetzCollection(
            variety="IG(2,%d)" % (2 * n), starting_block=block,
            support=support, fano_index=2 * n - 1, asserted_full=True)
    raise ValueError(
        "unknown collection %r; known: beilinson, kapranov_g24, "
        "minimal_g24, kuznetsov_ig2" % (name,))


def collection_to_json(c):
    return {
        "variety": c.variety,
        "fano_index": c.fano_index,
        "starting_block": list(c.starting_block),
        "support": list(c.support),
    }


def collection_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError("collection file must hold a JSON object")
    missing = [k for k in ("variety", "fano_index", "starting_block",
                           "support") if k not in obj]
    if missing:
        raise ValueError("collection file missing keys: %s"
                         % ", ".join(missing))
    # the constructor refuses the same types with TypeError; checked here
    # so that a bad file raises ValueError, an input error (exit 1)
    if not isinstance(obj["variety"], str):
        raise ValueError("variety must be a string")
    if type(obj["fano_index"]) is not int:
        raise ValueError("fano_index must be an integer")
    if not isinstance(obj["support"], list) \
            or not all(type(s) is int for s in obj["support"]):
        raise ValueError("support must be a list of integers")
    if not isinstance(obj["starting_block"], list) \
            or not all(isinstance(e, str) for e in obj["starting_block"]):
        raise ValueError("starting_block must be a list of strings")
    return LefschetzCollection(obj["variety"], obj["starting_block"],
                               obj["support"], obj["fano_index"])


def load_collection(path):
    with open(path, "r", encoding="utf-8") as fh:
        return collection_from_json(json.load(fh))
