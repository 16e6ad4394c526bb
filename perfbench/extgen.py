"""Seeded inputs for the ext-bwb workload.

Everything here is plain data: collection files in the program's JSON
format and bundle descriptors in its descriptor grammar.  The same seed
gives the same inputs, byte for byte.  No qspectra code runs here.

A batch holds
- collections checked by the ``check --bwb`` command on registry
  varieties whose spectra are cheap (projective spaces, G(2,5) and
  IG(2,4): no zero fiber or a one-point one, so the spectrum split that
  the command also runs stays negligible);
- collections checked by the library on larger ambients, G(3,6) and
  G(3,7) directly and IG(2,8), IG(2,10) by the hyperplane route;
- Kuznetsov's collection on IG(2,10), whose answer is a theorem;
- explicit bundle pairs on the same larger ambients.
Every ordered pair (E, F) that a collection check or a pair operation
decides has a Serre-dual partner (F, E tensor omega) among the pair
operations, so half of all pairs check the other half.  Twists are
small, with a fixed share from a tail of large |t|: the cost of a twist
is linear in |t| when this benchmark was written.
"""

import json
import os
import random

# variety id -> (route, k, ambient n, Fano index m, dimension)
VARIETIES = {}
for _n in range(2, 7):
    VARIETIES["P%d" % _n] = ("grassmannian", 1, _n + 1, _n + 1, _n)
for _k, _n in ((2, 5), (3, 6), (3, 7)):
    VARIETIES["G(%d,%d)" % (_k, _n)] = ("grassmannian", _k, _n, _n,
                                        _k * (_n - _k))
for _n in (2, 4, 5):
    VARIETIES["IG(2,%d)" % (2 * _n)] = ("hyperplane", 2, 2 * _n, 2 * _n - 1,
                                        4 * _n - 5)

CLI_VARIETIES = ("P2", "P3", "P4", "P5", "P6", "G(2,5)", "IG(2,4)")
LIBRARY_VARIETIES = ("G(3,6)", "G(3,7)", "IG(2,8)", "IG(2,10)")

# Per batch.  Sizes are fixed, so that every seed asks for the same
# amount of work and only the bundles differ: collection i has the
# starting-block width and support SHAPES[i % len(SHAPES)] (supports of
# length at most 3 fit every variety here), and every TAIL_EVERY-th pair
# has a twist of magnitude from TAIL_TWISTS.
CLI_COLLECTIONS = 18
LIBRARY_COLLECTIONS = 18
SHAPES = ((1, (1, 1, 1)), (2, (2, 2)), (2, (2, 1, 1)), (3, (3, 2)),
          (3, (3, 3, 1)), (2, (2, 2, 2)))
PAIRS = 1500
TAIL_EVERY = 50
TAIL_TWISTS = (100, 200, 300, 400)

HEAVIEST = "kuznetsov IG(2,10)"


def _weight(rng, length, top):
    return sorted((rng.randint(0, top) for _ in range(length)), reverse=True)


def _atoms(rng, k, n):
    """The irreducible factors to choose from, as descriptors without
    twist; the Schur weights are drawn afresh on every call."""
    choices = ["O", "U*", "Q*", "S^2 U*", "S^3 U*"]
    if k >= 2:
        choices.append("S^(%d,%d) U*" % tuple(_weight(rng, 2, 3)))
    if n - k >= 2:
        choices.append("S^(%d,%d) Q*" % tuple(_weight(rng, 2, 2)))
    if n - k >= 3:
        choices.append("S^(%d,%d,%d) Q*" % tuple(_weight(rng, 3, 1)))
    return choices


def _bundle(rng, k, n, stratum=None, tensor=None):
    """Factors of an untwisted bundle: one, sometimes a tensor of two.

    With ``stratum`` the first factor is the stratum-th choice and
    ``tensor`` says whether a second one follows, so that a batch holds
    every kind of bundle in fixed proportions whatever the seed."""
    choices = _atoms(rng, k, n)
    if stratum is None:
        factors = [rng.choice(choices)]
        tensor = rng.random() < 0.15
    else:
        factors = [choices[stratum % len(choices)]]
    if tensor:
        factors.append(rng.choice(_atoms(rng, k, n)))
    return factors


def descriptor(factors, t):
    """Descriptor string with the twist on the first factor."""
    head = factors[0] + ("(%d)" % t if t else "")
    return " * ".join([head] + list(factors[1:]))


def _collection(rng, variety, slot):
    """A Lefschetz collection: a starting block of distinct descriptors
    and a non-increasing support, of the slot's fixed shape."""
    _route, k, n, m, _dim = VARIETIES[variety]
    width, support = SHAPES[slot % len(SHAPES)]
    if slot % 2 == 0:
        # blocks shaped like the Beilinson, Kapranov and Kuznetsov ones
        block = (["O", "U*", "S^2 U*"] if k >= 2
                 else ["O", "Q*", "S^(1,1) Q*"])[:width]
    else:
        pool = set()
        while len(pool) < width:
            pool.add(descriptor(_bundle(rng, k, n), 0))
        block = sorted(pool)
        rng.shuffle(block)
    return {"variety": variety, "fano_index": m,
            "starting_block": block, "support": list(support)}


def objects(coll):
    """(descriptor, twist) in Lefschetz order, as the program orders
    them."""
    out = []
    for twist, width in enumerate(coll["support"]):
        for desc in coll["starting_block"][:width]:
            out.append((desc, twist))
    return out


def label(desc, t):
    return "%s (%d)" % (desc, t) if t else desc


def collection_pairs(coll):
    """Ordered pairs a collection check decides, as (later, earlier)
    object indices: every object with itself, then every later object
    against every earlier one."""
    count = len(objects(coll))
    pairs = [(a, a) for a in range(count)]
    pairs += [(b, a) for b in range(count) for a in range(b)]
    return pairs


def _twisted(desc, t):
    # a block descriptor is untwisted, so its twist goes on the first factor
    parts = desc.split(" * ")
    return descriptor(parts, t)


def kuznetsov_ig2(n):
    """Kuznetsov's collection on IG(2,2n), as the program's builtin
    collection states it."""
    block = ["O" if i == 0 else "U*" if i == 1 else "S^%d U*" % i
             for i in range(n)]
    return {"variety": "IG(2,%d)" % (2 * n), "fano_index": 2 * n - 1,
            "starting_block": block,
            "support": [n] * (n - 1) + [n - 1] * n}


def generate(seed):
    """The batch for one seed: a JSON-ready dict."""
    rng = random.Random("ext-bwb/%d" % seed)
    collections = []
    for i in range(CLI_COLLECTIONS):
        variety = CLI_VARIETIES[i % len(CLI_VARIETIES)]
        collections.append(dict(_collection(rng, variety, i),
                                id="cli%d" % i, route="cli"))
    for i in range(LIBRARY_COLLECTIONS):
        variety = LIBRARY_VARIETIES[i % len(LIBRARY_VARIETIES)]
        collections.append(dict(_collection(rng, variety, i),
                                id="lib%d" % i, route="library"))
    collections.append(dict(kuznetsov_ig2(5), id=HEAVIEST, route="library"))

    pairs = []
    for c in collections:
        route, k, n, m, dim = VARIETIES[c["variety"]]
        objs = objects(c)
        for b, a in collection_pairs(c):
            (db, tb), (da, ta) = objs[b], objs[a]
            # Serre partner of (E_b, E_a): (E_a, E_b tensor omega)
            pairs.append({"id": "%s/%d,%d~" % (c["id"], b, a),
                          "of": "%s/%d,%d" % (c["id"], b, a),
                          "route": route, "k": k, "n": n, "dim": dim,
                          "E": _twisted(da, ta), "F": _twisted(db, tb - m)})
    for i in range(PAIRS):
        variety = LIBRARY_VARIETIES[i % len(LIBRARY_VARIETIES)]
        route, k, n, m, dim = VARIETIES[variety]
        # strata run over the pairs of each ambient in turn
        j = i // len(LIBRARY_VARIETIES)
        e, te = _bundle(rng, k, n, j, j % 7 == 3), rng.randint(-3, 3)
        f, tf = _bundle(rng, k, n, j // 8, j % 7 == 5), rng.randint(-3, 3)
        if i % TAIL_EVERY == 0:
            tf = (rng.choice((-1, 1))
                  * TAIL_TWISTS[i // TAIL_EVERY % len(TAIL_TWISTS)])
        base = {"route": route, "k": k, "n": n, "dim": dim}
        pairs.append(dict(base, id="p%d" % i, of=None,
                          E=descriptor(e, te), F=descriptor(f, tf)))
        pairs.append(dict(base, id="p%d~" % i, of="p%d" % i,
                          E=descriptor(f, tf), F=descriptor(e, te - m)))
    return {"seed": seed, "collections": collections, "pairs": pairs}


def write(batch, directory):
    """Write the collection files; returns the path of the batch file
    that lists them with the pair descriptors."""
    for c in batch["collections"]:
        body = {key: c[key] for key in ("variety", "fano_index",
                                        "starting_block", "support")}
        c["file"] = os.path.join(directory, "%s.json"
                                 % c["id"].replace(" ", "_")
                                 .replace("(", "").replace(")", "")
                                 .replace(",", "_"))
        with open(c["file"], "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
    path = os.path.join(directory, "batch.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(batch, fh)
    return path
