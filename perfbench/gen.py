"""Seeded input generation for the exchange benchmark.

Every workload's inputs are `.gdx` scenario texts (the format of
src/workload/scenario_parser.h) written to one directory plus a
`manifest.txt` that lists, one per line, the file each scenario index
solves. The same (workload, seed, size) always yields the same files, so
the measured child, the reference child and the traced child all see
identical inputs.
"""

import os
import random
import re

FLIGHT_STGD = ("stgd Flight(x1, x2, x3), Hotel(x1, x4) -> "
               "(x2, f . f*, y), (y, h, x4), (y, f . f*, x3)")
FLIGHT_EGD = "egd (x1, h, x3), (x2, h, x3) -> x1 = x2"
FLIGHT_SAMEAS = "sameas (x1, h, x3), (x2, h, x3) -> (x1, sameAs, x2)"
FLIGHT_QUERY = "query (x1, f . f* [h] . f- . (f-)*, x2) -> x1, x2"

MODES = ("none", "egd", "sameas")


def flight_text(facts, mode, query=True):
    """The Flight/Hotel setting of MakeFlightScenario over `facts`."""
    lines = ["relation Flight/3", "relation Hotel/2"]
    lines += facts
    lines.append(FLIGHT_STGD)
    if mode == "egd":
        lines.append(FLIGHT_EGD)
    elif mode == "sameas":
        lines.append(FLIGHT_SAMEAS)
    if query:
        lines.append(FLIGHT_QUERY)
    return "\n".join(lines) + "\n"


def flight_facts(rng, cities, flights, hotels, hotels_per_flight):
    """Random flights between distinct cities, each with hotel stops drawn
    from a shared pool — the sharing is what makes the egd merge cities
    (the MakeFlightScenario recipe)."""
    facts = []
    for i in range(flights):
        src = rng.randrange(cities)
        dst = rng.randrange(cities)
        if dst == src:
            dst = (dst + 1) % cities
        fid = "fl%d" % (i + 1)
        facts.append("fact Flight(%s, city%d, city%d)" %
                     (fid, src + 1, dst + 1))
        for _ in range(hotels_per_flight):
            facts.append("fact Hotel(%s, hotel%d)" %
                         (fid, rng.randrange(hotels) + 1))
    return facts


def example22_facts():
    """Example 2.2's instance (flights 01: c1 -> c2, 02: c3 -> c2)."""
    return ["fact Flight(01, c1, c2)", "fact Flight(02, c3, c2)",
            "fact Hotel(01, hx)", "fact Hotel(01, hy)", "fact Hotel(02, hx)"]


# --- random settings shaped like scripts/gen_scenarios.py -------------------

LABELS = ["a", "b", "c", "d", "hub"]
BODY_VARS = ["x", "y", "z"]
EGD_VARS = ["u1", "u2", "v1", "v2"]
# Witness-list sizes the engine enumerates per head NRE shape at the CLI's
# max_witnesses_per_edge = 3: a symbol or a concatenation has one witness,
# a union two, a star three (ε, a, aa).
SHAPE_WITNESSES = {"sym": 1, "cat": 1, "union": 2, "star": 3}
# Upper bound on a random setting's witness-combination space. Random
# settings are the many cheap scenarios; the hard share comes from
# hard_text, whose cost is fixed by construction. Without the cap one
# unlucky draw (scripts/gen_scenarios.py --seed 9 gen_0248: 940,897
# candidates) would swamp a run and make it seed-dependent.
MAX_RANDOM_COMBINATIONS = 1 << 10
# At most one egd per random setting: with two or more, the candidate
# repair fans the egds' matchers out over one graph, and at the seed
# commit that races (Graph::RawSignature) and can kill the process. The
# measured mix keeps such settings out (no operation may fail there);
# the self-test's crash probe raises the limit to 3 and checks that the
# supervisor records every such crash.
MAX_RANDOM_EGDS = 1


def _random_head(rng):
    nre = rng.choice(LABELS)
    shape = rng.random()
    kind = "sym"
    if shape < 0.15:
        nre += " . " + rng.choice(LABELS)
        kind = "cat"
    elif shape < 0.25:
        nre += " + " + rng.choice(LABELS)
        kind = "union"
    elif shape < 0.32:
        nre += "*"
        kind = "star"
    v1 = rng.choice(BODY_VARS)
    v2 = ("e%d" % rng.randint(1, 2)) if rng.random() < 0.45 \
        else rng.choice(BODY_VARS)
    return "(%s, %s, %s)" % (v1, nre, v2), kind


def _triggers(body, facts):
    """Number of body matches of a one- or two-atom R/S body."""
    first = [f for f in facts if f[0] == body[0][0]]
    if len(body) == 1:
        return len(first)
    second = [f for f in facts if f[0] == body[1][0]]
    return sum(1 for a in first for b in second if a[2] == b[1])


def random_text(rng, max_egds=MAX_RANDOM_EGDS):
    """One random R/S setting: complex NRE heads, up to `max_egds` egds
    (constant clashes refute some chases), no query; its
    witness-combination space is capped at MAX_RANDOM_COMBINATIONS."""
    while True:
        num_consts = rng.randint(3, 6)
        facts = []
        for _ in range(rng.randint(3, 8)):
            facts.append((rng.choice("RS"), rng.randrange(num_consts),
                          rng.randrange(num_consts)))
        lines = ["relation R/2", "relation S/2"]
        lines += ["fact %s(k%d, k%d)" % (r, a, b) for r, a, b in facts]
        combinations = 1
        for _ in range(rng.randint(1, 4)):
            body = [rng.choice("RS") + "xy"]
            if rng.random() < 0.3:
                body.append(rng.choice("SR") + "yz")
            heads = []
            per_trigger = 1
            for _ in range(2 if rng.random() < 0.4 else 1):
                head, kind = _random_head(rng)
                heads.append(head)
                per_trigger *= SHAPE_WITNESSES[kind]
            combinations *= per_trigger ** _triggers(body, facts)
            body_text = ", ".join("%s(%s, %s)" % (a[0], a[1], a[2])
                                  for a in body)
            lines.append("stgd %s -> %s" % (body_text, ", ".join(heads)))
        for _ in range(rng.randint(0, max_egds)):
            used = []
            atoms = []
            for _ in range(2 if rng.random() < 0.5 else 1):
                lbl = rng.choice(LABELS)
                if rng.random() < 0.2:
                    lbl += "*"
                v1, v2 = rng.choice(EGD_VARS), rng.choice(EGD_VARS)
                used += [v1, v2]
                atoms.append("(%s, %s, %s)" % (v1, lbl, v2))
            lines.append("egd %s -> %s = %s" %
                         (", ".join(atoms), rng.choice(used),
                          rng.choice(used)))
        if combinations <= MAX_RANDOM_COMBINATIONS:
            return "\n".join(lines) + "\n"


def hard_text(rng, bits):
    """A bounded-search instance whose cost is fixed by construction:
    `bits` R facts forming a random tree over distinct constants, each
    realised by a head `p + q . q` (two witnesses, not flat, so no SAT
    shortcut), and an egd that makes every `p` edge a constant clash. The
    only solution picks `q . q` everywhere — the last of the 2^bits
    ranks — so the search tries exactly 2^bits candidates and answers
    YES. The tree's shape makes each instance's content distinct."""
    p, q = rng.sample(LABELS, 2)
    lines = ["relation R/2"]
    for i in range(1, bits + 1):
        parent = rng.randrange(i)
        edge = (parent, i) if rng.random() < 0.5 else (i, parent)
        lines.append("fact R(n%d, n%d)" % edge)
    lines.append("stgd R(x, y) -> (x, %s + %s . %s, y)" % (p, q, q))
    lines.append("egd (u1, %s, v1) -> u1 = v1" % p)
    return "\n".join(lines) + "\n"


TOKEN = re.compile(r"[A-Za-z0-9_]+")
KEYWORDS = {"relation", "fact", "stgd", "egd", "sameas", "query", "R", "S",
            "Flight", "Hotel", "sameAs", "x", "y", "z", "x1", "x2", "x3",
            "x4", "e1", "e2", "u1", "u2", "v1", "v2"}


def canonical(text):
    """The text with constants and edge labels renamed by first
    appearance. The engine interns both in that order, so two texts with
    equal canonical forms have equal memo keys; the generators keep only
    one of each."""
    names = {}

    def rename(match):
        token = match.group(0)
        if token in KEYWORDS or token.isdigit() and len(token) == 1:
            return token
        if token not in names:
            names[token] = "t%d" % len(names)
        return names[token]

    return TOKEN.sub(rename, text)


class Distinct:
    """Rejects texts whose canonical form was already produced."""

    def __init__(self):
        self.seen = set()

    def add(self, text):
        key = canonical(text)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


# --- workloads --------------------------------------------------------------


def _write(out_dir, items):
    """items: list of (file name, text) in scenario-index order; equal
    names share one file. Returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    written = set()
    for name, text in items:
        if name in written:
            continue
        with open(os.path.join(out_dir, name), "w") as f:
            f.write(text)
        written.add(name)
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w") as f:
        for name, _ in items:
            f.write(os.path.join(out_dir, name) + "\n")
    return manifest


def flight_shapes(rng, count, cities, extra_flights, stops, distinct):
    """`count` distinct query-bearing Flight/Hotel shapes, the three
    constraint modes in turn: a city count drawn from the inclusive range
    `cities`, that many flights plus `extra_flights`, half as many hotels
    (at least two) and `stops` hotel stops per flight."""
    shapes = []
    while len(shapes) < count:
        mode = MODES[len(shapes) % 3]
        n = rng.randint(*cities)
        facts = flight_facts(rng, n, n + extra_flights, max(2, n // 2),
                             stops)
        text = flight_text(facts, mode)
        if distinct.add(text):
            shapes.append(("fl_%04d_%s.gdx" % (len(shapes), mode), text))
    return shapes


def example22_shapes(distinct):
    shapes = []
    for mode in MODES:
        text = flight_text(example22_facts(), mode)
        distinct.add(text)
        shapes.append(("ex22_%s.gdx" % mode, text))
    return shapes


def make_certain_flights(rng, size, out_dir):
    """Example 2.2 under all three modes plus seeded 6-8 city shapes;
    every shape recurs `repeats` times in each batch."""
    distinct = Distinct()
    shapes = example22_shapes(distinct) + flight_shapes(
        rng, size["flight_shapes"], (6, 8), 2, 2, distinct)
    batch = []
    for _ in range(size["repeats"]):
        batch.extend(shapes)
    rng.shuffle(batch)
    return _write(out_dir, batch)


def make_search_random(rng, size, out_dir):
    """Distinct random settings; every `hard_every`-th one is a hard
    bounded-search instance of exactly 2^hard_bits candidates."""
    distinct = Distinct()
    items = []
    while len(items) < size["pool"]:
        i = len(items)
        if i % size["hard_every"] == size["hard_every"] - 1:
            name, text = "hard_%05d.gdx" % i, hard_text(rng,
                                                         size["hard_bits"])
        else:
            name, text = "rand_%05d.gdx" % i, random_text(
                rng, size.get("max_egds", MAX_RANDOM_EGDS))
        if distinct.add(text):
            items.append((name, text))
    return _write(out_dir, items)


def make_large_egd(rng, size, out_dir):
    """A few large egd Flight/Hotel instances without a query. The loop
    cycles them and clears the engine cache at each wrap, so every solve
    chases, repairs, evaluates and verifies its graph on cold memos.
    Every hotel serves the same number of flights, so the egd merges
    groups of one size in every instance and the instances' costs differ
    only through their random routes."""
    flights = size["flights"]
    cities = flights // 4
    hotels = flights // size["flights_per_hotel"]
    items = []
    for i in range(size["pool"]):
        stops = list(range(flights))
        rng.shuffle(stops)
        facts = []
        for k in range(flights):
            src = rng.randrange(cities)
            dst = rng.randrange(cities - 1)
            dst += dst >= src
            facts.append("fact Flight(fl%d, city%d, city%d)"
                         % (k + 1, src + 1, dst + 1))
            facts.append("fact Hotel(fl%d, hotel%d)"
                         % (k + 1, stops[k] % hotels + 1))
        items.append(("large_%04d.gdx" % i,
                      flight_text(facts, "egd", query=False)))
    return _write(out_dir, items)


def make_serve_mixed(rng, size, out_dir):
    """Two request streams of Example-2.2-sized Flight/Hotel scenarios:
    repeated hot shapes (warm hits) and distinct fresh instances (misses;
    more than the chased memo's 1024 entries over a run, so the memos
    also evict). The hot set is one fixed catalogue — Example 2.2 under
    all three modes plus 2-3 flight shapes — the service's popular
    requests; the seed draws the fresh instances and which hot shape each
    request asks for. (Hot shapes' costs are heavy-tailed: a per-seed set
    of them would move the mean request cost by 10%.)"""
    distinct = Distinct()
    hot = example22_shapes(distinct) + flight_shapes(
        random.Random("serve-mixed/hot"), size["hot_shapes"], (3, 4), -1, 2,
        distinct)
    fresh = []
    while len(fresh) < size["fresh"]:
        facts = flight_facts(rng, rng.randint(3, 4), rng.randint(2, 3),
                             rng.randint(2, 3), rng.randint(1, 2))
        text = flight_text(facts, ("egd", "sameas")[len(fresh) % 2])
        if distinct.add(text):
            fresh.append(("fresh_%05d.gdx" % len(fresh), text))
    _write(os.path.join(out_dir, "hot"), hot)
    return _write(os.path.join(out_dir, "fresh"), fresh)


MAKERS = {
    "certain-flights": make_certain_flights,
    "search-random": make_search_random,
    "large-egd": make_large_egd,
    "serve-mixed": make_serve_mixed,
}


def make_inputs(workload, seed, size, out_dir):
    """Writes the workload's inputs for `seed`; returns the manifest."""
    rng = random.Random("%s/%d" % (workload, seed))
    return MAKERS[workload](rng, size, out_dir)
