"""Seeded input generators for the three workloads.

Everything the program under test receives is made here from the
``--seed`` argument alone, with the benchmark's own generators (not the
package's ``repro.datasets``), so a change to the package cannot change
the inputs it is measured on.  Sizes are fixed; the seed moves edge
placement, sources and the request/mutation streams.  The README lists
the make-up of every input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# -- edge sets ---------------------------------------------------------------


def _dedup(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.unique(np.stack([rows, cols], axis=1).astype(np.int64), axis=0)
    return pairs[:, 0], pairs[:, 1]


@dataclass(frozen=True)
class Family:
    """One square boolean matrix of the paper-ops round (COO, deduplicated)."""

    name: str
    n: int
    rows: np.ndarray
    cols: np.ndarray


def uniform_family(rng, n: int, m: int) -> Family:
    r, c = _dedup(rng.integers(0, n, m), rng.integers(0, n, m))
    return Family("uniform", n, r, c)


#: Zipf exponent of the power-law family: milder than E0's 2.1, which
#: puts two thirds of all endpoints on one vertex and leaves a few
#: hundred distinct entries.
POWER_LAW_EXPONENT = 0.8


def power_law_family(rng, n: int, m: int) -> Family:
    """Zipf-like endpoints: a few huge rows, the SpGEMM binning stress case."""
    w = np.arange(1, n + 1, dtype=np.float64) ** (-POWER_LAW_EXPONENT)
    w /= w.sum()
    perm = rng.permutation(n)
    r, c = _dedup(perm[rng.choice(n, m, p=w)], perm[rng.choice(n, m, p=w)])
    return Family("power-law", n, r, c)


def grid_family(rng, side: int) -> Family:
    """Directed 2-D grid (right and down edges) under a seeded relabelling."""
    v = np.arange(side * side).reshape(side, side)
    rows = np.concatenate([v[:, :-1].ravel(), v[:-1, :].ravel()])
    cols = np.concatenate([v[:, 1:].ravel(), v[1:, :].ravel()])
    perm = rng.permutation(side * side)
    r, c = _dedup(perm[rows], perm[cols])
    return Family("grid", side * side, r, c)


def fan_hub_family(rng, k: int) -> Family:
    """k sources -> one hub -> k sinks: k^2 products from 2k edges."""
    n = 2 * k + 1
    perm = rng.permutation(n)
    hub = k
    src = np.arange(k)
    rows = np.concatenate([src, np.full(k, hub)])
    cols = np.concatenate([np.full(k, hub), k + 1 + src])
    r, c = _dedup(perm[rows], perm[cols])
    return Family("fan-hub", n, r, c)


def block_family(rng, blocks: int, size: int, degree: float) -> Family:
    """Many small random digraphs side by side (relabelled).

    The closure input: one random digraph near mean degree 1 has a
    closure whose size swings with the seed (percolation), while the sum
    over many independent blocks barely moves.
    """
    k = int(size * degree)
    base = np.repeat(np.arange(blocks) * size, k)
    rows = base + rng.integers(0, size, blocks * k)
    cols = base + rng.integers(0, size, blocks * k)
    perm = rng.permutation(blocks * size)
    r, c = _dedup(perm[rows], perm[cols])
    return Family("closure", blocks * size, r, c)


def aligned_block_family(rng, blocks: int, size: int, density: float) -> Family:
    """Random blocks on the diagonal, not relabelled: with ``size`` equal
    to the hybrid backend's tile, each block fills its own tile, and the
    tile grid is empty off the diagonal."""
    k = int(size * size * density)
    base = np.repeat(np.arange(blocks) * size, k)
    r, c = _dedup(base + rng.integers(0, size, blocks * k),
                  base + rng.integers(0, size, blocks * k))
    return Family("tile-blocks", blocks * size, r, c)


@dataclass(frozen=True)
class HierarchyGraph:
    """A forest of ``subClassOf`` edges (child -> parent) for the CFPQ index."""

    n: int
    edges: dict  # label -> (rows, cols), with the inverse label present


def hierarchy(rng, n: int, roots: int) -> HierarchyGraph:
    parent = np.empty(n - roots, dtype=np.int64)
    children = np.arange(roots, n)
    # Each vertex picks a parent among the vertices before it: a random
    # recursive forest whose depth grows like log n.
    parent[:] = (rng.random(n - roots) * children).astype(np.int64)
    perm = rng.permutation(n)
    r, c = perm[children], perm[parent]
    return HierarchyGraph(n, {"subClassOf": (r, c), "~subClassOf": (c, r)})


@dataclass(frozen=True)
class PaperOpsInput:
    families: list
    hybrid: list             # squared on the hybrid dispatcher
    tile: tuple[np.ndarray, np.ndarray]
    submatrix: dict          # family name -> (i, j, nrows, ncols)
    closure: Family          # block-diagonal random digraphs
    cfpq_graph: HierarchyGraph
    cfpq_grammar: str


#: Same-generation query over ``subClassOf`` (the paper's G2, Eq. 2).
G2_TEXT = "S -> ~subClassOf S subClassOf | subClassOf"


def paper_ops_input(seed: int) -> PaperOpsInput:
    rng = np.random.default_rng([seed, 1])
    families = [
        uniform_family(rng, 1000, 8000),
        power_law_family(rng, 2000, 5000),
        grid_family(rng, 40),
        fan_hub_family(rng, 200),
    ]
    sub = {}
    for f in families:
        h = f.n // 2
        sub[f.name] = (int(rng.integers(0, f.n - h)), int(rng.integers(0, f.n - h)), h, h)
    closure = block_family(rng, 100, 30, 1.1)
    cfpq_graph = hierarchy(rng, 1500, 6)
    dense = uniform_family(rng, 1024, 10_000)
    return PaperOpsInput(
        families=families,
        hybrid=[Family("dense", dense.n, dense.rows, dense.cols),
                aligned_block_family(rng, 4, 256, 0.03)],
        tile=(np.array([0, 1, 2, 0]), np.array([1, 2, 0, 0])),
        submatrix=sub,
        closure=closure,
        cfpq_graph=cfpq_graph,
        cfpq_grammar=G2_TEXT,
    )


# -- LUBM-like university graph -----------------------------------------------

UNIVERSITIES = 2
DEPTS_PER_UNI = 10
GROUPS_PER_DEPT = 4
PROFS_PER_DEPT = 9
STUDENTS_PER_DEPT = 90
COURSES_PER_DEPT = 12
CLASSES = 8


@dataclass
class University:
    """LUBM-shaped labelled graph; ``edges`` maps label -> set of (u, v)."""

    n: int
    edges: dict
    kinds: dict = field(default_factory=dict)  # entity kind -> vertex ids

    def arrays(self, label: str) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets) of ``label``'s edges, unsorted: every
        consumer builds a pattern or a vertex set from them."""
        pairs = self.edges.get(label, ())
        a = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64,
                        count=2 * len(pairs)).reshape(-1, 2)
        return a[:, 0], a[:, 1]


#: Labels that get an explicit inverse relation ``~label`` (CFPQ input).
INVERSE_LABELS = ("subOrganizationOf", "advisor", "worksFor")


def university(seed: int) -> University:
    rng = np.random.default_rng([seed, 2])
    n_dept = UNIVERSITIES * DEPTS_PER_UNI
    n_group = n_dept * GROUPS_PER_DEPT
    n_prof = n_dept * PROFS_PER_DEPT
    n_stud = n_dept * STUDENTS_PER_DEPT
    n_course = n_dept * COURSES_PER_DEPT
    counts = [
        ("class", CLASSES), ("university", UNIVERSITIES), ("department", n_dept),
        ("group", n_group), ("professor", n_prof), ("student", n_stud),
        ("course", n_course),
    ]
    n = sum(c for _, c in counts)
    # Vertex ids are shuffled so entity kinds do not sit in blocks.
    perm = rng.permutation(n)
    kinds, off = {}, 0
    for kind, count in counts:
        kinds[kind] = perm[off:off + count]
        off += count
    uni, dept, group = kinds["university"], kinds["department"], kinds["group"]
    prof, stud, course = kinds["professor"], kinds["student"], kinds["course"]
    d_of_group = np.arange(n_group) // GROUPS_PER_DEPT
    d_of_prof = np.arange(n_prof) // PROFS_PER_DEPT
    d_of_stud = np.arange(n_stud) // STUDENTS_PER_DEPT
    d_of_course = np.arange(n_course) // COURSES_PER_DEPT

    edges: dict[str, set] = {}

    def add(label, rows, cols):
        edges.setdefault(label, set()).update(
            zip(np.asarray(rows).tolist(), np.asarray(cols).tolist())
        )

    add("subOrganizationOf", dept, uni[np.arange(n_dept) // DEPTS_PER_UNI])
    add("subOrganizationOf", group, dept[d_of_group])
    add("worksFor", prof, dept[d_of_prof])
    add("memberOf", stud, dept[d_of_stud])
    adv = d_of_stud * PROFS_PER_DEPT + rng.integers(0, PROFS_PER_DEPT, n_stud)
    add("advisor", stud, prof[adv])
    teach = d_of_course * PROFS_PER_DEPT + rng.integers(0, PROFS_PER_DEPT, n_course)
    add("teacherOf", prof[teach], course)
    for _ in range(3):
        pick = d_of_stud * COURSES_PER_DEPT + rng.integers(0, COURSES_PER_DEPT, n_stud)
        add("takesCourse", stud, course[pick])
    cls = kinds["class"]
    for i, kind in enumerate(("university", "department", "group", "professor",
                              "student", "course")):
        add("type", kinds[kind], np.full(len(kinds[kind]), cls[i]))
    add("subClassOf", cls[1:], cls[:-1])
    # Publication noise: professors to random courses anywhere.
    add("publicationAuthor", prof[rng.integers(0, n_prof, 2 * n_prof)],
        course[rng.integers(0, n_course, 2 * n_prof)])
    for label in INVERSE_LABELS:
        edges["~" + label] = {(v, u) for u, v in edges[label]}
    return University(n=n, edges=edges, kinds=kinds)


# -- read-mix request stream -------------------------------------------------

#: Table II templates instantiated over this schema's frequent relations.
#: (template, regex, label whose source side seeds the source vertex).
REACH_QUERIES = [
    ("Q1", "advisor*", "advisor"),
    ("Q2", "takesCourse . teacherOf*", "takesCourse"),
    ("Q3", "advisor . worksFor* . subOrganizationOf*", "advisor"),
    ("Q4_2", "(subOrganizationOf | worksFor)*", "worksFor"),
    ("Q5", "memberOf . ~subOrganizationOf* . subOrganizationOf", "memberOf"),
    ("Q6", "advisor* . worksFor*", "advisor"),
    ("Q7", "advisor . teacherOf . type*", "advisor"),
    ("Q8", "advisor? . worksFor*", "advisor"),
    ("Q9_2", "(advisor | worksFor)+", "advisor"),
    ("Q10_2", "(advisor | memberOf) . subOrganizationOf*", "advisor"),
    ("Q11_2", "takesCourse . ~advisor", "takesCourse"),
    ("Q11_3", "advisor . ~advisor . takesCourse", "advisor"),
    ("Q12", "(advisor . worksFor)+ | (memberOf . subOrganizationOf)+", "advisor"),
    ("Q14", "(advisor . worksFor . (~worksFor . worksFor)*)+ . (type | subOrganizationOf)*",
     "advisor"),
    ("Q15", "(advisor | worksFor)+ . (subOrganizationOf | type)+", "advisor"),
    ("Q16", "advisor . worksFor . (subOrganizationOf | type | ~worksFor)", "advisor"),
]

#: All-pairs RPQs (answers of at most a few thousand pairs).
PAIRS_QUERIES = [
    "advisor . worksFor . subOrganizationOf",
    "worksFor . ~worksFor",
    "subOrganizationOf+",
    "teacherOf . ~teacherOf",
]

#: Same-generation grammars ``S -> a S b | a b`` as (a, b) label pairs.
CFPQ_GRAMMARS = [
    ("subOrganizationOf", "~subOrganizationOf"),
    ("~subOrganizationOf", "subOrganizationOf"),
    ("advisor", "~advisor"),
]

#: Min-plus edge weights for every label of the graph (integers, so
#: float sums are exact).
DIST_WEIGHTS = {
    "subOrganizationOf": 3.0, "worksFor": 2.0, "memberOf": 2.0, "advisor": 1.0,
    "teacherOf": 4.0, "takesCourse": 1.0, "type": 7.0, "publicationAuthor": 5.0,
    "subClassOf": 1.0, "~subOrganizationOf": 1.0, "~advisor": 1.0, "~worksFor": 1.0,
}


def grammar_text(a: str, b: str) -> str:
    return f"S -> {a} S {b} | {a} {b}"


#: One deck of read-mix requests per client: kind -> requests per deck.
#: Decks are shuffled per seed and dealt in order, so every run sends
#: the same mix (a random draw per request would make the count of the
#: costly kinds, and with it throughput, differ from seed to seed).
READ_DECK = {"reach": 67, "repeat": 22, "pairs": 5, "cfpq": 4, "dist": 2}
#: "repeat" requests exactly repeat one of the client's last
#: REPEAT_WINDOW fresh single-source requests (result-cache hits).
REPEAT_WINDOW = 32


def read_stream(seed: int, client: int, g: University):
    """Endless request generator for one client: (kind, query_index, source).

    Single-source RPQs pick a template uniformly and a source among the
    vertices with an out-edge of the template's first label; all-pairs
    and CFPQ requests cycle through their small pools (after the first
    round they are exact repeats); distance queries draw a fresh source.
    """
    rng = np.random.default_rng([seed, 3, client])
    sources = {}
    for _, _, label in REACH_QUERIES:
        if label not in sources:
            sources[label] = np.unique(g.arrays(label)[0])
    deck = [k for k, count in READ_DECK.items() for _ in range(count)]
    recent: list = []
    pools = {"pairs": len(PAIRS_QUERIES), "cfpq": len(CFPQ_GRAMMARS)}
    turn = {"pairs": client, "cfpq": client}
    while True:
        for kind in rng.permutation(deck):
            if kind == "repeat" and recent:
                yield recent[int(rng.integers(0, len(recent)))]
            elif kind in ("reach", "repeat"):
                qi = int(rng.integers(0, len(REACH_QUERIES)))
                pool = sources[REACH_QUERIES[qi][2]]
                req = ("reach", qi, int(pool[int(rng.integers(0, len(pool)))]))
                recent.append(req)
                del recent[:-REPEAT_WINDOW]
                yield req
            elif kind in pools:
                yield (str(kind), turn[kind] % pools[kind], -1)
                turn[kind] += 1
            else:
                yield ("dist", 0, int(rng.integers(0, g.n)))


def warmup_requests() -> list:
    """Every all-pairs and CFPQ request once: their first evaluation fills
    the result cache before timing, as it would on a long-running server."""
    return ([("pairs", i, -1) for i in range(len(PAIRS_QUERIES))]
            + [("cfpq", i, -1) for i in range(len(CFPQ_GRAMMARS))])


# -- write-fresh mutation stream ---------------------------------------------

#: Standing queries re-asked after each write: (kind, query, source
#: label); a CFPQ's query is the (a, b) label pair of its same-generation
#: grammar.  Each keeps one source for the whole run, so every re-ask has
#: an older cached answer to warm-start from; all of them read labels
#: the mutations touch.
STANDING_QUERIES = [
    ("reach", "advisor . worksFor . subOrganizationOf*", "advisor"),
    ("reach", "(advisor | worksFor)+", "advisor"),
    ("reach", "takesCourse . ~advisor*", "takesCourse"),
    ("pairs", "advisor . worksFor", None),
    ("cfpq", ("worksFor", "~worksFor"), None),
]
#: Sizes of add batches and their shares.
BATCH_SIZES = (1, 4, 16, 64)
BATCH_SHARES = (0.5, 0.25, 0.15, 0.10)
#: Share of batches that instead remove every edge added since the last
#: removal, which keeps the graph at its initial size on average (an
#: add-heavy stream would grow it, and every later op would cost more).
REMOVE_SHARE = 0.2
MUTATED_LABELS = ("advisor", "worksFor", "takesCourse")


def standing_sources(seed: int, g: University) -> list:
    rng = np.random.default_rng([seed, 5])
    out = []
    for _, _, label in STANDING_QUERIES:
        if label is None:
            out.append(-1)
            continue
        pool = np.unique(g.arrays(label)[0])
        out.append(int(pool[int(rng.integers(0, len(pool)))]))
    return out


def write_stream(seed: int, g: University):
    """Endless generator of mutation batches.

    Each item is a list of ("add"|"remove", label, [(u, v), ...]).  Adds
    draw schema-shaped edges absent from the graph (student -> professor,
    professor -> department, student -> course); a removal batch takes
    back everything added since the previous one.  Labels with an
    inverse relation get the mirrored delta too.  The generator reads
    the live edge sets of ``g``, which the caller keeps as its mirror of
    the store by applying each batch before drawing the next.
    """
    rng = np.random.default_rng([seed, 4])
    ends = {
        "advisor": (g.kinds["student"], g.kinds["professor"]),
        "worksFor": (g.kinds["professor"], g.kinds["department"]),
        "takesCourse": (g.kinds["student"], g.kinds["course"]),
    }
    pending: dict[str, list] = {}
    while True:
        if pending and rng.random() < REMOVE_SHARE:
            deltas = [("remove", label, pairs) for label, pairs in sorted(pending.items())]
            pending = {}
        else:
            size = BATCH_SIZES[int(rng.choice(len(BATCH_SIZES), p=BATCH_SHARES))]
            label = MUTATED_LABELS[int(rng.integers(0, len(MUTATED_LABELS)))]
            a, b = ends[label]
            adds: list = []
            while len(adds) < size:
                e = (int(a[rng.integers(0, len(a))]), int(b[rng.integers(0, len(b))]))
                if e not in g.edges[label] and e not in adds:
                    adds.append(e)
            pending.setdefault(label, []).extend(adds)
            deltas = [("add", label, adds)]
        deltas += [(op, "~" + label, [(v, u) for u, v in pairs])
                   for op, label, pairs in list(deltas) if "~" + label in g.edges]
        yield deltas


def apply_to_mirror(g: University, deltas) -> None:
    """Set semantics, in batch order: add unions, remove differences."""
    for op, label, pairs in deltas:
        edges = g.edges.setdefault(label, set())
        if op == "add":
            edges.update(pairs)
        else:
            edges.difference_update(pairs)
