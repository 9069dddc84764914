"""Exact solvers for seven domination invariants, with certificates.

Invariants: ``gamma`` (domination), ``gamma_t`` (total domination),
``gamma_2t`` (double total domination), ``rho`` (2-packing, a maximum),
``gamma_R`` (Roman domination), ``gamma_r`` (weak Roman domination) and
``gamma_s`` (secure domination).

Strategy.  ``gamma``, ``gamma_t`` and ``gamma_2t`` use cardinality-iterative
subset enumeration in ascending lexicographic order with branch-and-bound
pruning on vertices that can no longer be covered, and on a coverage
deficit no vertex left can make up.  A feasible set covers every vertex
once (``gamma``, ``gamma_t``) or twice (``gamma_2t``), a goal of n or 2n in
|once| + |twice|, and one chosen vertex raises that sum by at most its
coverer size, |N[v]| or |N(v)|.  So k more vertices, taken from index e
on, make up at most k times the largest coverer there, and the size rises
from ceil(goal / largest coverer).  The function-valued invariants iterate
a target weight t upward from a computed lower bound and enumerate
candidate (V2, V1) placements of that weight, rejecting candidates whose
positive set cannot dominate before running the defence check.  Every
Roman and every weak Roman dominating function has a dominating positive
set V1 | V2, so |V1| + |V2| = t - |V2| >= gamma(G) and the plain searches
cap |V2| at t - gamma(G).  A secure dominating set is V1 of a weak Roman
dominating function with V2 empty, so ``gamma_s`` runs the ``gamma_r``
search with V2 held empty, its size rising from ceil(n / (Delta + 1)), as
the set dominates.  When the input is a lexicographic product with a
noncomplete second factor, the ``gamma_r`` weight starts at the
product lower bound max(gamma_t(G), P, C).  C is the copy-weight
programme: the least total of copy weights w on V(G) such that each
vertex x meets an entry (a, b) of the vertex table M(H) with w_x >= a and
w(N_G(x)) >= b.  M(H) lists the least weight a on a copy that keeps it
dominated and defended when its neighbour copies hold b = 2, 1 or 0
legions: 0, the least |S| with H - N[S] a clique, and gamma_r(H).  It is
built once per piece.  P is the heaviest 2-packing of G in which a
support vertex of degree at least 2 weighs lambda(H) and every other
vertex weighs 2.  lambda(H), the least weight on P3 o H that dominates
and defends the copies of a leaf and its support, is the same programme
on P3 with only the leaf and the support constrained, so it is read off
M(H) with no search.  C alone is at least gamma_r(G), gamma_t(G) and P,
so the start raises every term of the ``lex_lower_max`` claim
max(gamma_r(G), gamma_t(G), 2 rho(G)).  gamma_t(G) and P only pick the
programme's first weight, and skip it when they reach the upper bound
2 gamma_t(G).  A counted branch and bound solves the programme on G; on a
cycle it reaches n where the other terms stop near 2n / 3.  The weights
below the start are never searched.  :func:`_gamma_r_connected` proves
the bound, and ``tests/test_support_bound.py`` checks it.  A greedy
lookahead prunes a placement once the legions left cannot bring each
closed copy neighbourhood still open to its demand.  The demand is weight
2, which every weak Roman dominating function puts there (the
``copy_lemma`` claim), raised to lambda(H) on the copies of N_G[s] for
each support s of degree at least 2: the weights P was taken under, by
the same proof.  The lookahead prunes if either of two greedy bounds exceeds the legions
left: demand 2 in index order, or the raised demand with the support
neighbourhoods first.

Defence checkpoints.  The weak Roman search places legions in flat index
order and checks a vertex's defence once before the leaf: when its last
possible defender is decided.  One prefix mask per index (the due mask)
gives the vertices whose check falls due below that index, so a step from
index d to e checks all of them at once as one mask.  One bitmask kernel,
:func:`_undefended`, runs those checks and the leaf test; it returns the
undefended vertices, and memoises the meet of the closed neighbourhoods
that each breakable mask asks a mover to reach.
Each node stops its candidates at a horizon past which every check is
known to fail, and the last legion's checks and the leaf test are one
kernel call.

Every search is a generator that yields its hits in one fixed global
order - the lexicographic order of (sorted V2, sorted V1) index sequences
(or of the sorted set, for set invariants).  The first hit is the canonical
certificate and an enumeration iterates on, so value, certificate, node
count and budget verdict do not depend on anything but the input.

Symmetry cuts.  The weak Roman search skips functions that a graph
automorphism maps to a smaller key (lex-leader cuts; Crawford, Ginsberg,
Luks & Roy, KR 1996).  Two kinds of automorphism are used:

* Twins - vertices with equal open or equal closed neighbourhoods - can be
  swapped.  So a vertex may join V2 only if its previous twin is in V2, and
  V1 only if its previous twin is in V2 or V1.  This applies to every piece.
* On a lexicographic product G o H, each automorphism of H acts on one copy
  of H on its own (Sabidussi, Duke Math. J. 26, 1959).  Once a copy is
  decided, the search drops it if some such automorphism maps the copy's
  (V2, V1) pattern to a smaller key.  Only the automorphisms that keep each
  twin class of H in index order are tried; the twin rule covers the rest.

Soundness: an automorphism maps weak Roman dominating functions to weak
Roman dominating functions of the same weight, and every orbit has a least
member, which passes both cuts.  So a weight with no surviving function has
no function at all, and the canonical certificate, the least function of
its weight, is found first as before.  The cuts drop optima, so
:func:`enumerate_optimal_wrdf` streams its optima from the same search
with them off.

The :func:`oracle` function recomputes every invariant by an exhaustive
scan (2^n subsets or 3^n functions) using only the raw definitional
predicates; it shares no search code with :func:`solve` and exists to
cross-validate it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    UndefinedInvariantError,
    VertexSet,
    _as_mask,
    _bits,
    is_2packing,
    is_dominating,
    is_double_total_dominating,
    is_secure_dominating,
    is_total_dominating,
)
from .products import ProductGraph

INVARIANTS = ("gamma", "gamma_t", "gamma_2t", "rho", "gamma_R", "gamma_r", "gamma_s")
SET_INVARIANTS = ("gamma", "gamma_t", "gamma_2t", "rho", "gamma_s")
FUNCTION_INVARIANTS = ("gamma_R", "gamma_r")


class BudgetExceededError(RuntimeError):
    """Search stopped by a resource cap; carries the proven interval."""

    def __init__(self, invariant: str, lower: int, upper: int):
        self.invariant = invariant
        self.lower = lower
        self.upper = upper
        super().__init__(f"budget exceeded solving {invariant}: value in [{lower}, {upper}]")


# ---------------------------------------------------------------------------
# Legion functions and their raw predicates
# ---------------------------------------------------------------------------


class LegionFunction:
    """An assignment V -> {0, 1, 2}, stored as the pair of bitmasks (V1, V2).

    Equivalently the ordered partition (V0, V1, V2); the weight is
    |V1| + 2 |V2|.
    """

    __slots__ = ("n", "v1_mask", "v2_mask")

    def __init__(self, n: int, v1_mask: int, v2_mask: int):
        if v1_mask & v2_mask:
            raise GraphError("V1 and V2 must be disjoint")
        if (v1_mask | v2_mask) >> n:
            raise GraphError(f"assignment has bits outside 0..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v1_mask", v1_mask)
        object.__setattr__(self, "v2_mask", v2_mask)

    def __setattr__(self, name, value):
        raise AttributeError("LegionFunction is immutable")

    @classmethod
    def from_sets(cls, n: int, v1, v2) -> "LegionFunction":
        return cls(n, _as_mask(n, v1), _as_mask(n, v2))

    @classmethod
    def from_values(cls, values) -> "LegionFunction":
        vals = list(values)
        m1 = m2 = 0
        for v, x in enumerate(vals):
            if x == 1:
                m1 |= 1 << v
            elif x == 2:
                m2 |= 1 << v
            elif x != 0:
                raise GraphError(f"legion count {x} at vertex {v} not in {{0,1,2}}")
        return cls(len(vals), m1, m2)

    def value(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range 0..{self.n - 1}")
        if self.v2_mask >> v & 1:
            return 2
        return self.v1_mask >> v & 1

    __getitem__ = value

    def values(self) -> tuple[int, ...]:
        return tuple(self.value(v) for v in range(self.n))

    @property
    def v0(self) -> VertexSet:
        return VertexSet(self.n, ~(self.v1_mask | self.v2_mask) & ((1 << self.n) - 1))

    @property
    def v1(self) -> VertexSet:
        return VertexSet(self.n, self.v1_mask)

    @property
    def v2(self) -> VertexSet:
        return VertexSet(self.n, self.v2_mask)

    @property
    def weight(self) -> int:
        return self.v1_mask.bit_count() + 2 * self.v2_mask.bit_count()

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The canonical comparison key: (sorted V2, sorted V1)."""
        return (tuple(_bits(self.v2_mask)), tuple(_bits(self.v1_mask)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LegionFunction)
            and (self.n, self.v1_mask, self.v2_mask)
            == (other.n, other.v1_mask, other.v2_mask)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.v1_mask, self.v2_mask))

    def __repr__(self) -> str:
        return f"LegionFunction(V1={sorted(self.v1)}, V2={sorted(self.v2)})"


def is_undefended(g: Graph, f: LegionFunction, v: int) -> bool:
    """No legion anywhere in the closed neighbourhood of v."""
    g._check_vertex(v)
    return g.closed[v] & (f.v1_mask | f.v2_mask) == 0


def is_wrdf(g: Graph, f: LegionFunction) -> bool:
    """Weak Roman dominating function test, straight from the definition.

    Every vertex with no legions must have a neighbour that can send it a
    legion without leaving any vertex undefended; after the move the
    positive set is (V1 | V2 | {v}), minus u when f(u) = 1, and validity is
    that this set dominates.
    """
    pos = f.v1_mask | f.v2_mask
    full = (1 << g.n) - 1
    for v in _bits(full & ~pos):
        bv = 1 << v
        defended = False
        for u in _bits(g.adj[v] & pos):
            moved = pos | bv
            if f.v1_mask >> u & 1:
                moved &= ~(1 << u)
            if is_dominating(g, moved):
                defended = True
                break
        if not defended:
            return False
    return True


def is_rdf(g: Graph, f: LegionFunction) -> bool:
    """Roman dominating function test: every 0-vertex has a 2-neighbour."""
    zero = ~(f.v1_mask | f.v2_mask) & ((1 << g.n) - 1)
    cover2 = 0
    for u in _bits(f.v2_mask):
        cover2 |= g.adj[u]
    return zero & ~cover2 == 0


# The raw definitional predicate of each invariant: the set invariants take a
# vertex set or bitmask, the function invariants a LegionFunction.  The bench
# span recorder patches module attributes, not the values of this dict, so
# calls made through it (the oracle, ``verify-cert``) are not traced.
PREDICATES = {
    "gamma": is_dominating,
    "gamma_t": is_total_dominating,
    "gamma_2t": is_double_total_dominating,
    "rho": is_2packing,
    "gamma_R": is_rdf,
    "gamma_r": is_wrdf,
    "gamma_s": is_secure_dominating,
}


def _rest_is_clique(h: Graph, covered: int) -> bool:
    """Whether the vertices of H outside the mask ``covered`` induce a
    clique (the empty set counts)."""
    rest = ((1 << h.n) - 1) & ~covered
    return all(rest & ~h.closed[v] == 0 for v in _bits(rest))


def satisfies_property_p(h: Graph, a: int) -> bool:
    """True iff the subgraph induced by V(H) minus N[a] is a clique (the
    empty set counts).  Some vertex of a noncomplete H has property P
    exactly when a1 = 1 in its vertex table M(H) (:func:`_vertex_table`),
    the condition of the ``kn_lex`` claim."""
    h._check_vertex(a)
    return _rest_is_clique(h, h.closed[a])


# ---------------------------------------------------------------------------
# Solver configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Search limits and strategy flags.

    ``shards`` is accepted and validated but has no effect: every search is
    one sequential generator.  ``max_weight`` caps the weight of ``gamma_r``
    and ``gamma_R``, summed over the components.  ``product_pruning``
    enables, on lexicographic products, the product lower bound
    max(gamma_t(G), P, C) (C the copy-weight programme over the vertex
    table of H, P the support-gadget packing term with lambda(H) read off
    that table), the closed-copy-weight lookahead (weight 2, or lambda(H)
    on a support's copy neighbourhood) and the per-copy Aut(H) cut;
    switching it off forces the structure-blind search (used when the
    claims that justify those prunes are themselves under test).
    """

    shards: int = 1
    node_budget: int | None = None
    max_weight: int | None = None
    product_pruning: bool = True

    def __post_init__(self):
        if self.shards < 1:
            raise GraphError("shard count must be >= 1")
        if self.node_budget is not None and self.node_budget <= 0:
            raise GraphError("node budget must be positive")


@dataclass
class SolveResult:
    invariant: str
    value: int
    certificate: VertexSet | LegionFunction
    nodes: int = 0
    millis: float = 0.0

    def certificate_json(self) -> dict:
        if isinstance(self.certificate, LegionFunction):
            return {
                "V1": sorted(self.certificate.v1),
                "V2": sorted(self.certificate.v2),
            }
        return {"set": sorted(self.certificate)}

    def to_json_dict(self, n: int, stats: bool = False) -> dict:
        out = {
            "schema": "1",
            "invariant": self.invariant,
            "n": n,
            "value": self.value,
            "certificate": self.certificate_json(),
        }
        if stats:
            out["nodes"] = self.nodes
            out["millis"] = round(self.millis, 3)
        return out


# ---------------------------------------------------------------------------
# Shared search plumbing: node counter, weight-raising loop, defence test
# ---------------------------------------------------------------------------


class _Counter:
    """The node budget, and the interval a budget error reports.

    ``lower`` and ``upper`` are the bounds a budget error raised here
    carries; :func:`_solve_graph` widens them to the whole graph.
    ``witness`` is (graph, f): a legion function that bounds the open piece
    from above, once one is known.  It is re-checked only if a budget error
    is raised."""

    __slots__ = ("nodes", "budget", "invariant", "lower", "upper", "witness")

    def __init__(self, budget, invariant, upper: int):
        self.nodes = 0
        self.budget = budget
        self.invariant = invariant
        self.lower = 0
        self.upper = upper
        self.witness = None

    def tick(self):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(self.invariant, self.lower, self.upper)


def _lowest(search, lo: int, hi: int, counter: _Counter, cap: int | None = None):
    """(t, first hit) for the smallest t in lo..hi whose ``search(t)`` yields.

    ``cap`` (``max_weight``, for the function invariants) cuts hi short; a
    search that runs past hi raises :class:`BudgetExceededError` with the
    larger of the proven bounds lo and hi + 1.
    """
    if cap is not None:
        hi = min(hi, cap)
    for t in range(lo, hi + 1):
        counter.lower = t
        hit = next(search(t), None)
        if hit is not None:
            return t, hit
    raise BudgetExceededError(counter.invariant, max(lo, hi + 1), counter.upper)


def _undefended(adj, closed, check: int, m2: int, m1: int, breakable: int, common: dict) -> int:
    """The vertices of ``check`` outside V1 | V2 that cannot take a legion
    from a neighbour and leave every ``breakable`` vertex dominated.

    ``breakable`` holds the vertices covered exactly once, by a cover that
    cannot change any more.  A V0 vertex v next to V2 is safe.  Otherwise v
    needs a V1 neighbour u such that every breakable vertex of N[u] but u
    (which the arriving legion re-covers) lies in N[v].  This is the one
    defence loop of every search: it works on masks, one pass over V2 and
    one over the movers in V1, each clearing the victims it defends.  Each
    vertex's verdict depends on the placement alone, so the result for
    ``check`` is the result for every vertex, masked by ``check``.

    ``common`` memoises, per mask bu of the breakable vertices of N[u] but
    u, the meet of their closed neighbourhoods; u defends its neighbours
    that lie in it.  A dict serves one graph; the searches keep one each.
    """
    victims = check & ~(m2 | m1)
    rest = m2
    while rest and victims:
        low = rest & -rest
        victims &= ~adj[low.bit_length() - 1]
        rest ^= low
    rest = m1
    while rest and victims:
        low = rest & -rest
        u = low.bit_length() - 1
        rest ^= low
        d = adj[u] & victims
        if d:
            bu = breakable & closed[u] & ~low
            meet = common.get(bu)
            if meet is None:
                meet = -1
                for w in _bits(bu):
                    meet &= closed[w]
                common[bu] = meet
            victims &= ~(d & meet)
    return victims


def _defended(g: Graph, m2: int, m1: int, cov1: int, cov2: int, common: dict) -> bool:
    """Whether the placement (V2, V1) = (m2, m1) dominates and defends every
    vertex of ``g``.

    ``cov1``/``cov2`` are the vertices covered at least once/twice by the
    closed neighbourhoods of V1 | V2, and ``common`` is the memo of
    :func:`_undefended` for ``g``.  The weak Roman search runs it as the
    leaf test when the whole weight sits in V2 (a last V1 legion runs the
    kernel itself); with V2 empty it is the secure domination test.
    """
    full = (1 << g.n) - 1
    return cov1 == full and not _undefended(g.adj, g.closed, full, m2, m1, cov1 & ~cov2, common)


# ---------------------------------------------------------------------------
# Set-invariant search (gamma, gamma_t, gamma_2t, rho)
# ---------------------------------------------------------------------------


def _cover_table(g: Graph, kind: str) -> tuple[list[int], int, list[int]]:
    """(coverers, goal, most) for the set search of ``kind``.

    ``coverers`` are the closed neighbourhoods for ``gamma`` and the open
    ones for ``gamma_t`` and ``gamma_2t``.  ``goal`` is the coverage a
    feasible set reaches, n (every vertex once) or 2n for ``gamma_2t``
    (every vertex twice).  ``most[e]`` is the largest coverer size among the
    vertices from index e on, with most[n] = 0."""
    coverers = g.closed if kind == "gamma" else g.adj
    goal = 2 * g.n if kind == "gamma_2t" else g.n
    most = [0] * (g.n + 1)
    for e in range(g.n - 1, -1, -1):
        most[e] = max(most[e + 1], coverers[e].bit_count())
    return coverers, goal, most


def _min_sets(g: Graph, k: int, kind: str, counter: _Counter):
    """Generator of the feasible sets of size exactly k, ascending
    lexicographic.

    ``kind`` selects the coverage notion: closed neighbourhoods for
    ``gamma``, open for ``gamma_t``, doubled open for ``gamma_2t``.

    Two prunes cut branches that hold no feasible set.  A vertex none of
    whose coverers can still be chosen is dead.  And the deficit, the goal
    of :func:`_cover_table` minus |once| (minus |twice| too for
    ``gamma_2t``), must be coverable: a chosen vertex raises |once| +
    |twice| by at most its coverer size, so with ``slots`` vertices left
    to pick from index e on, a deficit above most[e] * slots is final.  A
    node stops its candidates there, and skips a candidate e whose child
    deficit exceeds most[e + 1] * (slots - 1).
    """
    n = g.n
    full = (1 << n) - 1
    coverers, goal, most = _cover_table(g, kind)
    # thresholds[i] = last index that can still cover order[i]
    order = sorted(range(n), key=lambda v: coverers[v].bit_length() - 1)
    thresholds = [coverers[v].bit_length() - 1 for v in order]
    double = kind == "gamma_2t"

    def rec(start: int, mask: int, once: int, twice: int, slots: int, cp: int, deficit: int):
        counter.tick()
        if slots == 0:
            if (twice if double else once) == full:
                yield mask
            return
        for e in range(start, n - slots + 1):
            if deficit > most[e] * slots:
                break
            cover = coverers[e]
            o2 = once | cover
            t2 = twice | (once & cover)
            need = t2 if double else o2
            left = goal - o2.bit_count() - (t2.bit_count() if double else 0)
            if left > most[e + 1] * (slots - 1):
                continue
            # advance fully decided vertices; a vertex none of whose
            # coverers can still be chosen is dead
            cp2 = cp
            while cp2 < n and thresholds[cp2] <= e and need >> order[cp2] & 1:
                cp2 += 1
            if cp2 < n and thresholds[cp2] <= e:
                continue
            yield from rec(e + 1, mask | (1 << e), o2, t2, slots - 1, cp2, left)

    return rec(0, 0, 0, 0, k, 0, goal)


def _lift(mask: int, verts) -> int:
    """Map a bitmask over a piece's local indices onto the flat indices ``verts``."""
    out = 0
    for i in _bits(mask):
        out |= 1 << verts[i]
    return out


def minimum_dominating_sets(g: Graph | ProductGraph, config: SolverConfig | None = None) -> list[VertexSet]:
    """Every minimum dominating set, ascending lexicographic order."""

    def minimum_sets(piece, cap, counter):
        verts, sub, _, _ = piece
        k, _ = _solve_min_set(sub, "gamma", counter)
        return k, [(_lift(m, verts),) for m in _min_sets(sub, k, "gamma", counter)]

    flat, _, solved = _solve_graph("gamma", g, config, minimum_sets)
    return [VertexSet(flat.n, m) for m, in _combine([hits for _, hits in solved])]


def _combine(per_piece: list) -> list[tuple[int, ...]]:
    """Every choice of one hit per piece, from an iterable of hits per
    piece, each hit a tuple of lifted masks: the tuples ORed together,
    sorted by the sorted bits of each mask in turn.  Given every optimum
    of each piece, by component additivity these are all the optima of
    the whole graph, in canonical order."""
    out = [tuple(functools.reduce(operator.or_, masks) for masks in zip(*chosen))
           for chosen in itertools.product(*per_piece)]
    out.sort(key=lambda masks: tuple(tuple(_bits(m)) for m in masks))
    return out


def _solve_min_set(g: Graph, invariant: str, counter: _Counter) -> tuple[int, int]:
    """(value, certificate mask) for a connected component.

    The size rises from ceil(goal / most[0]) (see :func:`_cover_table`):
    each chosen vertex adds at most most[0] to |once| + |twice|, which a
    feasible set raises from 0 to the goal.  For ``gamma`` that is
    ceil(n / (Delta + 1)); for ``gamma_t`` ceil(n / Delta) >= 2 and for
    ``gamma_2t`` ceil(2n / Delta) >= 3, as Delta <= n - 1."""
    _, goal, most = _cover_table(g, invariant)
    lo = -(-goal // most[0])
    return _lowest(lambda k: _min_sets(g, k, invariant, counter), lo, g.n, counter)


def _heaviest_packing(g: Graph, weight: tuple[int, ...], counter: _Counter, proves: bool = False) -> tuple[int, int]:
    """(weight, mask) of the heaviest 2-packing of ``g`` under ``weight``: a
    branch and bound over the packings in ascending lexicographic order, cut
    once the weight of every vertex left cannot beat the best.  Only a strict
    gain replaces the best, so the mask is the first heaviest packing.

    With ``proves`` the packing's weight is the value sought (rho), so a
    budget error reports the heaviest packing found so far as its lower end;
    otherwise ``counter.lower`` is left as the caller set it."""
    n = g.n
    tail = [*itertools.accumulate(weight[::-1])][::-1] + [0]  # weight of the vertices from e on
    best = (0, 0)

    def rec(start: int, mask: int, blocked: int, total: int):
        nonlocal best
        counter.tick()
        if total > best[0]:
            best = (total, mask)
            if proves:
                counter.lower = total
        for e in range(start, n):
            if total + tail[e] <= best[0]:
                return
            if not g.closed[e] & blocked:
                rec(e + 1, mask | (1 << e), blocked | g.closed[e], total + weight[e])

    rec(0, 0, 0, 0)
    return best


# ---------------------------------------------------------------------------
# Roman domination: weight-iterative with forced V1 construction
# ---------------------------------------------------------------------------


def _rdfs_at_weight(g: Graph, t: int, gamma: int, counter: _Counter):
    """Generator of the Roman dominating functions (m2, m1) of weight
    exactly t whose V1 is forced, V1 = V minus N[V2], one per V2 in
    ascending sequence order; the first is the canonically smallest.
    ``gamma`` is gamma(G).

    Only V2 is searched.  That finds every function of weight t when no
    weight below t has one, as :func:`_lowest` ensures by raising t from
    gamma(G).  Each V0 vertex needs a V2 neighbour, so V1 holds the forced
    set.  Dropping the rest of V1 leaves a Roman dominating function
    (V2, forced V1), of weight at least gamma(G) since V1 | V2 dominates.
    So a function of weight t with a larger V1 would give one of a weight
    in gamma(G)..t - 1.

    V2 grows to at most min(t // 2, t - gamma): the positive set V1 | V2
    dominates, so |V1| + |V2| = t - |V2| >= gamma.
    """
    n = g.n
    full = (1 << n) - 1
    v2_max = min(t // 2, t - gamma)

    def rec(last: int, m2: int, size: int, dom: int):
        counter.tick()
        m1 = full & ~dom
        if 2 * size + m1.bit_count() == t:
            yield m2, m1
        if size < v2_max:
            for j in range(last + 1, n):
                yield from rec(j, m2 | (1 << j), size + 1, dom | g.closed[j])

    return rec(-1, 0, 0, 0)


# ---------------------------------------------------------------------------
# Weak Roman domination: ordered exhaustive search at a fixed weight
# ---------------------------------------------------------------------------

def _prev_twins(g: Graph) -> tuple[int, ...]:
    """For each vertex, the bit of its previous twin - the largest smaller
    index with an equal open or an equal closed neighbourhood - or 0.

    Both relations are equivalences, and no vertex has an open twin and a
    closed twin at once, so each vertex lies in one twin class and the
    previous twins chain through it in index order."""
    last: dict[tuple[int, int], int] = {}
    out = []
    for v in range(g.n):
        keys = ((0, g.adj[v]), (1, g.closed[v]))
        prev = max((last[k] for k in keys if k in last), default=-1)
        out.append(0 if prev < 0 else 1 << prev)
        for k in keys:
            last[k] = v
    return tuple(out)


def _automorphisms(h: Graph) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of ``h`` that keep each twin class in index order,
    identity left out, as tuples of images.

    Every automorphism is one of these followed by a permutation inside the
    twin classes, which the twin rule of :class:`_WrdfSearch` already
    breaks.  Backtracks vertex by vertex, keeping degrees and the adjacency
    to the vertices already mapped."""
    n = h.n
    adj = h.adj
    twin = _prev_twins(h)
    image = [0] * n
    out = []

    def extend(a: int, used: int):
        if a == n:
            if any(image[v] != v for v in range(n)):
                out.append(tuple(image))
            return
        mapped = 0
        for c in _bits(adj[a] & ((1 << a) - 1)):
            mapped |= 1 << image[c]
        low = image[twin[a].bit_length() - 1] + 1 if twin[a] else 0
        for b in range(low, n):
            if not used >> b & 1 and adj[b].bit_count() == adj[a].bit_count() and adj[b] & used == mapped:
                image[a] = b
                extend(a + 1, used | 1 << b)

    extend(0, 0)
    return tuple(out)


def _copy_is_leader(p2: int, p1: int, auts: tuple[tuple[int, ...], ...]) -> bool:
    """Whether no automorphism maps the copy pattern (V2, V1) = (p2, p1) to
    a smaller (sorted V2, sorted V1) key.

    Two sets of one size compare as sorted sequences by their lowest
    differing element: the set holding it is the smaller."""
    for sigma in auts:
        for p in (p2, p1):
            q = 0
            for a in _bits(p):
                q |= 1 << sigma[a]
            d = q ^ p
            if d:
                break
        if q & d & -d:
            return False
    return True


class _WrdfSearch:
    """Weak Roman dominating functions of one connected piece, weight by
    weight, in canonical (sorted V2, sorted V1) order.

    The search carries how many flat indices it has checked.  Placing a
    legion at index e checks, through :func:`_undefended`, every vertex
    whose closed neighbourhood ends among the indices not yet checked
    (``due`` holds them as prefix masks), and runs the per-copy Aut(H) cut
    of e's copy if e is its last index.  Every check is a function of the
    placement alone, so checking a window at once prunes exactly what one
    check at a time would.  The tables, the Aut(H) leader memo and the
    kernel's memo (``common``) depend on the graph alone, so they are built
    once and serve every call of :meth:`at_weight`.

    Each node first computes its horizon: the index from which every
    placement must fail, because a vertex still uncovered has no coverer
    left there, or because a copy that would be decided there already
    fails its Aut(H) cut.  Its candidate loops stop at the horizon, which
    cuts no node that the checks would not.  The last legion's checks are
    folded into the leaf: one kernel call over every vertex gives the
    undefended set, and the candidate is a node if that set misses the
    window just checked, and a hit if it is empty.

    ``factor`` and ``h`` are G and H when the piece is G o H searched with
    its product structure (see :func:`_pieces`), else None.  Then each
    node also runs the lookahead (see the module docstring).  ``demand``
    gives, per vertex x of G, the weight that the copies of N_G[x] must
    reach: 2 everywhere until :func:`_gamma_r_connected` sets it, then
    lambda(H) on the supports of degree at least 2 and 2 elsewhere.  A
    raised demand adds a second greedy pass and keeps every cut of the
    first, so it never adds a node.

    ``gamma`` is 0 until :func:`_gamma_r_connected` sets it to gamma(G) on
    a plain piece; :meth:`at_weight` caps V2 at t - gamma."""

    def __init__(self, g: Graph, factor: Graph | None = None, h: Graph | None = None):
        self.g = g
        self.factor = factor
        self.h = h
        n = g.n
        self.gamma = 0  # gamma(g), once _gamma_r_connected has searched it
        self.twin = _prev_twins(g)
        self.leaders: dict[int, bool] = {}  # copy pattern (V2 << n_h | V1) -> _copy_is_leader
        self.common: dict[int, int] = {}  # the memo of _undefended
        # A vertex's defence is checked once its defenders are decided
        # (sound but optimistic about undecided victims): due[k] holds the
        # vertices whose closed neighbourhood lies below flat index k, so
        # due[k] is also the set with no coverer at index k or above.
        due = [0] * (n + 1)
        for v in range(n):
            due[g.closed[v].bit_length()] |= 1 << v
        for k in range(n):
            due[k + 1] |= due[k]
        self.due = tuple(due)
        # the closed copy neighbourhoods whose weight a legion at e adds to
        self.copy_nbhd = ((),) * n
        if factor is not None:
            n_h = h.n
            self.copy_nbhd = tuple(tuple(_bits(factor.closed[i // n_h])) for i in range(n))
            # the last flat index of each closed copy neighbourhood
            self.copy_end = tuple(factor.closed[u].bit_length() * n_h - 1 for u in range(factor.n))
            self.h_auts = _automorphisms(h)  # each acting on one copy at a time
            self.demand = (2,) * factor.n

    def at_weight(self, t: int, counter: _Counter, symmetry: bool = True, v2_cap: int | None = None):
        """Generator of the (m2, m1) of weight exactly t with at most
        ``v2_cap`` vertices in V2 (t - ``self.gamma`` by default: the
        positive set dominates), rooted at the empty placement.

        With ``symmetry`` it keeps only functions that pass the twin rule
        and, on a product, the per-copy Aut(H) cut (see the module
        docstring); without it, it yields every function."""
        g = self.g
        n = g.n
        adj = g.adj
        closed = g.closed
        full = (1 << n) - 1
        due = self.due
        twin = self.twin if symmetry else (0,) * n
        common = self.common
        copy_nbhd = self.copy_nbhd
        v2_max = min(t // 2, t - self.gamma if v2_cap is None else v2_cap)
        factor = self.factor
        lookahead = None
        aut_cut = False
        if factor is not None:
            n_h = self.h.n
            h_full = (1 << n_h) - 1
            n_g = factor.n
            copy_end = self.copy_end
            closed_copy_mask = factor.closed
            h_auts = self.h_auts
            # copy x is decided, and its Aut(H) cut due, at flat index (x + 1) n_h - 1
            aut_cut = symmetry and bool(h_auts)
            leaders = self.leaders
            w = [0] * n_g  # the weight placed on each closed copy neighbourhood
            # (order, demand) per greedy pass: demand 2 in index order, and
            # the raised demand with the support neighbourhoods first
            passes = [(range(n_g), (2,) * n_g)]
            if max(self.demand) > 2:
                passes.append((sorted(range(n_g), key=lambda x: self.demand[x] == 2), self.demand))

            def lookahead(e: int, rem: int) -> bool:
                # greedy disjoint lower bounds on the weight that still has
                # to land in not-yet-decided closed copy neighbourhoods
                for order, demand in passes:
                    need = 0
                    used = 0
                    for x in order:
                        if copy_end[x] <= e:
                            continue
                        cm = closed_copy_mask[x]
                        if cm & used:
                            continue
                        if w[x] < demand[x]:
                            need += demand[x] - w[x]
                            if need > rem:
                                return False
                            used |= cm
                return True

            def is_leader(x: int, m2: int, m1: int) -> bool:
                # copy x's pattern is the least of its images under Aut(H)
                p2 = m2 >> (x * n_h) & h_full
                p1 = m1 >> (x * n_h) & h_full
                pattern = p2 << n_h | p1
                leader = leaders.get(pattern)
                if leader is None:
                    leader = leaders[pattern] = _copy_is_leader(p2, p1, h_auts)
                return leader

        def dfs_v1(start: int, m2: int, m1: int, slots: int, cov1: int, cov2: int):
            counter.tick()
            if slots == 0:
                if _defended(g, m2, m1, cov1, cov2, common):
                    yield m2, m1
                return
            # the horizon: the least k with an uncovered vertex in due[k],
            # which has no coverer from k on (due[start] holds none, or the
            # parent's check would have failed) ...
            uncov = full & ~cov1
            lo, lim = start, n
            while uncov and lim - lo > 1:
                mid = (lo + lim) >> 1
                if due[mid] & uncov:
                    lim = mid
                else:
                    lo = mid
            # ... or the end of the first copy, from start's on, whose
            # pattern is no Aut(H) leader as it stands
            if aut_cut:
                x = start // n_h
                while x * n_h < lim and is_leader(x, m2, m1):
                    x += 1
                lim = min(lim, (x + 1) * n_h)
            if slots == 1:
                # the last legion must cover everything still uncovered
                cand = ((1 << lim) - 1) & ~((1 << start) - 1) & ~m2 & ~m1
                while uncov and cand:
                    low = uncov & -uncov
                    cand &= closed[low.bit_length() - 1]
                    uncov ^= low
                while cand:
                    elow = cand & -cand
                    cand ^= elow
                    e = elow.bit_length() - 1
                    if twin[e] & ~(m2 | m1):
                        continue
                    m1b = m1 | elow
                    nxt = e + 1
                    if aut_cut and nxt % n_h == 0 and not is_leader(e // n_h, m2, m1b):
                        continue
                    # every vertex is covered now; the window's defence
                    # check is the leaf test masked by the window
                    c = closed[e]
                    bad = _undefended(adj, closed, full, m2, m1b, full & ~(cov2 | (cov1 & c)), common)
                    if bad & due[nxt] & ~due[start]:
                        continue
                    counter.tick()
                    if not bad:
                        yield m2, m1b
                return
            for e in range(start, min(n - slots + 1, lim)):
                be = 1 << e
                if m2 & be or twin[e] & ~(m2 | m1):
                    continue
                m1b = m1 | be
                nxt = e + 1
                if aut_cut and nxt % n_h == 0 and not is_leader(e // n_h, m2, m1b):
                    continue
                c = closed[e]
                nc2 = cov2 | (cov1 & c)
                nc1 = cov1 | c
                # the window's defence check; a unique cover with no coverer
                # above e can never change
                check = due[nxt] & ~due[start] & ~(m2 | m1b)
                if check and _undefended(adj, closed, check, m2, m1b, nc1 & ~nc2 & due[nxt], common):
                    continue
                for x in copy_nbhd[e]:
                    w[x] += 1
                if lookahead is None or lookahead(e, slots - 1):
                    yield from dfs_v1(e + 1, m2, m1b, slots - 1, nc1, nc2)
                for x in copy_nbhd[e]:
                    w[x] -= 1

        def v2_node(last: int, m2: int, size: int, cov1: int, cov2: int):
            counter.tick()
            if lookahead is not None and not lookahead(-1, t - 2 * size):
                return
            yield from dfs_v1(0, m2, 0, t - 2 * size, cov1, cov2)
            if size < v2_max:
                for j in range(last + 1, n):
                    if twin[j] & ~m2:
                        continue
                    c = closed[j]
                    for x in copy_nbhd[j]:
                        w[x] += 2
                    yield from v2_node(j, m2 | (1 << j), size + 1, cov1 | c, cov2 | (cov1 & c))
                    for x in copy_nbhd[j]:
                        w[x] -= 2

        return v2_node(-1, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Driver: per-component dispatch with structure detection
# ---------------------------------------------------------------------------


def _flat(invariant: str, g: Graph | ProductGraph) -> Graph:
    """The flat graph of ``g``, once ``invariant`` is known and defined on it."""
    if invariant not in INVARIANTS:
        raise GraphError(f"unknown invariant {invariant!r} (expected one of {', '.join(INVARIANTS)})")
    flat = g.graph if isinstance(g, ProductGraph) else g
    if flat.n == 0:
        raise UndefinedInvariantError("invariants undefined on the graph with no vertices")
    if invariant == "gamma_t" and flat.min_degree() == 0:
        raise UndefinedInvariantError("total domination undefined: isolated vertex")
    if invariant == "gamma_2t" and flat.min_degree() < 2:
        raise UndefinedInvariantError("double total domination undefined: minimum degree below two")
    return flat


def _pieces(g: Graph | ProductGraph, lex: bool = False,
            pruning: bool = True) -> list[tuple[list[int], Graph, Graph | None, Graph | None]]:
    """The connected pieces solved separately, as (sorted flat vertices,
    piece graph, G component, H).

    With ``lex`` a lexicographic product splits along the components of its
    first factor.  A piece keeps its factors, for the weak Roman search to
    use, unless it is a single copy of H, ``pruning`` is off or H is
    complete: then the search is structure-blind.  Otherwise the pieces are
    the flat components and carry no factors.
    """
    if lex and isinstance(g, ProductGraph) and g.kind == "lexicographic":
        h = g.h_factor if pruning and not g.h_factor.is_complete() else None
        out = []
        for comp in g.g_factor.components():
            flat_mask = 0
            for u in comp:
                flat_mask |= g.copies[u]
            factor = g.g_factor.induced(comp) if h is not None and len(comp) > 1 else None
            sub = g.graph.induced(VertexSet(g.graph.n, flat_mask))
            out.append((list(_bits(flat_mask)), sub, factor, h if factor is not None else None))
        return out
    flat = g.graph if isinstance(g, ProductGraph) else g
    comps = flat.components()
    return [(sorted(c), flat.induced(c) if len(comps) > 1 else flat, None, None) for c in comps]


def _gamma_r_connected(search: _WrdfSearch, counter: _Counter, cap: int | None) -> tuple[int, tuple[int, int]]:
    """(value, (m2, m1)) for a connected piece.

    The weight rises from a proven lower bound to the weight of a witness
    with every V0 vertex next to V2, which is also the piece's upper bound
    in a budget error: V2 = a minimum dominating set (2 gamma), or on a
    product V2 = {(u, 0) : u in a minimum total dominating set of G}
    (2 gamma_t(G)).  Until the gamma_t(G) search, the first on a product,
    is done, the witness is V2 = {(u, 0) : u in V(G)}, as V(G) totally
    dominates a connected G on at least 2 vertices.  That search leaves
    ``counter.lower`` at gamma_t(G).  The M(H) search after it keeps the
    witness and ``counter.lower`` as they were (:func:`_aside`), and the
    programme raises ``counter.lower`` only to weights it has ruled out.

    Searched without factors, the lower bound is gamma(G), and V2 holds at
    most t - gamma(G) vertices at weight t: every V0 vertex has a defender
    in V1 | V2, so the positive set dominates and |V1| + |V2| = t - |V2| >=
    gamma(G).  The cap drops only placements that hold no function, so the
    first hit and the value stay the same.  ``search.gamma`` keeps
    gamma(G), so the optima stream under the same cap.

    On a product G o H searched with its factors (H not complete, so
    n_h >= 2) the lower bound is max(gamma_t(G), P, C), by two facts about
    every weak Roman dominating function f:

    * Copy u and all its neighbours lie in the copies of N_G[u].  With no
      legion there copy u is undominated.  With one, take nonadjacent a, b
      of H with (u, b) a zero: its only defender moves to it, and then
      (u, a) is undominated.  So f puts weight 2 there.
    * Copy x is dominated and defended, and stays dominated after each
      defending move.  The copies of N_G(x) are adjacent to all of copy x,
      so folded into one outer copy holding a 2 if they held one, else two
      1s if they held two legions, else what they held, they keep every
      move, and whether the outer side stays positive after it, at no more
      weight.  That leaves f on P2 o H a function of the kind the vertex
      table M(H) (:func:`_vertex_table`) describes, with f's weight on copy
      x and at least min(f(N_G(x)), 2) on the outer copy.  So w_x =
      f(copy x) meets an entry of M(H) at every x, and lowering each w_x
      to the next value the programme allows keeps that.

    C is the copy-weight programme (:func:`_copy_programme`) over M(H), so
    C is at most f's weight by the second point.  P is the heaviest
    2-packing of G in which a support vertex s of degree >= 2 weighs
    lambda(H) (:func:`_support_weight`) and every other vertex weighs 2,
    so with no such support P = 2 rho(G); the closed neighbourhoods of a
    2-packing are disjoint, so the weights f puts on their copies add.
    Take a leaf l of s: by the second point at l and at s, w_l = f(copy l),
    w_s = f(copy s) and w_o = f on the other copies of N_G(s), capped at 2,
    meet the copy-weight programme on P3 (copies l, s, outer) with only l
    and s constrained, whose least total is lambda(H).  So f puts at least
    lambda(H) on the copies of N_G[s].

    lambda(H) is also the least weight on P3 o H that dominates and
    defends copies l and s, both staying dominated after each defending
    move.  Such a function meets that programme by the fold above.
    Conversely, copy weights that meet it come from functions on copies l
    and s that realise the entries they meet, with w_o legions on the
    outer copy: every defending move lands a legion in copy l or copy s,
    which is adjacent to all of the other, so both stay dominated.  Every
    point holds for every weak Roman dominating function, not just the
    optima, so the search's lookahead demands the same vertex weights of
    each closed copy neighbourhood (``search.demand``).

    C is searched only when max(gamma_t(G), P) leaves a gap below
    2 gamma_t(G); gamma_t(G) and P pick its first weight.  C alone is at
    least gamma_r(G), gamma_t(G) and P, the terms of the ``lex_lower_max``
    claim with 2 rho(G) raised to P.  Take copy weights w that meet M(H)
    at every vertex; H is noncomplete, so a1 >= 1 and a0 = gamma_r(H) >= 2,
    and G is connected with n >= 2.  A zero of w meets only the entry
    (0, 2), so its neighbours carry weight at least 2.

    * C >= gamma_r(G): f = min(w, 2) weighs at most sum w, and each zero v
      of f still has neighbour weight at least 2.  Let a legion move to v
      from a positive neighbour u.  If u is emptied, it lies next to v;
      every other zero loses at most 1 around it, so keeps a positive
      neighbour.  So f is a weak Roman dominating function of G.
    * C >= gamma_t(G): let S be the positive set of w.  Each zero has a
      neighbour in S.  A vertex of S with no neighbour in S meets only
      (a0, 0), so it carries at least 2; add one neighbour of each such
      vertex to S.  That totally dominates G with at most sum w vertices.
    * C >= P: the closed neighbourhoods of a 2-packing are disjoint.  Each
      carries at least 2, as a + b >= 2 for every entry of M(H).  That of
      a support s of degree >= 2 with a leaf l carries at least lambda(H):
      w_l, w_s and w on the rest of N_G(s) meet the P3 programme above.

    So the start is what a gamma_r(G) term would make it: where the
    programme runs it is at least C >= gamma_r(G), and where it does not
    it is 2 gamma_t(G) >= 2 gamma(G) >= gamma_r(G)."""
    g = search.g
    factor = search.factor
    if factor is not None:
        h = search.h
        copy0 = range(0, g.n, h.n)  # the flat index of (u, 0) for each u in V(G)
        counter.witness = (g, LegionFunction(g.n, 0, _lift((1 << factor.n) - 1, copy0)))
        gt, tds = _solve_min_set(factor, "gamma_t", counter)
        counter.witness = (g, LegionFunction(g.n, 0, _lift(tds, copy0)))
        table = _aside(counter, lambda: _vertex_table(h, counter))
        packing, search.demand = _packing_bound(factor, table, counter)
        lo, hi = max(gt, packing), 2 * gt
        if lo < hi:
            lo = _copy_programme(factor, table, lo, hi, counter)
    else:
        search.gamma, dom = _solve_min_set(g, "gamma", counter)
        counter.witness = (g, LegionFunction(g.n, 0, dom))
        lo, hi = search.gamma, 2 * search.gamma
    return _lowest(lambda t: search.at_weight(t, counter), lo, hi, counter, cap)


def _aside(counter: _Counter, run):
    """``run()``, a search for a bound on the open piece, with
    ``counter.lower`` and ``counter.witness`` kept: the weights it tries and
    the witness it finds belong to another graph.  A budget error meanwhile
    reports the bound held before it."""
    lower, witness = counter.lower, counter.witness
    try:
        return run()
    except BudgetExceededError:
        raise BudgetExceededError(counter.invariant, lower, counter.upper) from None
    finally:
        counter.lower, counter.witness = lower, witness


def _vertex_table(h: Graph, counter: _Counter) -> tuple[tuple[int, int], ...]:
    """M(H), for a noncomplete H: the minimal (a, b) such that a function on
    P2 o H with weight a on copy x and b legions, capped at 2, on the other
    copy dominates and defends copy x, copy x staying dominated after each
    defending move.  It is the antichain of (0, 2), (a1, 1) and (a0, 0):

    * Two legions on the outer copy dominate all of copy x, and each can
      move to a zero of it while the other still dominates it: (0, 2).
    * One legion on the outer copy dominates copy x.  A zero v of copy x
      is defended by a legion of copy x next to it, after which the outer
      legion still dominates copy x, or by the outer legion, after which
      the positive set S of copy x plus v must dominate H.  Only S counts,
      so 1s serve best, and a1 is the least |S| such that every v outside
      S has a neighbour in S or S | {v} dominates H: the least |S| with
      H - N[S] a clique.
    * With the outer copy empty, copy x on its own is a weak Roman
      dominating function of H: a0 = gamma_r(H), summed over the
      components of H.

    Both searches are counted."""
    a0 = sum(_gamma_r_connected(_WrdfSearch(h.induced(c)), counter, None)[0] for c in h.components())

    def clique_left(s: tuple[int, ...]) -> bool:
        counter.tick()
        return _rest_is_clique(h, functools.reduce(operator.or_, s))

    # S = V(H) leaves nothing, so some size up to n_h serves
    a1 = next(k for k in range(1, h.n + 1) if any(map(clique_left, itertools.combinations(h.closed, k))))
    return ((0, 2), (a1, 1), (a0, 0)) if a1 < a0 else ((0, 2), (a0, 0))


def _copy_programme(factor: Graph, table: tuple[tuple[int, int], ...], lo: int, hi: int, counter: _Counter) -> int:
    """The least t in lo..hi such that some w: V(G) -> {0, 1, 2, a1, a0}
    with sum at most t has, at every x, an entry (a, b) of the vertex table
    with w_x >= a and w(N_G(x)) >= b.  Lowering any weight to the next
    value in that set keeps every condition, so these values are enough.
    The caller knows that hi is met: 2 on a total dominating set.

    A counted branch and bound sets w in index order, keeping each
    neighbour sum o_x as it goes.  need[c][o] is the least weight that
    still has to land on N_G[x] when w_x = c (capped at a0) and o_x = o
    (capped at 2).  x's condition is decided, need 0, once the last vertex
    of N_G[x] is set; the needs of the undecided x whose undecided closed
    neighbourhoods are disjoint add up, and a node is cut once that greedy
    sum exceeds the weight left."""
    n = factor.n
    adj = factor.adj
    closed = factor.closed
    top = max(a for a, _ in table)
    values = sorted({0, 1, 2, *(a for a, _ in table)})
    need = [[min(max(a - c, 0) + max(b - o, 0) for a, b in table) for o in range(3)] for c in range(top + 1)]
    last = [closed[x].bit_length() - 1 for x in range(n)]
    decided_at = [[x for x in range(n) if last[x] == u] for u in range(n)]
    w = [0] * n
    o = [0] * n

    def short(u: int, left: int) -> bool:
        # whether the needs of the open x, over disjoint undecided parts
        # of their closed neighbourhoods, exceed the weight left
        total = 0
        used = 0
        for x in range(n):
            if last[x] <= u:
                continue
            part = closed[x] >> (u + 1)
            if part & used:
                continue
            gap = need[min(w[x], top)][min(o[x], 2)]
            if gap:
                total += gap
                if total > left:
                    return True
                used |= part
        return False

    def rec(u: int, left: int):
        counter.tick()
        if u == n:
            yield tuple(w)
            return
        for val in values:
            if val > left:
                break
            w[u] = val
            for x in _bits(adj[u]):
                o[x] += val
            if (all(need[min(w[x], top)][min(o[x], 2)] == 0 for x in decided_at[u])
                    and not short(u, left - val)):
                yield from rec(u + 1, left - val)
            for x in _bits(adj[u]):
                o[x] -= val
        w[u] = 0

    return _lowest(lambda t: rec(0, t), lo, hi, counter)[0]


def _packing_bound(factor: Graph, table: tuple[tuple[int, int], ...], counter: _Counter) -> tuple[int, tuple[int, ...]]:
    """(P, demand): the support-gadget packing bound of
    :func:`_gamma_r_connected` on ``factor`` o H, for the H whose vertex
    table is ``table``, and the vertex weights it is taken under: lambda(H)
    on each support of degree at least 2, and 2 elsewhere."""
    lam = _support_weight(table)
    leaves = sum(1 << u for u in range(factor.n) if factor.adj[u].bit_count() == 1)
    demand = tuple(lam if factor.adj[u] & leaves and factor.adj[u].bit_count() >= 2 else 2 for u in range(factor.n))
    return _heaviest_packing(factor, demand, counter)[0], demand


def _support_weight(table: tuple[tuple[int, int], ...]) -> int:
    """lambda(H), read off the vertex table M(H) of a noncomplete H: the
    least w_l + w_s + w_o, with w_l, w_s in {0, 1, 2, a1, a0} and w_o in
    {0, 1, 2}, such that (w_l, min(w_s, 2)) and (w_s, min(w_l + w_o, 2))
    each meet an entry of M(H).  That is the copy-weight programme on P3
    (a leaf l, its support s and an outer vertex) with only l and s
    constrained; :func:`_gamma_r_connected` shows that it is lambda(H).
    Lowering a weight of 2 or more to the next value in its set leaves
    min(w, 2) as it was, so these values are enough."""
    values = {0, 1, 2, *(a for a, _ in table)}

    def meets(w: int, o: int) -> bool:
        return any(w >= a and min(o, 2) >= b for a, b in table)

    return min(l + s + o for l in values for s in values for o in (0, 1, 2) if meets(l, s) and meets(s, l + o))


def _solve_graph(invariant: str, g: Graph | ProductGraph, config: SolverConfig | None, solve_piece,
                 lex: bool = False) -> tuple[Graph, _Counter, list]:
    """(flat graph, counter, [(value, hits)]) for ``invariant`` on ``g``:
    ``solve_piece(piece, cap, counter)`` run on each piece of
    :func:`_pieces` in turn, returning the piece's value and its hits lifted
    to flat indices, with ``max_weight`` and the budget error's interval
    taken over the whole graph.

    Every piece has value at least 1 and at most its vertex count (f = 1
    everywhere, or the whole vertex set).  So a piece may use what the cap
    leaves after the solved pieces and 1 for each piece still to come.  A
    budget error reports the solved values plus, for the open piece, its
    bounds, and for each piece not yet started, 1 and its vertex count.  The
    open piece's upper bound is the weight of its witness, if it has one
    that the raw predicate accepts.
    """
    cfg = config or SolverConfig()
    flat = _flat(invariant, g)
    counter = _Counter(cfg.node_budget, invariant, flat.n)
    pieces = _pieces(g, lex, cfg.product_pruning)
    solved = 0
    out = []
    for i, piece in enumerate(pieces):
        later = pieces[i + 1:]
        cap = None if cfg.max_weight is None else cfg.max_weight - solved - len(later)
        counter.lower = 0
        counter.witness = None
        try:
            val, hits = solve_piece(piece, cap, counter)
        except BudgetExceededError as exc:
            sub = piece[1]
            upper = sub.n
            if counter.witness is not None and counter.witness[0] is sub:
                f = counter.witness[1]
                if PREDICATES[exc.invariant](sub, f):
                    upper = f.weight
            upper += solved + sum(p[1].n for p in later)
            raise BudgetExceededError(exc.invariant, solved + exc.lower + len(later), upper) from None
        solved += val
        out.append((val, hits))
    return flat, counter, out


def solve(invariant: str, g: Graph | ProductGraph, config: SolverConfig | None = None) -> SolveResult:
    """Exact optimum with a canonical certificate.

    Disconnected graphs are solved per component and summed (for
    ``gamma_r`` on a lexicographic product G o H, per component of G), and
    the certificate is the union of the components' canonical certificates.
    For a set invariant that union is the least optimal set of the whole
    graph.  For ``gamma_r`` and ``gamma_R`` it need not be the least
    (sorted V2, sorted V1) optimum, as V2 is compared first: on P3
    centred at 0 plus K1,3 centred at 1, P3's least optimum leaves V2
    empty, while a 2 on vertex 0 gives the whole graph the smaller V2
    {0, 1}.
    ``gamma_t`` requires no isolated vertex and ``gamma_2t`` requires
    minimum degree two; both raise :class:`UndefinedInvariantError`
    otherwise, as does the graph on zero vertices.
    """
    started = time.perf_counter()

    def solve_piece(piece, cap, counter):
        verts, sub, factor, h = piece
        if invariant == "gamma_r":
            val, hit = _gamma_r_connected(_WrdfSearch(sub, factor, h), counter, cap)
        elif invariant == "gamma_s":
            # a secure dominating set is V1 of a weak Roman dominating
            # function with V2 empty; it dominates, so its size rises from
            # ceil(n / (Delta + 1))
            search = _WrdfSearch(sub)
            lo = -(-sub.n // (sub.max_degree() + 1))
            val, (_, hit) = _lowest(lambda k: search.at_weight(k, counter, v2_cap=0), lo, sub.n, counter)
        elif invariant == "gamma_R":
            gamma, dom = _solve_min_set(sub, "gamma", counter)
            counter.witness = (sub, LegionFunction(sub.n, 0, dom))
            val, hit = _lowest(lambda t: _rdfs_at_weight(sub, t, gamma, counter), gamma, 2 * gamma, counter, cap)
        elif invariant == "rho":
            counter.lower = 1  # one vertex is a 2-packing
            val, hit = _heaviest_packing(sub, (1,) * sub.n, counter, proves=True)
        else:
            val, hit = _solve_min_set(sub, invariant, counter)
        masks = hit if invariant in FUNCTION_INVARIANTS else (hit,)
        return val, [tuple(_lift(m, verts) for m in masks)]

    flat, counter, solved = _solve_graph(invariant, g, config, solve_piece, lex=invariant == "gamma_r")
    (masks,) = _combine([hits for _, hits in solved])
    if invariant in FUNCTION_INVARIANTS:
        m2, m1 = masks
        certificate: VertexSet | LegionFunction = LegionFunction(flat.n, m1, m2)
    else:
        certificate = VertexSet(flat.n, masks[0])
    millis = (time.perf_counter() - started) * 1000.0
    return SolveResult(invariant, sum(val for val, _ in solved), certificate, counter.nodes, millis)


def enumerate_optimal_wrdf(g: Graph | ProductGraph, config: SolverConfig | None = None):
    """Yield every weak Roman dominating function of minimum weight, each
    exactly once, in canonical order.  On a disconnected graph the first
    may be smaller than the certificate of :func:`solve`."""

    def value_and_stream(piece, cap, counter):
        verts, sub, factor, h = piece
        search = _WrdfSearch(sub, factor, h)
        val, _ = _gamma_r_connected(search, counter, cap)
        # the symmetry cuts keep only orbit minima, so the optima stream
        # with them off; the demand and the V2 cap hold for every function
        stream = search.at_weight(val, counter, symmetry=False)
        return val, ((_lift(m2, verts), _lift(m1, verts)) for m2, m1 in stream)

    flat, counter, solved = _solve_graph("gamma_r", g, config, value_and_stream, lex=True)
    # the value is known: a budget error while streaming reports it
    counter.lower = counter.upper = sum(val for val, _ in solved)
    streams = [hits for _, hits in solved]
    # one piece streams its optima as they come; several are combined
    for m2, m1 in streams[0] if len(streams) == 1 else _combine(streams):
        yield LegionFunction(flat.n, m1, m2)


def is_weak_roman_graph(g: Graph, config: SolverConfig | None = None) -> bool:
    """gamma_r(G) == 2 gamma(G)."""
    return solve("gamma_r", g, config).value == 2 * solve("gamma", g, config).value


def is_roman_graph(g: Graph, config: SolverConfig | None = None) -> bool:
    """gamma_R(G) == 2 gamma(G)."""
    return solve("gamma_R", g, config).value == 2 * solve("gamma", g, config).value


# ---------------------------------------------------------------------------
# Exhaustive oracle (anti-bug cross check; no pruning, raw predicates only)
# ---------------------------------------------------------------------------

_ORACLE_SET_LIMIT = 20
_ORACLE_FUNCTION_LIMIT = 12


def oracle(invariant: str, g: Graph | ProductGraph) -> int:
    """Exact invariant value by exhaustive scan over all subsets (2^n) or
    all legion functions (3^n), using only the definitional predicates."""
    flat = _flat(invariant, g)
    n = flat.n
    predicate = PREDICATES[invariant]
    if invariant in FUNCTION_INVARIANTS:
        if n > _ORACLE_FUNCTION_LIMIT:
            raise GraphError(f"oracle limit: function invariants need n <= {_ORACLE_FUNCTION_LIMIT}")
        best = None
        for values in itertools.product((0, 1, 2), repeat=n):
            weight = sum(values)
            if best is not None and weight >= best:
                continue
            f = LegionFunction.from_values(values)
            if predicate(flat, f):
                best = weight
        return best
    if n > _ORACLE_SET_LIMIT:
        raise GraphError(f"oracle limit: set invariants need n <= {_ORACLE_SET_LIMIT}")
    best = None
    maximize = invariant == "rho"
    for mask in range(1 << n):
        size = mask.bit_count()
        if best is not None:
            if maximize and size <= best:
                continue
            if not maximize and size >= best:
                continue
        if predicate(flat, mask):
            best = size
    return best
