"""Monochromatic-solution search inside a coloring, avoiding-coloring search
(generalized Schur/Rado numbers), and DIMACS CNF export."""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .colorings import Coloring
from .systems import EquationSystem, eval_equation


class BudgetExhausted(Exception):
    """Raised when the node budget runs out.  A third outcome: it never means
    'no solution in range'."""


@dataclass(frozen=True)
class SearchBudget:
    N: int
    node_limit: int = None

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be positive")


@dataclass(frozen=True)
class SolutionRecord:
    assignment: dict
    color: int
    system: str


@dataclass(frozen=True)
class RadoNumberResult:
    value: int = None
    avoider: Coloring = None
    nodes: int = 0
    exhausted: bool = False
    pruned: int = 0  # branches cut because an integer had every color forbidden


@dataclass(slots=True, eq=False)
class _Nodes:
    limit: int
    count: int = 0

    def spend(self):
        self.count += 1
        if self.limit is not None and self.count > self.limit:
            raise BudgetExhausted(f"node budget {self.limit} exhausted")


class _Plan:
    """A system compiled once for the solution search, in plan order.

    The plan order is the declaration order with some variables moved
    earlier (hoisted): after each variable is placed, a later variable w is
    placed next when some equation then has w as its only unplaced variable
    and its terms in w have coefficients of one sign, such as the pivot
    c * w, -y * z^2 or z^2 + z.  Each coefficient of a power of w is then a
    nonzero polynomial of one sign in the placed variables, so that equation
    fixes w for every assignment of positive integers to them (see below),
    and w is never enumerated.  Hoisting repeats until no variable
    qualifies; among several, the first declared goes first.  In a system
    of one equation only its last variable can qualify, and it moves only
    past variables the equation lacks.  For x1 + 2x2 - 3y1 + z^2 + z = 0,
    2x1 - x2 - y2 + z^3 = 0, declared x1, x2, y1, y2, z, the plan order is
    x1, x2, y1, z, y2: z^2 + z fixes z once y1 is set, and then -y2 fixes
    y2.

    Each equation is scaled to integer coefficients and closes at its last
    variable in plan order.  The search keeps running sums in slots: one per
    equation, its residual, and one per coefficient of a power i^x inside a
    slot, which is a polynomial in the variables before i.  Setting i to v
    adds that coefficient times v^x to the slot above it (the feeds of i), so
    each product of values is formed once, when its last factor is set.  The
    closes of i are the equations that close at i, each with the slots of
    its coefficients of i^x: once the earlier variables are set, such an
    equation is a polynomial in i with known integer coefficients.

    A position i has at most one fixing equation, chosen here by the sign
    test of hoisting (`_signs`): the first closing at i whose only term in
    i is c * i (the pivot), else the first whose terms in i share a sign.
    The pivot fixes i through a table of residuals, which the cuts of
    `solutions` read; any other by bisection, as it is monotone in i in the
    direction of its sign (y * z = x1 + x2 + x3 is the case of one power).
    So the hoisted positions, and the first if it has one, are fixed; the
    rest are enumerated.  Every other closing equation is checked.  The test
    reads signs, not values: z of (x - y) * z^2 + z = 6 is enumerated.  A
    variable-free equation with a nonzero constant leaves no solutions.

    Solutions come out in lexicographic order of their values in declaration
    order.  The enumerated variables are tried in ascending order and keep
    their declaration order, and a hoisted variable is a function of the
    enumerated variables declared before it, so two solutions first differ
    at an enumerated variable, the same in either order.

    Variables i < j are interchangeable when swapping them maps the
    equations, each in the form `_canonical` gives, onto the same multiset;
    the distinctness policies are invariant under every permutation.  The
    relation is transitive ((i k) = (i j)(j k)(i j)), so it splits the
    variables into classes, and the search gives the members of a class
    nondecreasing values in declaration order: one solution per orbit of
    the permutations within classes.  The lexicographically least solution
    is among them, since swapping a[i] > a[j] for interchangeable i < j gives
    a smaller one.  The members of a class keep their declaration order in
    plan order, so a[prev[i]] is set when i is placed: when an equation
    fixes i for certain, swapping i with an earlier partner j maps it onto
    an equation that fixes j from the same placed variables, unless j is
    in it and so already placed; and of two variables ready at once, the
    first declared goes first.

    The lists below are indexed by plan position, and so are the values
    that `solutions` assigns; `pos[k]` is the plan position of the k-th
    declared variable, None when no variable moves.
    """

    def __init__(self, sys: EquationSystem):
        index = {v: i for i, v in enumerate(sys.variables)}
        n = len(index)
        self.names = sys.variables
        self.distinct = sys.distinctness == "all-distinct"
        self.nontrivial = sys.distinctness == "nontrivial"
        self.unsolvable = False
        eqs = []  # (constant, [(c, [(variable, exponent), ...]), ...]) per equation with a variable
        forms = []  # the canonical form of each of them
        for eq in sys.equations:
            scale = math.lcm(*(Fraction(c).denominator for c, _ in eq.terms))
            const, terms = 0, []
            for c, mono in eq.terms:
                c = int(c * scale)
                if mono.exps:
                    terms.append((c, [(index[v], x) for v, x in mono.exps]))
                else:
                    const += c
            if not terms:
                self.unsolvable |= const != 0
                continue
            eqs.append((const, terms))
            forms.append(_canonical(terms + [(const, [])]))
        # prev[i]: the previous member of i's class, or i itself when there is
        # none; i is unset (0) while its value is decided, so a[prev[i]] is
        # the lower bound of i's value either way
        prev = list(range(n))
        self.classes = []
        forms.sort()
        # only variables of one shape can be interchangeable
        shapes, alike = _shapes(forms, n), {}
        for i, shape in enumerate(shapes):
            alike.setdefault(shape, []).append(i)
        for i in range(n):
            if prev[i] != i:
                continue
            members = [i]
            for j in alike[shapes[i]]:
                if j > i and prev[j] == j and _swapped(forms, i, j) == forms:
                    prev[j] = members[-1]
                    members.append(j)
            self.classes.append(tuple(self.names[k] for k in members))
        signs = [_signs(terms) for _, terms in eqs]
        order = _plan_order(signs, n)
        pos = [0] * n
        for p, i in enumerate(order):
            pos[i] = p
        self.pos = None if order == list(range(n)) else pos
        self.prev = [pos[prev[i]] for i in order]
        self.const = []  # starting value of each slot
        self.feeds = [[] for _ in order]  # (s, t, x): setting i to v adds slot t * v^x to slot s
        self.closes = [[] for _ in order]  # (e, [(t, x), ...]): e's terms in i are slot t * i^x
        # (e, [(t, x), ...], up, c): the equation e that fixes i, increasing
        # in i when up; c when c * i is its only term in i (the pivot), else None
        self.fixing = [None] * n
        below = {}  # (s, i, x) -> the slot of the coefficient of i^x in slot s

        def slot(value):
            self.const.append(value)
            return len(self.const) - 1

        def add(s, c, m):
            # add the term c * m, m its (variable, exponent) pairs in
            # ascending plan order, to slot s
            while m:
                h, x = m.pop()
                if (s, h, x) not in below:
                    below[s, h, x] = slot(0)
                    self.feeds[h].append((s, below[s, h, x], x))
                s = below[s, h, x]
            self.const[s] += c

        for (const, terms), sign in zip(eqs, signs):
            terms = [(c, sorted((pos[i], x) for i, x in m)) for c, m in terms]
            e = slot(const)
            top = max(m[-1][0] for _, m in terms)
            mine = [(c, m) for c, m in terms if m[-1][0] == top]
            pivot = mine[0][0] if len(mine) == 1 and mine[0][1] == [(top, 1)] else None
            own = {}  # x -> the slot of the coefficient of top^x
            for c, m in terms:
                if m[-1][0] == top:
                    x = m.pop()[1]
                    if x not in own:
                        own[x] = slot(0)
                    add(own[x], c, m)
                else:
                    add(e, c, m)
            close = (e, [(t, x) for x, t in sorted(own.items())])
            self.closes[top].append(close)
            up, f = sign[order[top]], self.fixing[top]
            if up and (f is None or pivot and not f[3]):
                self.fixing[top] = (*close, up > 0, pivot)
        # the closing equations a value for i is checked against: all but its fixing one
        self.solved = [[c for c in self.closes[i] if not f or c[0] != f[0]] for i, f in enumerate(self.fixing)]
        # until[i]: the first position after i that no equation fixes, or n
        self.until = [next((j for j in range(i + 1, n) if not self.fixing[j]), n) for i in range(n)]
        # leaf: n - 2 when the last variable is fixed by its pivot and
        # nothing else could reject its value: no class partner before it,
        # no all-distinct policy and no other equation closing at it (and,
        # being last, it feeds no slot); its value then comes straight from
        # the pivot's table.  Else None
        last = self.fixing[-1]
        plain = last and last[3] and self.prev[-1] == n - 1 and not (self.distinct or self.solved[-1])
        self.leaf = n - 2 if n > 1 and plain else None
        # aheads[i]: when a pivot fixes the variable after i and i enters its
        # equation through one power i^x, (the power's place in feeds[i], x,
        # k) where k is the coefficient when it is a nonzero constant, the
        # power is i itself and i is not the root fixed, else None
        fed = {s for feeds in self.feeds for s, _, _ in feeds}
        self.aheads = [None] * n
        for i in range(n - 1):
            fix = self.fixing[i + 1]
            into = [(f, t, x) for f, (s, t, x) in enumerate(self.feeds[i]) if fix and fix[3] and s == fix[0]]
            if len(into) == 1:
                [(f, t, x)] = into
                constant = x == 1 and t not in fed and not self.fixing[i]
                self.aheads[i] = (f, x, self.const[t] if constant else None)

    def solutions(self, values, nodes):
        """Every solution with all its values in `values` (positive,
        ascending), in lexicographic order, each as the list of its values
        in declaration order.  Each value tried at an enumerated variable
        costs one node; a value an equation fixes is free.  Variables are set
        in plan order, and "next" below means next in plan order.

        Cuts apply when the next variable w is fixed by its pivot
        c * w = -res and the variable v being tried enters that equation
        through one power, as k * v^x (k known when v's turn comes).  When
        x = 1 and k is a constant of the equation, the values of v whose w
        is in the class are found all at once: v fits iff
        sign(k) * res + |k| * v = -sign(k) * c * w for a value w, so the
        keys -sign(k) * c * w, split by residue mod |k| and each part
        divided by |k|, are bitmasks built once per call, and the
        candidates are one shift of the part of res's residue, ANDed with
        the values.  The masks span about |c / k| times the range of the
        values, so they are built only when they take at most _MASK_BITS
        bits per value; a sparse class or a large |c / k| keeps the cuts
        below.  Otherwise the solved w moves monotonically with v, so
        the values of v that put -res outside the span of c * w over the
        class form a prefix and a suffix of the candidates, cut by
        bisection.  And when x = 1, w is an integer only if
        k * v = -res (mod c): with g = gcd(k, c), no v fits when g does not
        divide res, and otherwise v runs over one residue class mod c / g,
        from the values split by residue once per call and modulus.  A value
        cut is never tried and costs no node; the values that remain are
        tried in ascending order.

        At the leaf (see `_Plan`), the value of the last variable is read
        from its pivot's table with the residual v leaves, and the solution
        goes out at once, without the forcing chain: nothing there could
        reject it.  The enumeration frees its tables when it ends or is
        closed."""
        n = len(self.names)
        if self.unsolvable or not values:
            return
        feeds, distinct, nontrivial, prev, pos = self.feeds, self.distinct, self.nontrivial, self.prev, self.pos
        fixing, solved, until, leaf = self.fixing, self.solved, self.until, self.leaf
        res = list(self.const)
        a = [0] * n  # a[i]: value of the variable at plan position i, 0 while unset
        # residual -> value for each pivot: residual + c * v = 0
        lookup = [f and f[3] and (f[0], {-f[3] * w: w for w in values}) for f in fixing]
        # per position i with an ahead (see `_Plan`) whose k is a constant,
        # when the masks fit in _MASK_BITS bits per value:
        # masks[i] = (the equation, sign(k), |k|, {residue: part}, shift),
        # where bit u - shift of the part of residue rho stands for the key
        # u * |k| + rho; else probes[i] = (the equation, its table, the
        # power's place in feeds[i], the table's least and greatest key, the
        # least and greatest value to the power x, and |c|)
        masks, probes = [None] * n, [None] * n
        held = None  # the bitmask of the values, built with the first mask
        for i, h in enumerate(self.aheads):
            if h is None:
                continue
            f, x, k = h
            e, table = lookup[i + 1]
            c = fixing[i + 1][3]
            if k:
                s, k = (1 if k > 0 else -1), abs(k)
                low, high = sorted((-s * c * values[0], -s * c * values[-1]))
                shift = low // k
                # the bits of the parts, each spanning [low, high] / k, and of held
                size = min(k, len(values)) * (high // k - shift + 1) + values[-1] + 1
                if size <= _MASK_BITS * len(values):
                    split = {}
                    for w in values:
                        u, rho = divmod(-s * c * w, k)
                        split.setdefault(rho, []).append(u - shift)
                    masks[i] = (e, s, k, {rho: _bitmask(us) for rho, us in split.items()}, shift)
                    if held is None:
                        held = _bitmask(values)
                    continue
            low, high = sorted((-c * values[0], -c * values[-1]))
            probes[i] = (e, table, f, low, high, values[0] ** x, values[-1] ** x, abs(c))
        parts = {}  # modulus m -> {residue: the values in that class mod m}

        def forced(i):
            # the value the fixing equation of i gives, None when it is not
            # in the class
            if lookup[i]:
                e, table = lookup[i]
                return table.get(res[e])
            e, own, up, _ = fixing[i]
            r, ks = res[e], [(res[t], x) for t, x in own]
            # r + sum k * v^x is monotone in v, increasing when up: bisect for its zero
            lo, hi = 0, len(values)
            while lo < hi:
                mid = (lo + hi) // 2
                v = values[mid]
                s = r
                for k, x in ks:
                    s += k * v**x
                if not s:
                    return v
                if (s < 0) == up:
                    lo = mid + 1
                else:
                    hi = mid
            return None

        def place(i, v):
            # set i to v if its class order, distinctness and the equations
            # closing at i allow
            if v < a[prev[i]] or distinct and v in a:
                return False
            for e, own in solved[i]:
                if res[e] + sum(res[t] * v**x for t, x in own):
                    return False
            a[i] = v
            for s, t, x in feeds[i]:
                res[s] += res[t] * v**x
            return True

        def unplace(i):
            v = a[i]
            for s, t, x in feeds[i]:
                res[s] -= res[t] * v**x
            a[i] = 0

        def dfs(i):
            # i is the root or a position no equation fixes; the earlier
            # variables are set, so each power of i has a known coefficient k
            lo = a[prev[i]]
            if masks[i]:
                # the values v >= lo of i whose next variable w is in the
                # class: key u * k + rho = s * res + k * v, so v = u - d
                # where d * k + rho = s * res; bit u - shift becomes bit v
                e, s, k, split, shift = masks[i]
                d, rho = divmod(s * res[e], k)
                hits = split.get(rho, 0)
                hits = (hits >> d - shift if d >= shift else hits << shift - d) & held
                hits = hits >> lo << lo
                if not hits:
                    return
            fed = [(s, res[t], x) for s, t, x in feeds[i]]
            checks = [(e, [(res[t], x) for t, x in own]) for e, own in solved[i]]
            # when a pivot fixes the next variable and v enters its equation
            # through one power, a miss there rejects v before it is placed
            ahead = probes[i] is not None
            if ahead:
                ae, atable, f, low, high, bottom, top, c = probes[i]
                _, ak, ax = fed[f]
            if masks[i]:
                cands, spend = _members(hits), nodes.spend
            elif fixing[i]:  # the root
                w = forced(i)
                cands, spend = ((w,) if w else ()), None
            else:
                pool, hi, spend = values, None, nodes.spend
                if ahead and ak:
                    r = res[ae]
                    # r + ak * v^ax lies in the key span [low, high] iff
                    # v^ax lies in [tlo, thi]
                    if ak < 0:
                        low, high = high, low
                    tlo = -((r - low) // ak)
                    thi = (high - r) // ak
                    if tlo > bottom:
                        lo = max(lo, _iroot(tlo - 1, ax) + 1)
                    if thi < top:
                        hi = _iroot(thi, ax) if thi > 0 else 0
                    if ax == 1:
                        # c divides r + ak * v
                        g = math.gcd(ak, c)
                        if r % g:
                            return
                        m = c // g
                        if m > 1:
                            if m not in parts:
                                parts[m] = {}
                                for v in values:
                                    parts[m].setdefault(v % m, []).append(v)
                            pool = parts[m].get(-r // g * pow(ak // g, -1, m) % m, ())
                start = bisect_left(pool, lo) if lo else 0
                stop = len(pool) if hi is None else bisect_right(pool, hi, start)
                cands = pool[start:stop] if start or stop < len(pool) else pool
            last = i == leaf
            if last:
                # the last variable is table[lr + lk * v + sum k * v^x], with
                # lr = res[le] and the k known here: a lookup that makes the
                # probe's test redundant
                le, table = lookup[n - 1]
                lr = res[le]
                powers = {x: k for s, k, x in fed if s == le}  # one feed per power
                lk = powers.pop(1, 0)
                powers = list(powers.items())
                ahead = False
            for v in cands:
                if spend:
                    spend()
                if distinct and v in a:
                    continue
                if ahead and res[ae] + ak * v**ax not in atable:
                    continue
                if checks:
                    for e, ts in checks:
                        r = res[e]
                        for k, x in ts:
                            r += k * v**x
                        if r:
                            break
                    if r:
                        continue
                if last:
                    r = lr + lk * v
                    for x, k in powers:
                        r += k * v**x
                    w = table.get(r)
                    if w is None:
                        continue
                    a[i] = v
                    a[-1] = w
                    if not (nontrivial and w == v and a.count(v) == n):
                        yield a[:] if pos is None else [a[p] for p in pos]
                    continue
                a[i] = v
                for s, k, x in fed:
                    res[s] += k * v**x
                # the variables after i that equations fix, inline
                j, end = i + 1, until[i]
                while j < end:
                    w = forced(j)
                    if w is None or not place(j, w):
                        break
                    j += 1
                if j == end < n:  # every variable up to the next enumerated one is placed
                    yield from dfs(j)
                elif j == n and not (nontrivial and a.count(v) == n):
                    yield a[:] if pos is None else [a[p] for p in pos]
                while j > i + 1:
                    j -= 1
                    unplace(j)
                for s, k, x in fed:
                    res[s] -= k * v**x
                a[i] = 0
            if last:
                a[i] = a[-1] = 0

        try:
            yield from dfs(0)
        finally:
            # dfs refers to itself, so the closures and the tables they
            # hold would wait for the next cyclic collection
            forced = place = unplace = dfs = None


def _signs(terms):
    """Per variable of an equation given as integer terms, the sign its
    terms share, 1 or -1, or 0 when they have both: where it is not 0, the
    equation fixes the variable once the others are set (see `_Plan`)."""
    sign = {}
    for c, m in terms:
        s = 1 if c > 0 else -1
        for i, _ in m:
            sign[i] = s if sign.get(i, s) == s else 0
    return sign


def _plan_order(signs, n):
    """The plan order of `_Plan` for variables 0..n-1: each in declaration
    order, followed by the variables that its placing lets an equation fix
    for certain.  `signs` holds `_signs` of each equation."""
    order, placed = [], [False] * n
    for i in range(n):
        w = None if placed[i] else i
        while w is not None:
            order.append(w)
            placed[w] = True
            ready = [
                v for s in signs for v in s
                if not placed[v] and s[v] and all(placed[u] or u == v for u in s)
            ]
            w = min(ready, default=None)
    return order


# the most bits per value of the class that the masks of one
# `_Plan.solutions` call may take: as many as a list of the values takes in
# pointers, so a mask costs no more memory than the probe's table, and one
# shift and AND of it costs about one word operation per value
_MASK_BITS = 64


def _bitmask(bits):
    """The integer whose set bits are `bits`, nonnegative integers."""
    b = bytearray((max(bits) >> 3) + 1)
    for v in bits:
        b[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(b, "little")


def _members(m):
    """The positions of the set bits of the integer m >= 0, ascending, read
    from its binary digits: the cost grows with the bit length plus the
    number of set bits, not with their product."""
    s = bin(m)
    top, j = len(s) - 1, len(s)
    while True:
        j = s.rfind("1", 2, j)
        if j < 0:
            return
        yield top - j


def _iroot(t, x):
    """The floor of the x-th root of the integer t >= 1."""
    if x == 1:
        return t
    r = 1 << -(-t.bit_length() // x)  # at least the root
    while True:
        s = ((x - 1) * r + t // r ** (x - 1)) // x
        if s >= r:
            return r
        r = s


def _canonical(terms):
    """An equation given as integer terms [(c, [(variable, exponent), ...])]
    in a form shared by its nonzero multiples and by no other equation:
    coefficients divided by their gcd, terms sorted, the first coefficient
    positive.  The constant term has the empty monomial."""
    terms = sorted((tuple(sorted(m)), c) for c, m in terms if c)
    g = math.gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        g = -g
    return tuple((m, c // g) for m, c in terms)


def _shapes(forms, n):
    """Per variable 0..n-1, its shape in the canonical forms: for each form
    that has it, its terms there as sorted (coefficient, exponent, monomial
    size), negated where that sorts first, and these sorted.  A swap of i
    and j that `_swapped` maps onto the same forms moves i's terms in each
    form to j's in its image, which has the same coefficients or their
    negatives, so interchangeable variables have one shape."""
    terms = [{} for _ in range(n)]
    for f, form in enumerate(forms):
        for m, c in form:
            for v, x in m:
                terms[v].setdefault(f, []).append((c, x, len(m)))
    return [
        tuple(sorted(min(tuple(sorted(ts)), tuple(sorted((-c, x, k) for c, x, k in ts))) for ts in per.values()))
        for per in terms
    ]


def _swapped(forms, i, j):
    """The sorted canonical forms after variables i and j swap names."""
    rename = {i: j, j: i}
    return sorted(
        _canonical([(c, [(rename.get(k, k), x) for k, x in m]) for m, c in form]) for form in forms
    )


# ---------------------------------------------------------------------------
# public operations


def find_mono_solution(sys: EquationSystem, c: Coloring, budget: SearchBudget, nodes: _Nodes = None):
    """First monochromatic solution of the system inside [1..min(N, c.N)],
    scanning color classes in index order and values in ascending order
    (lexicographically least within the first solvable class).  None when no
    solution exists in range; raises BudgetExhausted when the node limit is
    hit first.  The nodes are charged to `nodes`, by default a fresh
    counter with the budget's limit; a caller that passes its own reads the
    count from it whatever the outcome."""
    if nodes is None:
        nodes = _Nodes(budget.node_limit)
    bound = min(budget.N, c.N)
    classes = {}
    for k, col in enumerate(c.colors[:bound], start=1):
        classes.setdefault(col, []).append(k)
    plan = _Plan(sys)
    for color in sorted(classes):
        for a in plan.solutions(classes[color], nodes):
            return SolutionRecord(assignment=dict(zip(sys.variables, a)), color=color, system=sys.name)
    return None


def validate_solution(sys: EquationSystem, c: Coloring, rec: SolutionRecord) -> bool:
    """Independent revalidation: residuals via eval_equation, color uniformity
    via the coloring, distinctness policy re-checked."""
    vals = [rec.assignment[v] for v in sys.variables]
    if any(not isinstance(v, int) or v < 1 for v in vals):
        return False
    if any(eval_equation(eq, rec.assignment) != 0 for eq in sys.equations):
        return False
    if any(c.color_of(v) != rec.color for v in vals):
        return False
    if sys.distinctness == "all-distinct" and len(set(vals)) != len(vals):
        return False
    if sys.distinctness == "nontrivial" and len(set(vals)) == 1:
        return False
    return True


def _value_sets(sys, N, nodes):
    """The value set of every solution in [1..N], colors ignored, as a sorted
    tuple, in enumeration order; a set can repeat.  Whether a solution is
    monochromatic depends only on its value set, which is the same for every
    solution in an orbit.  Values whose solved next variable would fall
    outside [1..N], or not be an integer, are cut before they are tried (see
    `_Plan.solutions`)."""
    for a in _Plan(sys).solutions(list(range(1, N + 1)), nodes):
        yield tuple(sorted(set(a)))


def _solution_index(sys, M, nodes):
    """The solution hypergraph on [1..M] as (sizes, keys, forbidden, single).
    The value sets of two or more members are indexed by their second-largest
    member j, each as the pair (rest, u): u is the set's maximum and rest the
    bitmask of its members below j (bit v stands for the integer v); sizes[j]
    counts j's pairs and keys[j] is the OR of their rests.  forbidden(j, part)
    is the bitmask of the maxima of j's sets whose rest lies in `part`, a
    color class cut down to keys[j], cached in one LRU cache of `_MEMO_SIZE`
    * M results.  single is the bitmask of the one-member value sets."""
    index = [set() for _ in range(M + 1)]
    keys = [0] * (M + 1)
    single = 0
    for s in _value_sets(sys, M, nodes):
        if len(s) == 1:
            single |= 1 << s[0]
            continue
        rest = 0
        for v in s[:-2]:
            rest |= 1 << v
        index[s[-2]].add((rest, s[-1]))
        keys[s[-2]] |= rest
    index = [tuple(pairs) for pairs in index]

    @functools.lru_cache(maxsize=_MEMO_SIZE * M)
    def forbidden(j, part):
        bits = 0
        for rest, u in index[j]:
            if rest & part == rest:
                bits |= 1 << u
        return bits

    return [len(pairs) for pairs in index], keys, forbidden, single


# the forbid cache of an index on [1..M] holds _MEMO_SIZE * M results
_MEMO_SIZE = 256


def rado_number(sys: EquationSystem, r: int, budget: SearchBudget) -> RadoNumberResult:
    """Least N <= budget.N such that every r-coloring of [1..N] has a
    monochromatic solution.  The avoiding coloring for N-1 is attached.  On
    budget exhaustion (or no value up to budget.N) the value is absent and
    the largest avoider found is attached; `exhausted` distinguishes the
    two.

    One depth-first search colors 1, 2, 3, ... in turn: the color of 1 is
    fixed to 0 and new colors are introduced in ascending order.  Avoiding
    colorings are closed under prefixes, and a new monochromatic solution
    must contain the integer k just colored, as the largest member of its
    value set.  The search forbids colors ahead: the value sets are indexed
    by their second-largest member j, and when j gets color c, every set
    under j whose members below j all have color c forbids c at its maximum
    u.  So coloring k with c is legal iff bit k of the forbid mask of c is
    clear; a one-member set {k} forbids every color at k.  The forbid masks
    are restored on backtracking.

    The value is 1 + the depth of the deepest avoiding prefix, and the first
    prefix to reach a depth is the least avoider of that length in search
    order.  Branch and bound keeps both: a branch is cut (counted in
    `pruned`) when an integer u <= len(best) + 1 has every color forbidden,
    where best is the deepest avoiding prefix found so far.  No extension of
    such a prefix colors u, so none is deeper than best, and the cut never
    removes the first prefix to reach a new depth.

    The value sets are enumerated once per range [1..M]: M starts at
    min(N, 8) and grows by half (to M * 3 // 2), up to N, when the search
    first goes deeper than M; the forbid masks of the current prefix are
    then recomputed from the new index.  The search's lists grow with M,
    not with N or r.  `nodes` counts enumeration steps, colors tried and, when k
    gets a color, one node per value set indexed under k, all charged to
    `budget.node_limit`; the budget is checked once per color tried.  A
    search whose budget runs out during an enumeration never reports a
    value.

    The colors a value set forbids when k gets color c depend only on k and
    on the part of c's class that k's sets read, the class ANDed with the
    OR of their members below k.  The index answers that through one LRU
    cache of `_MEMO_SIZE` * M results keyed by (k, part), which goes with
    the index when M grows, so the sets are scanned only when a part is not
    cached.  On the three longest avoider-search queries of the benchmark
    it answers 87-92% of the forbid steps, and no cache there fills up.  A
    node is charged per set whether or not the cache answers, so the node
    count does not depend on it.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    N = budget.N
    nodes = _Nodes(budget.node_limit)  # charged by the enumerations
    cap = math.inf if budget.node_limit is None else budget.node_limit
    count = 0  # nodes spent, kept here and synced with nodes around each enumeration
    # per depth k, grown with M: colors[k] is the color of k in the current
    # prefix, undo[k] the forbid mask of that color before k got it,
    # next_color[k] the next color to try at k, used[k] the number of colors
    # used by 1..k-1
    colors, undo, next_color, used = [0], [0], [0, 0], [0, 0]
    # min(r, M + 1) colors: k <= M takes at most k colors, so while r is
    # larger one color here is unused and stands for every unused color
    masks = []  # bit k of masks[c]: k is colored c
    forb = []  # bit u of forb[c]: coloring u with c completes a set
    M = 0
    best = ()  # deepest avoiding prefix found, first in search order
    reach = 3  # bits 0..len(best) + 1: a wiped-out integer here cuts
    pruned = 0
    exhausted = False
    try:
        k = 1
        while k:
            c = next_color[k]
            if c > used[k] or c == r:  # depth k is done: back to k - 1
                k -= 1
                if k:
                    c = colors[k]
                    masks[c] ^= 1 << k
                    forb[c] = undo[k]
                continue
            next_color[k] = c + 1
            count += 1  # nodes.spend() inline: this loop is the hot path
            if count > cap:
                raise BudgetExhausted
            if k > M:
                grown = min(N, max(8, M * 3 // 2))
                nodes.count = count
                try:
                    sizes, keys, forbidden, single = _solution_index(sys, grown, nodes)
                finally:
                    count = nodes.count
                for a in (colors, undo, next_color, used):
                    a.extend([0] * (grown - M))
                M = grown
                masks.extend([0] * (min(r, M + 1) - len(masks)))
                # the sets with a maximum beyond the old M forbid colors in
                # the prefix 1..k-1 too: recompute its masks (masks[cd] also
                # holds integers above d, but no set under d contains them)
                forb = [single] * len(masks)
                for d in range(1, k):
                    cd = colors[d]
                    undo[d] = forb[cd]
                    count += sizes[d]
                    forb[cd] |= forbidden(d, masks[cd] & keys[d])
            f = forb[c]
            if f >> k & 1:
                continue
            colors[k] = c
            undo[k] = f
            mask = masks[c] = masks[c] | 1 << k
            count += sizes[k]
            f = forb[c] = f | forbidden(k, mask & keys[k])
            if k > len(best):
                best = tuple(colors[1 : k + 1])
                reach = (4 << k) - 1
                if k == N:
                    break
            for g in forb:
                f &= g
            if f & reach:
                pruned += 1
                masks[c] = mask ^ 1 << k
                forb[c] = undo[k]
                continue
            used[k + 1] = used[k] if used[k] > c else c + 1
            next_color[k + 1] = 0
            k += 1
    except BudgetExhausted:
        exhausted = True
    avoider = Coloring(N=len(best), r=r, colors=best) if best else None
    value = None if exhausted or len(best) == N else len(best) + 1
    return RadoNumberResult(
        value=value,
        avoider=avoider,
        nodes=count,
        exhausted=exhausted,
        pruned=pruned,
    )


# ---------------------------------------------------------------------------
# CNF export


CNF_TUPLE_LIMIT = 200000  # node limit of the enumeration behind export_cnf
CNF_TRUNCATED = "c WARNING: solution-tuple enumeration truncated; instance under-approximates"
# the most clauses export_cnf writes: the one-color clauses of every range up
# to 10^6 at 4 colors fit (7 clauses per integer)
CNF_CLAUSE_LIMIT = 10**7
# the most clauses cnf_instance joins into one piece of text: few pieces,
# each small next to the instance even at 40 colors
_CNF_PIECE = 2048


def check_cnf_size(r: int, N: int, value_sets: int = 0) -> int:
    """The clauses of an export_cnf instance on N integers, r colors and
    `value_sets` value sets: N * (1 + r(r-1)/2) that give each integer exactly
    one color, and r per value set that keep it from being monochromatic.
    Refused, with a ValueError, above `CNF_CLAUSE_LIMIT`."""
    if r < 1 or N < 1:
        raise ValueError("r and N must be positive")
    need = N * (1 + r * (r - 1) // 2) + r * value_sets
    if need > CNF_CLAUSE_LIMIT:
        why = f"with their {value_sets:,} value sets" if value_sets else "to give each one color"
        raise ValueError(
            f"{N:,} integers with {r} colors take {need:,} clauses {why}, above the limit of {CNF_CLAUSE_LIMIT:,}"
        )
    return need


def cnf_instance(sys: EquationSystem, r: int, N: int):
    """The DIMACS CNF instance that is satisfiable iff an avoiding r-coloring
    of [1..N] exists, as (header, truncated, chunks).  Variables v(n,c) =
    (n-1)*r + c + 1; clauses give each integer exactly one color and block
    every solution tuple from being monochromatic.

    `header` is the `p cnf` line.  `truncated` is True when tuple
    enumeration hit `CNF_TUPLE_LIMIT` nodes: the instance then
    under-approximates and carries the comment line `CNF_TRUNCATED`.
    `chunks` yields the text in pieces: one per comment line and the
    header, then the one-color clauses of whole integers, then the clauses
    of whole value sets, at most `_CNF_PIECE` clauses a piece unless one
    integer alone has more.
    The value sets are enumerated before this returns, so an instance above
    `CNF_CLAUSE_LIMIT` is refused (`check_cnf_size`) before any piece: on
    its one-color clauses before the enumeration, and on all of them after.
    """
    check_cnf_size(r, N)
    truncated = False
    found = {}  # the value sets, once each, in enumeration order, which sorts fast
    try:
        for value_set in _value_sets(sys, N, _Nodes(CNF_TUPLE_LIMIT)):
            found[value_set] = None
    except BudgetExhausted:
        truncated = True
    header = f"p cnf {N * r} {check_cnf_size(r, N, len(found))}"
    value_sets = sorted(found)  # the pieces hold this list; the dict goes on return

    def chunks():
        yield f"c avoiding-coloring instance for system {sys.name!r}, r={r}, N={N}\n"
        yield "c variable numbering: v(n,c) = (n-1)*r + c + 1\n"
        if truncated:
            yield CNF_TRUNCATED + "\n"
        yield header + "\n"
        step = max(1, _CNF_PIECE // (1 + r * (r - 1) // 2))
        for first in range(1, N + 1, step):
            out = []
            for n in range(first, min(first + step, N + 1)):
                # the literal "not v(n,c)" with the space that follows it in
                # a clause; the literal v(n,c) is lits[c][1:]
                lits = [f"-{(n - 1) * r + c + 1} " for c in range(r)]
                out += [lit[1:] for lit in lits]
                out.append("0\n")
                for c1 in range(r):
                    for c2 in range(c1 + 1, r):
                        out += (lits[c1], lits[c2], "0\n")
            yield "".join(out)
        # neg[c][n] is that literal for n up to the largest value-set member;
        # neg[c][0] ends a clause, so a value set followed by 0 spells its
        # clause for color c
        top = max((tup[-1] for tup in value_sets), default=0)
        neg = [["0\n"] + [f"-{(n - 1) * r + c + 1} " for n in range(1, top + 1)] for c in range(r)]
        step = max(1, _CNF_PIECE // r)
        for first in range(0, len(value_sets), step):
            piece = value_sets[first : first + step]
            yield "".join([row[v] for tup in piece for ended in ((*tup, 0),) for row in neg for v in ended])

    return header, truncated, chunks()


def export_cnf(sys: EquationSystem, r: int, N: int) -> str:
    """The text of `cnf_instance(sys, r, N)` as one string."""
    return "".join(cnf_instance(sys, r, N)[2])
