"""Skeleton category of GL at interpolated dimension t.

Objects are words in the letters V, V*; morphisms are Q[t]-linear
combinations of wall-respecting perfect matchings on the legs of the two
words.  Composition stacks diagrams and multiplies by t for every closed
loop.  All loops are counted one way (`_loops`): as the cycles that
alternate an edge of one matching with an edge of another on a common set
of legs.  Composition walks each open end through the middle row first and
counts the middle legs left over; the trace closure pairs a diagram with
the matching i <-> n+i; the Gram pairing pairs two diagrams directly.

Leg indexing convention: legs are numbered globally left-to-right, the
source row first (0..s-1) and the target row after it (s..s+t-1).  Edges
are stored as a sorted tuple of sorted index pairs so that diagram equality
is structural comparison and diagrams can key sparse linear combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .field import ONE_POLY, T_POLY, Poly
from .lincomb import axpy
from .linalg import rank_dense

V = "V"
VDUAL = "V*"

Word = tuple[str, ...]


def word(text: str) -> Word:
    """Parse a word like 'VV*V' into a letter tuple."""
    out = []
    i = 0
    while i < len(text):
        if text[i] != "V":
            raise ValueError(f"bad letter at position {i} in {text!r}")
        if i + 1 < len(text) and text[i + 1] == "*":
            out.append(VDUAL)
            i += 2
        else:
            out.append(V)
            i += 1
    return tuple(out)


def word_text(w: Word) -> str:
    return "".join(w)


def dual_word(w: Word) -> Word:
    return tuple(VDUAL if x == V else V for x in w)


def counts(w: Word) -> tuple[int, int]:
    """(#V, #V*) of a word."""
    k = sum(1 for x in w if x == V)
    return k, len(w) - k


def _canonical_pairs(pairs) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


@dataclass(frozen=True)
class BrauerDiagram:
    """Wall-respecting perfect matching between the legs of two words."""

    source: Word
    target: Word
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", _canonical_pairs(self.pairs))
        ns = len(self.source)
        legs = ns + len(self.target)
        seen = [False] * legs
        for a, b in self.pairs:
            if not (0 <= a < legs and 0 <= b < legs) or a == b:
                raise ValueError(f"bad leg pair ({a},{b})")
            if seen[a] or seen[b]:
                raise ValueError(f"leg used twice in {self.pairs}")
            seen[a] = seen[b] = True
            la, lb = self.letter(a), self.letter(b)
            same_row = (a < ns) == (b < ns)
            if same_row and la == lb:
                raise ValueError(f"cup/cap ({a},{b}) must join opposite letters")
            if not same_row and la != lb:
                raise ValueError(f"through edge ({a},{b}) must join equal letters")
        if not all(seen):
            raise ValueError("matching is not perfect")

    def letter(self, leg: int) -> str:
        ns = len(self.source)
        return self.source[leg] if leg < ns else self.target[leg - ns]

    def to_text(self) -> str:
        ps = "".join(f"({a + 1},{b + 1})" for a, b in self.pairs)
        return f"src={word_text(self.source)};tgt={word_text(self.target)};pairs={ps}"

    @classmethod
    def from_text(cls, text: str) -> "BrauerDiagram":
        fields = dict(part.split("=", 1) for part in text.strip().split(";"))
        src = word(fields["src"])
        tgt = word(fields["tgt"])
        ps = fields["pairs"]
        pairs = []
        for chunk in ps.replace(")(", ")|(").split("|"):
            chunk = chunk.strip("()")
            if chunk:
                a, b = chunk.split(",")
                pairs.append((int(a) - 1, int(b) - 1))
        return cls(src, tgt, tuple(pairs))


def iter_diagrams(source: Word, target: Word):
    """All wall-respecting matchings between the legs of source and target."""
    ns = len(source)
    letters = list(source) + list(target)
    n = len(letters)
    if n % 2:
        return

    def legal(a: int, b: int) -> bool:
        same_row = (a < ns) == (b < ns)
        return (letters[a] != letters[b]) if same_row else (letters[a] == letters[b])

    def rec(unmatched: tuple[int, ...], acc: list):
        if not unmatched:
            yield BrauerDiagram(source, target, tuple(acc))
            return
        a = unmatched[0]
        rest = unmatched[1:]
        for idx, b in enumerate(rest):
            if legal(a, b):
                acc.append((a, b))
                yield from rec(rest[:idx] + rest[idx + 1:], acc)
                acc.pop()

    yield from rec(tuple(range(n)), [])


def hom_dim(source: Word, target: Word) -> int:
    """Dimension of the hom space between two words."""
    ka, la = counts(source)
    kb, lb = counts(target)
    if ka + lb != la + kb:
        return 0
    return sum(1 for _ in iter_diagrams(source, target))


def _partners(pairs) -> dict[int, int]:
    """Map each leg to the leg it is paired with."""
    out = {}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


def _loops(up: dict, down: dict, legs) -> int:
    """Closed cycles among `legs` that alternate an `up` edge with a `down`
    edge; both matchings must pair every one of `legs` within `legs`."""
    seen = set()
    loops = 0
    for leg in legs:
        if leg in seen:
            continue
        loops += 1
        while leg not in seen:
            seen.add(leg)
            leg = up[leg]
            seen.add(leg)
            leg = down[leg]
    return loops


def _compose_diagrams(d1: BrauerDiagram, d2: BrauerDiagram):
    """Stack d2 below d1's target; return (new pairs, #closed loops).

    Legs are numbered as in d1 (source 0..a-1, middle row a..a+b-1) and
    d2's are shifted by a, so its target row is a+b..a+b+c-1.  Each open
    end is walked, alternating d1 and d2 edges, through the middle row to
    the open end it joins; the middle legs left over form closed loops.
    """
    a, b = len(d1.source), len(d1.target)
    up = _partners(d1.pairs)
    down = _partners((p + a, q + a) for p, q in d2.pairs)
    seen = set()
    pairs = []
    for end in [*range(a), *range(a + b, a + b + len(d2.target))]:
        if end in seen:
            continue
        leg, edges = end, up if end < a else down
        while True:
            leg = edges[leg]
            seen.add(leg)
            if not a <= leg < a + b:
                break
            edges = down if edges is up else up
        pairs.append((end if end < a else end - b, leg if leg < a else leg - b))
    rest = [m for m in range(a, a + b) if m not in seen]
    return tuple(pairs), _loops(up, down, rest)


class Morphism:
    """Q[t]-linear combination of diagrams with common source and target."""

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: Word, target: Word, terms=None):
        self.source = tuple(source)
        self.target = tuple(target)
        cleaned = {}
        for d, c in (terms or {}).items():
            if d.source != self.source or d.target != self.target:
                raise ValueError("diagram signature mismatch in morphism")
            c = Poly._coerce(c)
            if c:
                cleaned[d] = c
        self.terms = cleaned

    @classmethod
    def single(cls, d: BrauerDiagram, coeff=ONE_POLY) -> "Morphism":
        return cls(d.source, d.target, {d: coeff})

    @classmethod
    def zero(cls, source: Word, target: Word) -> "Morphism":
        return cls(source, target, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.terms == other.terms)

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise ValueError("signature mismatch in morphism addition")
        return Morphism(self.source, self.target,
                        axpy(dict(self.terms), ONE_POLY, other.terms))

    def __neg__(self) -> "Morphism":
        return self.scale(-1)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-other)

    def scale(self, c) -> "Morphism":
        c = Poly._coerce(c)
        return Morphism(self.source, self.target,
                        {d: v * c for d, v in self.terms.items()})

    __rmul__ = scale

    def then(self, other: "Morphism") -> "Morphism":
        """Composite self followed by other (other o self)."""
        return compose(self, other)

    def __repr__(self) -> str:
        if not self.terms:
            return f"0: {word_text(self.source)} -> {word_text(self.target)}"
        parts = [f"({c!r})*{d.to_text()}" for d, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].pairs)]
        return " + ".join(parts)


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Composite of f: A -> B with g: B -> C, as a morphism A -> C."""
    if f.target != g.source:
        raise ValueError(
            f"signature mismatch: {word_text(f.target)} vs {word_text(g.source)}")
    acc: dict[BrauerDiagram, Poly] = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            pairs, loops = _compose_diagrams(d1, d2)
            nd = BrauerDiagram(f.source, g.target, pairs)
            axpy(acc, c1 * c2, {nd: T_POLY ** loops})
    return Morphism(f.source, g.target, acc)


def tensor(f: Morphism, g: Morphism) -> Morphism:
    """Monoidal product on words (f placed to the left of g)."""
    src = f.source + g.source
    tgt = f.target + g.target
    af, bf = len(f.source), len(f.target)
    ag = len(g.source)

    def remap_f(leg):
        return leg if leg < af else leg + ag

    def remap_g(leg):
        return leg + af if leg < ag else leg + af + bf

    acc: dict[BrauerDiagram, Poly] = {}
    for d1, c1 in f.terms.items():
        for d2, c2 in g.terms.items():
            pairs = [(remap_f(a), remap_f(b)) for a, b in d1.pairs]
            pairs += [(remap_g(a), remap_g(b)) for a, b in d2.pairs]
            nd = BrauerDiagram(src, tgt, tuple(pairs))
            axpy(acc, c1, {nd: c2})
    return Morphism(src, tgt, acc)


def tensor_all(*ms: Morphism) -> Morphism:
    return reduce(tensor, ms)


def identity(sig: Word) -> Morphism:
    n = len(sig)
    d = BrauerDiagram(sig, sig, tuple((i, n + i) for i in range(n)))
    return Morphism.single(d)


def ev(x: str = V) -> Morphism:
    """Evaluation (x, x*) -> empty word; works for either letter order."""
    y = VDUAL if x == V else V
    d = BrauerDiagram((x, y), (), ((0, 1),))
    return Morphism.single(d)


def coev(x: str = V) -> Morphism:
    """Coevaluation: empty word -> (x, x*)."""
    y = VDUAL if x == V else V
    d = BrauerDiagram((), (x, y), ((0, 1),))
    return Morphism.single(d)


def permute(sig: Word, perm) -> Morphism:
    """Permutation morphism: source leg i goes to target position perm[i]."""
    n = len(sig)
    tgt = [None] * n
    for i, p in enumerate(perm):
        tgt[p] = sig[i]
    d = BrauerDiagram(sig, tuple(tgt), tuple((i, n + perm[i]) for i in range(n)))
    return Morphism.single(d)


def crossing(x: Word, y: Word) -> Morphism:
    """Symmetry x (x) y -> y (x) x."""
    nx, ny = len(x), len(y)
    perm = [ny + i for i in range(nx)] + [j for j in range(ny)]
    return permute(x + y, perm)


def dagger(d: BrauerDiagram) -> BrauerDiagram:
    """Vertical mirror of an endomorphism diagram."""
    if d.source != d.target:
        raise ValueError("dagger defined here only for endomorphisms")
    n = len(d.source)

    def flip(leg):
        return leg + n if leg < n else leg - n

    return BrauerDiagram(d.source, d.target,
                         tuple((flip(a), flip(b)) for a, b in d.pairs))


def close_trace(m: Morphism) -> Poly:
    """Full trace closure of an endomorphism: scalar sum of t^{loops}."""
    if m.source != m.target:
        raise ValueError("trace closure needs an endomorphism")
    n = len(m.source)
    closing = _partners((i, n + i) for i in range(n))
    total = Poly()
    for d, c in m.terms.items():
        total = total + c * T_POLY ** _loops(_partners(d.pairs), closing,
                                             range(2 * n))
    return total


def gram_matrix(sig: Word):
    """Pairing matrix <d_i, d_j> = trace closure of d_i o dagger(d_j).

    The closure glues each leg of d_i to the same leg of d_j, so the entry
    is t to the number of cycles of the two matchings on the 2n legs."""
    diagrams = list(iter_diagrams(sig, sig))
    partners = [_partners(d.pairs) for d in diagrams]
    legs = range(2 * len(sig))
    mat = [[T_POLY ** _loops(pi, pj, legs) for pj in partners]
           for pi in partners]
    return diagrams, mat


def _rank_at(mat, t0) -> int:
    return rank_dense([[entry.evaluate(t0) for entry in row] for row in mat])


def gram_rank(sig: Word, t0=None) -> int:
    """Rank of the Gram pairing of sig at t = t0, or generically (t0=None)."""
    return poly_matrix_rank(gram_matrix(sig)[1], t0)


def poly_matrix_rank(mat, t0=None) -> int:
    """Rank of a matrix over Q[t] at t = t0, or generically (t0=None).

    The generic rank r is the largest rank at the points t = 0, 1, ..., D,
    where D = rows * (largest entry degree): no point rank exceeds r, and
    some r-minor is a nonzero polynomial of degree at most D, so it is
    nonzero at one of these D + 1 points (Schwartz 1980, Zippel 1979).
    The loop stops early once the rank is full.
    """
    if t0 is not None:
        return _rank_at(mat, t0)
    bound = len(mat) * max((e.degree for row in mat for e in row), default=0)
    best = 0
    for t in range(bound + 1):
        best = max(best, _rank_at(mat, t))
        if best == len(mat):
            break
    return best


# ---------------------------------------------------------------------------
# Diagrammatic Lie structure of V* (x) V.

GL_WORD: Word = (VDUAL, V)


def multiplication() -> Morphism:
    """m: (V* V)(V* V) -> V* V, contraction of the two middle legs."""
    return tensor_all(identity((VDUAL,)), ev(V), identity((V,)))


def bracket() -> Morphism:
    """c = m - m o P, the Lie bracket on V* (x) V."""
    m = multiplication()
    p = crossing(GL_WORD, GL_WORD)
    return m - p.then(m)


def lie_structure_check() -> list[dict]:
    """Exact diagram identities: associativity, antisymmetry, Jacobi."""
    m = multiplication()
    c = bracket()
    p = crossing(GL_WORD, GL_WORD)
    id_g = identity(GL_WORD)

    checks = []

    assoc = tensor(m, id_g).then(m) - tensor(id_g, m).then(m)
    checks.append(_check("associativity of m", assoc.is_zero(), assoc))

    antisym = p.then(c) + c
    checks.append(_check("antisymmetry c o P = -c", antisym.is_zero(), antisym))

    c3 = tensor(c, id_g).then(c)
    # Cyclic rotation x(x)y(x)z -> y(x)z(x)x on the three g-blocks.
    rot = permute(GL_WORD * 3, [4, 5, 0, 1, 2, 3])
    jac = c3 + rot.then(c3) + rot.then(rot).then(c3)
    checks.append(_check("Jacobi identity", jac.is_zero(), jac))
    return checks


def _check(name: str, ok: bool, residual=None) -> dict:
    out = {"check": name, "pass": bool(ok)}
    if not ok and residual is not None:
        out["residual"] = repr(residual)
    return out


# ---------------------------------------------------------------------------
# Degree-1 RTT identity.
#
# Elements of Hom(1, T(V* V) (x) (V V*) (x) (V V*)) graded by the tensor
# algebra degree; the product concatenates the tensor-algebra parts and
# contracts the two matrix slots with the multiplication of V (x) V*.

Graded = dict[int, Morphism]

_SLOT: Word = (V, VDUAL)


def _atilde_target(degree: int) -> Word:
    return GL_WORD * degree + _SLOT + _SLOT


def _slot_mult() -> Morphism:
    """(V V*)(V V*) -> V V*, evaluation of the inner V*, V legs."""
    return tensor_all(identity((V,)), ev(VDUAL), identity((VDUAL,)))


def atilde_mul(x: Graded, y: Graded) -> Graded:
    mw = _slot_mult()
    out: Graded = {}
    for d1, m1 in x.items():
        for d2, m2 in y.items():
            t = tensor(m1, m2)
            n1, n2 = 2 * d1, 2 * d2
            # Source layout: Y1 S2x S3x Y2 S2y S3y; regroup to
            # Y1 Y2 S2x S2y S3x S3y.
            perm = []
            perm += list(range(n1))                                   # Y1
            perm += [n1 + n2 + i for i in range(2)]                   # S2x
            perm += [n1 + n2 + 4 + i for i in range(2)]               # S3x
            perm += [n1 + i for i in range(n2)]                       # Y2
            perm += [n1 + n2 + 2 + i for i in range(2)]               # S2y
            perm += [n1 + n2 + 6 + i for i in range(2)]               # S3y
            regroup = permute(t.target, perm)
            contract = tensor_all(identity(GL_WORD * (d1 + d2)), mw, mw)
            prod = t.then(regroup).then(contract)
            axpy(out, 1, {d1 + d2: prod})
    return out


def atilde_add(x: Graded, y: Graded) -> Graded:
    return axpy(dict(x), 1, y)


def atilde_neg(x: Graded) -> Graded:
    return {d: -m for d, m in x.items()}


def _diagram_elem(degree: int, pairs) -> Graded:
    d = BrauerDiagram((), _atilde_target(degree), tuple(pairs))
    return {degree: Morphism.single(d)}


def generator_slot1() -> Graded:
    """(a_1)_1: generator in the tensor algebra paired with matrix slot 2."""
    return _diagram_elem(1, [(0, 2), (1, 3), (4, 5)])


def generator_slot2() -> Graded:
    """(a_1)_2: generator paired with matrix slot 3."""
    return _diagram_elem(1, [(0, 4), (1, 5), (2, 3)])


def perm_flip() -> Graded:
    """P: flip of the two matrix slots, degree-0 element."""
    return _diagram_elem(0, [(0, 3), (1, 2)])


def atilde_unit() -> Graded:
    return _diagram_elem(0, [(0, 1), (2, 3)])


def name_of(h: Morphism) -> Morphism:
    """Name of h: X -> Y as a morphism 1 -> Y (x) dual(X), straight pairing."""
    x = h.source
    dx = dual_word(x)
    n = len(x)
    cv = Morphism.single(
        BrauerDiagram((), x + dx, tuple((i, n + i) for i in range(n))))
    return cv.then(tensor(h, identity(dx)))


def rtt_degree1_lhs(p_elem: Graded | None = None) -> Graded:
    """u^-1 v^-1 coefficient of the RTT expression on degree-1 generators."""
    a1 = generator_slot1()
    a2 = generator_slot2()
    p = perm_flip() if p_elem is None else p_elem
    lhs = atilde_mul(a1, a2)
    lhs = atilde_add(lhs, atilde_neg(atilde_mul(a2, a1)))
    lhs = atilde_add(lhs, atilde_neg(atilde_mul(p, a2)))
    lhs = atilde_add(lhs, atilde_mul(a2, p))
    return lhs


def rtt_degree1_rhs() -> Graded:
    """Quadratic enveloping-algebra relation, written as a name."""
    gg = GL_WORD + GL_WORD
    i2 = name_of(identity(gg))
    i2p = name_of(crossing(GL_WORD, GL_WORD))
    i1c = name_of(bracket())
    out = atilde_add({2: i2}, atilde_neg({2: i2p}))
    out = atilde_add(out, atilde_neg({1: i1c}))
    return out


def rtt_degree1_check() -> list[dict]:
    checks = []
    lhs = rtt_degree1_lhs()
    rhs = rtt_degree1_rhs()
    diff = atilde_add(lhs, atilde_neg(rhs))
    checks.append(_check("RTT degree-1 identity", not diff, diff))

    # The product P (a_1)_2 is a single specific matching.
    pa2 = atilde_mul(perm_flip(), generator_slot2())
    expected = _diagram_elem(1, [(0, 2), (1, 5), (3, 4)])
    dd = atilde_add(pa2, atilde_neg(expected))
    checks.append(_check("P (a_1)_2 expansion", not dd, dd))

    # Negative control: with P replaced by the identity element the
    # difference must be nonzero.
    bad = rtt_degree1_lhs(p_elem=atilde_unit())
    dbad = atilde_add(bad, atilde_neg(rhs))
    checks.append(_check("negative control (P -> 1)", bool(dbad)))
    return checks
