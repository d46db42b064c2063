"""Formulas, their graded semantics, modal equivalence, and quotients.

Grammar (whitespace-insensitive):

    formula := "top" | ident | "(" formula "&" formula ")"
             | "\\/" "[" [formula {"," formula}] "]"
             | "<" ident ">" "(" formula {"," formula} ")"
    ident   := letter {letter | digit | "_"}

The grade to which a state satisfies a formula is the value of the
formula's evaluation at that state; disjunction over the empty list is
the constant-0 fuzzy set.

One closure computes the definable opens, the least family holding both
constants and the valuations, closed under meet, join and each lifting
composed with the structure map: `_closure`, on packed vectors, round by
round and semi-naively (Bancilhon and Ramakrishnan, 1986). A round
offers only the argument tuples that use a member added by the round
before, in the order a naive round over all members would. Older tuples
were offered before, so the members, their order and each one's first
offer are the naive ones. A member records its first offer as a kind and
argument indices, and `definable_opens` and `enumerate_formulas` build
its formula from that record. The cross-check of `classes --depth K`
needs only the partition by the first K rounds' members and builds no
formula (`_depth_labels`); its last round offers only lifts, since a meet
or join of members that agree at two states agrees there too and so
splits no block.

`modal_equivalence_classes`, and through it `quotient_model` and the
`classes` and `quotient` commands, need only the partition of the states
and read it off generators of the family on packed `bits`. The family
is a fuzzy topology, the one its generators generate (the constants, the
valuations, every modal pullback), and every open of a topology is the
join of the primes below it and the meet of the co-primes above it. So
a lifting that keeps joins is known on the family once it is known on
the primes and 0, one that keeps meets on the co-primes and 1, and any
other on every member (`topology._read_on`), under the guard: the
generators need only those lifts, and with the built-in liftings the
family is never enumerated. A pointwise meet or join of sets that agree
at s and t agrees there too, so the family splits the states exactly as
its generators do, and once they separate every pair of states no finer
partition exists and the rounds stop. A round splits the blocks only by
its new lifts, with the step `_depth_labels` takes (`_refine`). The
proof is in `modal_equivalence_classes`. `quotient_model` keeps an open
iff it is saturated, that is constant on every class, read as one field
compare per merged state, and declares the packed images of those as
the quotient's opens, which become fuzzy sets only when read.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import product, repeat
from operator import and_
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ArityMismatchError,
    CarrierMismatchError,
    LatticeMismatchError,
    ParseError,
    PreconditionError,
    UnboundPropositionError,
)
from .fuzzyset import (
    DEFAULT_MAX_SIZE,
    CarrierMap,
    FuzzySet,
    _from_bits,
    fs_join,
    fs_meet,
    inverse_image,
)
from .signature import Lifting, Signature, _pullbacks
from .topology import FuzzySpace, _primes, _read_on, is_continuous, is_topology


class Formula:
    """Base class of the five formula variants."""


@dataclass(frozen=True)
class Top(Formula):
    def __str__(self) -> str:
        return "top"


@dataclass(frozen=True)
class Prop(Formula):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    items: tuple[Formula, ...]

    def __str__(self) -> str:
        return "\\/[" + ", ".join(str(i) for i in self.items) + "]"


@dataclass(frozen=True)
class Modal(Formula):
    modality: str
    args: tuple[Formula, ...]

    def __str__(self) -> str:
        return f"<{self.modality}>(" + ", ".join(str(a) for a in self.args) + ")"


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\\/|[()\[\],&<>]|\S")


class _Tokens:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.split("\n"), start=1):
            for m in _TOKEN.finditer(line):
                self.tokens.append((m.group(0), lineno, m.start() + 1))
        self.pos = 0
        self.end = (text.count("\n") + 1, len(text.split("\n")[-1]) + 1)

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def where(self) -> tuple[int, int]:
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            return line, col
        return self.end

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", *self.where())
        self.pos += 1
        return tok

    def expect(self, wanted: str) -> None:
        line, col = self.where()
        tok = self.peek()
        if tok != wanted:
            got = "end of input" if tok is None else repr(tok)
            raise ParseError(f"expected {wanted!r}, got {got}", line, col)
        self.pos += 1


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

#: Deepest formula nesting the parser accepts; evaluation and printing
#: recurse once or twice per level, so this keeps them within Python's
#: default recursion limit.
MAX_NESTING = 200


def _parse(tokens: _Tokens, depth: int = 0) -> Formula:
    line, col = tokens.where()
    if depth > MAX_NESTING:
        raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", line, col)
    tok = tokens.take()
    if tok == "top":
        return Top()
    if _IDENT.match(tok):
        return Prop(tok)
    if tok == "(":
        left = _parse(tokens, depth + 1)
        tokens.expect("&")
        right = _parse(tokens, depth + 1)
        tokens.expect(")")
        return And(left, right)
    if tok == "\\/":
        tokens.expect("[")
        items: list[Formula] = []
        if tokens.peek() != "]":
            items.append(_parse(tokens, depth + 1))
            while tokens.peek() == ",":
                tokens.take()
                items.append(_parse(tokens, depth + 1))
        tokens.expect("]")
        return Or(tuple(items))
    if tok == "<":
        mline, mcol = tokens.where()
        name = tokens.take()
        if not _IDENT.match(name):
            raise ParseError(f"modality name expected, got {name!r}", mline, mcol)
        tokens.expect(">")
        tokens.expect("(")
        args = [_parse(tokens, depth + 1)]
        while tokens.peek() == ",":
            tokens.take()
            args.append(_parse(tokens, depth + 1))
        tokens.expect(")")
        return Modal(name, tuple(args))
    raise ParseError(f"unexpected token {tok!r}", line, col)


def _check_modalities(formula: Formula, sig: Signature) -> None:
    if isinstance(formula, Modal):
        lifting = sig.lifting(formula.modality)
        if lifting.arity != len(formula.args):
            raise ArityMismatchError(
                f"<{formula.modality}> takes {lifting.arity} arguments, "
                f"got {len(formula.args)}")
        for a in formula.args:
            _check_modalities(a, sig)
    elif isinstance(formula, And):
        _check_modalities(formula.left, sig)
        _check_modalities(formula.right, sig)
    elif isinstance(formula, Or):
        for i in formula.items:
            _check_modalities(i, sig)


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse concrete syntax; validates modal names and arities when a
    signature is supplied."""
    tokens = _Tokens(text)
    formula = _parse(tokens)
    if tokens.peek() is not None:
        line, col = tokens.where()
        raise ParseError(f"trailing input {tokens.peek()!r}", line, col)
    if sig is not None:
        _check_modalities(formula, sig)
    return formula


@dataclass(frozen=True)
class Model:
    """Space, coalgebra structure map into the functor image, valuation.
    `sigma`'s target holds elements of T S: the states, or the values it takes."""

    space: FuzzySpace
    sigma: CarrierMap
    valuation: tuple[tuple[str, FuzzySet], ...]

    @classmethod
    def create(cls, space: FuzzySpace, sigma: CarrierMap,
               valuation: Mapping[str, FuzzySet]) -> "Model":
        return cls(space, sigma, tuple(sorted(valuation.items())))

    @property
    def props(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.valuation)

    def prop(self, name: str) -> FuzzySet:
        for n, v in self.valuation:
            if n == name:
                return v
        raise UnboundPropositionError(f"no valuation for proposition {name!r}")

    def lift(self, lifting: Lifting, args: Sequence[FuzzySet]) -> FuzzySet:
        """sigma^-1(lambda(args)), the lifting read at sigma's values only:
        the model's packed lift (`_lifted`) of the checked arguments."""
        bits = self._lifted(lifting)(*(a.bits for a in lifting._checked(self.space, args)))
        return _from_bits(self.sigma.source, self.space.lattice, bits)

    def _lifted(self, lifting: Lifting) -> Callable[..., int]:
        """The packed lift along sigma, from packed arguments to the packed
        sigma^-1(lambda(args)): the lifting's kernel along sigma
        (`Lifting.kernel`), made once per lifting and shared by every
        reader of the model."""
        lifts = vars(self).setdefault("_lifts", {})
        if (lift := lifts.get(lifting)) is None:
            lift = lifts[lifting] = lifting.kernel(self.space, self.sigma)
        return lift


@dataclass(frozen=True)
class ModelCheck:
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_model(m: Model, sig: Signature) -> ModelCheck:
    """Topology axioms, openness of valuations, structure values in the
    functor image and continuity of the structure map into it.

    Continuity is checked on the functor's subbasis of the image topology,
    lifted from a basis of the opens and pulled back along sigma packed
    (`signature._pullbacks`), once the opens are known to form a
    topology: an inverse image keeps constants, meets and joins, so every
    image open pulls back to an open iff every generator does. A negative
    verdict names the generator at the first index k whose pullback is not
    open, read at sigma's values: the k-th member of the same subbasis
    along the identity of sigma's target, the one fuzzy set the check
    builds.

    When the first lifting with a failing lift keeps joins (`id`, `dia`),
    this is the witness of the walk over each lifting's lifts of every
    open in bits order: on that lifting, let o be the smallest failing open.
    o is the join of the primes below it, and the lift and the pullback
    both keep joins, so some prime j <= o fails, or o's pullback would be
    a join of opens. j is itself a failing open, so j = o; and any failing
    prime is a failing open, never below o. So the first failing prime is
    o. A lifting that keeps meets (`box`) is read on the co-primes, and its
    first failing co-prime need not be the smallest failing open.
    """
    problems: list[str] = []
    topo = is_topology(m.space)
    if not topo:
        problems.append(f"opens are not a topology: {topo.violation}")
    for name, v in m.valuation:
        if v.carrier != m.space.carrier:
            problems.append(f"valuation of {name!r} is not on the carrier")
        elif v.lattice != m.space.lattice or not m.space.is_open(v.bits):
            problems.append(f"valuation of {name!r} is not an open: {v}")
    gens = ()
    if m.sigma.source != m.space.carrier:
        problems.append("structure map is not defined on the carrier")
    else:
        try:
            gens = _pullbacks(sig.functor, m.space, m.sigma)
        except (CarrierMismatchError, LatticeMismatchError) as exc:
            problems.append(f"structure map leaves the functor image: {exc}")
    failing = (k for k, g in enumerate(gens) if not m.space.is_open(g))
    if not problems and (k := next(failing, None)) is not None:
        at = m.sigma.target
        witness = _pullbacks(sig.functor, m.space, CarrierMap.identity(at))[k]
        problems.append("structure map not continuous: pullback of "
                        f"{_from_bits(at, m.space.lattice, witness)} is not open")
    return ModelCheck(not problems, tuple(problems))


def evaluate(m: Model, sig: Signature, formula: Formula) -> FuzzySet:
    """Graded semantics; the result assigns each state its truth grade."""
    if isinstance(formula, Top):
        return m.space.top_open
    if isinstance(formula, Prop):
        return m.prop(formula.name)
    if isinstance(formula, And):
        return fs_meet(evaluate(m, sig, formula.left),
                       evaluate(m, sig, formula.right))
    if isinstance(formula, Or):
        out = m.space.bottom_open
        for item in formula.items:
            out = fs_join(out, evaluate(m, sig, item))
        return out
    if isinstance(formula, Modal):
        lifting = sig.lifting(formula.modality)
        if lifting.arity != len(formula.args):
            raise ArityMismatchError(
                f"<{formula.modality}> takes {lifting.arity} arguments, "
                f"got {len(formula.args)}")
        return m.lift(lifting, tuple(evaluate(m, sig, a) for a in formula.args))
    raise TypeError(f"not a formula: {formula!r}")


def _new_tuples(n: int, old: int, arity: int):
    """The tuples of `product(range(n), repeat=arity)`, in its order, that
    hold an index >= old; all of them when old == 0."""
    if old == 0:
        yield from product(range(n), repeat=arity)
    elif arity:
        for i in range(old if arity == 1 else 0, n):
            for tail in _new_tuples(n, old if i < old else 0, arity - 1):
                yield (i, *tail)


def _closure(models: Sequence[Model], sig: Signature, rounds: int | None = None,
             lifts_last: bool = False):
    """The least family of vectors over the models that holds both
    constants and the valuations and is closed under meet, join and each
    lifting composed with the structure maps: yields the seeds, then each
    round's new members, as dicts from vector to first offer. At most
    `rounds` rounds run; with `lifts_last` the last of them offers only
    lifts.

    A vector is the models' packed fields side by side, the first model's
    most significant, so meet and join are one `&` and `|`, and each
    model lifts its own fields through its packed lift (`Model._lifted`).
    An offer is
    (kind, argument indices) into the members in the order yielded: kind
    "top" or "or" with none for the constants, "prop" with the name for a
    valuation, "and" or "or" with two for a meet or join, a lifting with
    its arity. A round offers the pairs (i <= j), meet then join, and then
    each lifting's argument tuples in product order, that use a member the
    round before added: in the order a naive round over all members would,
    older tuples having been offered before, so the members, their order
    and each one's first offer are the naive ones.
    """
    parts, offset = [], 0  # (model, its offset, its mask)
    for m in reversed(models):
        width = len(m.space.carrier) * m.space.lattice.den
        parts.insert(0, (m, offset, (1 << width) - 1))
        offset += width
    seeds = {(1 << offset) - 1: ("top", ())}
    seeds.setdefault(0, ("or", ()))
    for name in models[0].props:
        seeds.setdefault(sum(m.prop(name).bits << o for m, o, _ in parts), ("prop", name))
    yield seeds
    items, found, old = list(seeds), set(seeds), 0
    for round_ in repeat(None) if rounds is None else range(rounds):
        n, fresh = len(items), {}
        if not (lifts_last and round_ == rounds - 1):
            for i, a in enumerate(items):
                for j, b in enumerate(items[max(i, old):n], max(i, old)):
                    if (c := a & b) not in found and c not in fresh:
                        fresh[c] = ("and", (i, j))
                    if (c := a | b) not in found and c not in fresh:
                        fresh[c] = ("or", (i, j))
        for lifting in sig.liftings:
            lifts = [(m._lifted(lifting), o, mask) for m, o, mask in parts]
            for args in _new_tuples(n, old, lifting.arity):
                c = 0
                for lift, o, mask in lifts:
                    c |= lift(*[items[i] >> o & mask for i in args]) << o
                if c not in found and c not in fresh:
                    fresh[c] = (lifting, args)
        if not fresh:
            return
        yield fresh
        found.update(fresh)
        old = n
        items += fresh


def _formulas(batches) -> dict[int, Formula]:
    """Each member of `_closure`'s batches with the formula of its first
    offer, in order."""
    members, built = [], []
    for batch in batches:
        members += batch
        for kind, args in batch.values():
            parts = () if kind == "prop" else tuple(built[i] for i in args)
            built.append(Prop(args) if kind == "prop" else Top() if kind == "top"
                         else And(*parts) if kind == "and" else Or(parts) if kind == "or"
                         else Modal(kind.name, parts))
    return dict(zip(members, built))


def _refine(labels: Sequence[int], d: int, batch: Iterable[int],
            ids: dict) -> tuple[int, ...]:
    """The state labels split by each state's fields over the packed sets
    in `batch`: the state gets the number that `ids` gives (label,
    fields), a new one in carrier order for a pair not seen before. The
    carriers refined through one `ids` share their labels."""
    field, batch = (1 << d) - 1, tuple(batch)
    return tuple([ids.setdefault((label, tuple([b >> shift & field for b in batch])), len(ids))
                  for label, shift in zip(labels, range((len(labels) - 1) * d, -1, -d))])


def _depth_labels(m: Model, sig: Signature, depth: int) -> tuple[int, ...]:
    """One label per state, equal for two states iff every member of the
    depth-`depth` `_closure([m], sig)` takes the same grade at both.

    The closure's last round offers only lifts. Let F be the family
    before it. If every member of F takes equal grades at s and t, then
    so do the meet and the join of two members a, b of F, since
    min(a(s), b(s)) = min(a(t), b(t)) and max likewise. So the last
    round's meets and joins split no block that F leaves whole, and the
    partition by F, its meets and joins and its lifts is the partition by
    F and its lifts. Earlier rounds stay complete, as their meets and
    joins are arguments of later lifts. The rounds stop early once every
    state has a label of its own, which no member can split.
    """
    labels = (0,) * len(m.space.carrier)
    for batch in _closure([m], sig, depth, lifts_last=True):
        labels = _refine(labels, m.space.lattice.den, batch, ids := {})
        if len(ids) == len(labels):
            break
    return labels


def definable_opens(m: Model, sig: Signature) -> dict[FuzzySet, Formula]:
    """Least family containing both constants and the valuations, closed
    under meet, join and each lifting composed with the structure map.

    Every member keeps the first formula that produced it, so each
    definable open can be re-checked by direct evaluation. This is for
    callers that want the formulas; `modal_equivalence_classes` closes
    the same family without them.
    """
    return {_from_bits(m.space.carrier, m.space.lattice, v): formula
            for v, formula in _formulas(_closure([m], sig)).items()}


def modal_equivalence_classes(m: Model, sig: Signature,
                              max_size: int = DEFAULT_MAX_SIZE) -> tuple[tuple[str, ...], ...]:
    """Partition of the carrier by agreement on every definable open.

    Closes the generators of the family of `definable_opens` on packed
    `bits`, without formulas. G starts as both constants and the
    valuations, and the states are grouped by their grades over G. While
    some block holds two states, each round lifts, for each lifting, the
    members of the topology G generates that `topology._read_on` gives
    for what the lifting keeps (its primes and 0, its co-primes and 1, or
    every member), pulls each lift back along sigma and adds the new ones
    to G, splitting the blocks by their grades; it stops when no lift is
    new. Once every state is alone no family splits them further. The
    primes of G are kept across rounds: a prime is the meet of the
    members that hold its bit, so each round meets them with the primes
    of its new lifts alone.

    The partition by that fixpoint G* is the partition by the definable
    family F. Every member of G* lies in F, and so does the topology T it
    generates, as F is closed under meets and joins. Conversely T holds
    the constants and the valuations and is closed under lifts: every
    open of T is the join of the primes below it (0 for none) and the
    meet of the co-primes above it (1 for none), a lifting that keeps
    joins or meets keeps that join or meet, the pullback along sigma
    keeps both, and G* holds the lifts of the members each lifting is
    read on. So T holds the least such family F, and T = F. A meet or
    join of members that agree at two states agrees there too, so G*
    splits the states as F does.

    A lifting that keeps neither is read on every member, and on every
    tuple of members for one of another arity, under the guard: it
    refuses once the members, or their tuples, pass max_size.

    Classes are ordered by first member in carrier order; members keep
    carrier order too.
    """
    carrier, d = m.space.carrier, m.space.lattice.den
    width = len(carrier) * d
    found = {0, (1 << width) - 1, *(v.bits for _, v in m.valuation)}
    labels, primes = _refine((0,) * len(carrier), d, found, ids := {}), _primes(found, width)
    while len(ids) < len(carrier):
        lifts = set()
        for lifting in sig.liftings:
            members = _read_on(lifting.keeps, primes, width, max_size, lifting.arity,
                               "definable open enumeration")
            lift = m._lifted(lifting)
            lifts.update(lift(*args) for args in product(members, repeat=lifting.arity))
        if not (lifts := lifts - found):
            break
        found |= lifts
        primes = tuple(map(and_, primes, _primes(lifts, width)))
        labels = _refine(labels, d, lifts, ids := {})
    blocks: list[list[str]] = [[] for _ in range(len(ids))]
    for s, label in zip(carrier, labels):
        blocks[label].append(s)
    return tuple(map(tuple, blocks))


@dataclass(frozen=True)
class MorphismCheck:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_model_morphism(f: CarrierMap, source: Model, target: Model,
                         sig: Signature) -> MorphismCheck:
    """Continuity, valuation pullback, and the coalgebra square."""
    failures: list[str] = []
    if f.source != source.space.carrier or f.target != target.space.carrier:
        return MorphismCheck(False, ("map does not connect the two carriers",))
    if source.props != target.props:
        failures.append("models value different proposition sets")
    if not is_continuous(f, source.space, target.space):
        failures.append("map is not fuzzy continuous")
    for name, v in source.valuation:
        if name in target.props and inverse_image(f, target.prop(name)) != v:
            failures.append(f"valuation pullback fails for {name!r}")
    image_map = sig.functor.on_map(f, source.space, target.space)
    for s in source.space.carrier:
        if image_map(source.sigma(s)) != target.sigma(f(s)):
            failures.append(f"coalgebra square fails at state {s!r}")
    return MorphismCheck(not failures, tuple(failures))


def check_truth_preservation(f: CarrierMap, source: Model, target: Model,
                             sig: Signature, formulas: Sequence[Formula]) -> bool:
    """Each listed formula takes equal grades at s and f(s)."""
    check = check_model_morphism(f, source, target, sig)
    if not check:
        raise PreconditionError(
            "check_truth_preservation requires a model morphism: "
            + "; ".join(check.failures))
    for formula in formulas:
        src_val = evaluate(source, sig, formula)
        tgt_val = evaluate(target, sig, formula)
        for s in source.space.carrier:
            if src_val(s) != tgt_val(f(s)):
                return False
    return True


@dataclass(frozen=True)
class QuotientResult:
    ok: bool
    model: Model | None = None
    quotient_map: CarrierMap | None = None
    classes: tuple[tuple[str, ...], ...] = ()
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def quotient_model(m: Model, sig: Signature, max_size: int = DEFAULT_MAX_SIZE) -> QuotientResult:
    """Collapse modally equivalent states.

    Class representatives name the quotient states; the topology is the
    final topology along the onto quotient map q, whose opens are the
    images q(o) of the opens o with q^-1(q(o)) = o; the structure map sends
    a class to the functor image of the representative's structure value
    and is accepted only if that choice is representative-independent.

    The opens are read on their fields. q(o)(c) is the sup of o over the
    class c, so q^-1(q(o))(s) is the sup of o over the class of s, which
    is at least o(s) and equals it iff o(s) is that class's largest grade.
    So q^-1(q(o)) = o iff o is constant on every class: iff each merged
    state's field equals its representative's. Then q(o) is o at the
    representatives, which come first in their classes and so in carrier
    order: the fields of a run of consecutive ones move down together.
    The classes are those of `modal_equivalence_classes`, under the
    guard max_size.
    """
    classes = modal_equivalence_classes(m, sig, max_size)
    reps = tuple(cls[0] for cls in classes)
    rep_of = {s: cls[0] for cls in classes for s in cls}
    q = CarrierMap.onto(m.space.carrier, [rep_of[s] for s in m.space.carrier])  # onto reps

    lattice, d = m.space.lattice, m.space.lattice.den
    field = (1 << d) - 1
    shift = dict(zip(m.space.carrier, range((len(m.space.carrier) - 1) * d, -1, -d)))
    same = defaultdict(int)  # merged states' fields, by how far up their representative's lie
    moved = defaultdict(int)  # representatives' fields in q.target, by how far down they move
    for cls in classes:
        for s in cls[1:]:
            same[shift[cls[0]] - shift[s]] |= field << shift[s]
    for k, rep in enumerate(reversed(reps)):  # one gap per run of consecutive representatives
        moved[shift[rep] - k * d] |= field << k * d

    def image(bits: int) -> int:
        return sum(bits >> gap & mask for gap, mask in moved.items())

    q_space = FuzzySpace._declared(q.target, lattice, frozenset(
        image(b) for b in m.space.packed
        if not any((b >> gap ^ b) & mask for gap, mask in same.items())))

    image_map = sig.functor.on_map(q, m.space, q_space)
    sigma_values = {}
    for cls in classes:
        rep = cls[0]
        sigma_values[rep] = image_map(m.sigma(rep))
        for other in cls[1:]:
            if image_map(m.sigma(other)) != sigma_values[rep]:
                return QuotientResult(
                    False, classes=classes,
                    failure=f"structure map not well-defined: states {rep!r} and "
                            f"{other!r} are modally equivalent but their structure "
                            "values differ in the quotient")
    q_sigma = CarrierMap.onto(q.target, [sigma_values[rep] for rep in reps])
    valuation = {name: _from_bits(q.target, lattice, image(v.bits))  # definable, so saturated
                 for name, v in m.valuation}
    quotient = Model.create(q_space, q_sigma, valuation)
    return QuotientResult(True, model=quotient, quotient_map=q, classes=classes)


def enumerate_formulas(models: Sequence[Model], sig: Signature,
                       depth: int = 3) -> list[Formula]:
    """Depth-bounded formula enumeration, deduplicated semantically.

    Keeps one representative per joint evaluation vector across the
    given models, so a formula is retained exactly when it is not
    semantically redundant on those models. Vectors are maintained
    incrementally by the semantic clauses; evaluate() reproduces them
    for any returned representative. Binary joins stand in for finite
    disjunction lists; over finite lattices that loses nothing.
    """
    if not models:
        raise PreconditionError("enumerate_formulas needs at least one model")
    props = models[0].props
    for m in models[1:]:
        if m.props != props:
            raise PreconditionError("models value different proposition sets")

    return list(_formulas(_closure(models, sig, depth)).values())
