"""Formulas, their graded semantics, modal equivalence, and quotients.

Grammar (whitespace-insensitive):

    formula := "top" | ident | "(" formula "&" formula ")"
             | "\\/" "[" [formula {"," formula}] "]"
             | "<" ident ">" "(" formula {"," formula} ")"
    ident   := letter {letter | digit | "_"}

The grade to which a state satisfies a formula is the value of the
formula's evaluation at that state; disjunction over the empty list is
the constant-0 fuzzy set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    ArityMismatchError,
    ParseError,
    PreconditionError,
    UnboundPropositionError,
)
from .fuzzyset import (
    Carrier,
    CarrierMap,
    FuzzySet,
    direct_image,
    fs_join,
    fs_meet,
    inverse_image,
)
from .signature import Signature
from .topology import FuzzySpace, _close, is_continuous, is_topology


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


def _parse(tokens: _Tokens) -> Formula:
    line, col = tokens.where()
    tok = tokens.take()
    if tok == "top":
        return Top()
    if _IDENT.match(tok):
        return Prop(tok)
    if tok == "(":
        left = _parse(tokens)
        tokens.expect("&")
        right = _parse(tokens)
        tokens.expect(")")
        return And(left, right)
    if tok == "\\/":
        tokens.expect("[")
        items: list[Formula] = []
        if tokens.peek() != "]":
            items.append(_parse(tokens))
            while tokens.peek() == ",":
                tokens.take()
                items.append(_parse(tokens))
        tokens.expect("]")
        return Or(tuple(items))
    if tok == "<":
        mline, mcol = tokens.where()
        name = tokens.take()
        if not _IDENT.match(name):
            raise ParseError(f"modality name expected, got {name!r}", mline, mcol)
        tokens.expect(">")
        tokens.expect("(")
        args = [_parse(tokens)]
        while tokens.peek() == ",":
            tokens.take()
            args.append(_parse(tokens))
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
    """Space, coalgebra structure map into the functor image, valuation."""

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


@dataclass(frozen=True)
class ModelCheck:
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_model(m: Model, sig: Signature) -> ModelCheck:
    """Topology axioms, openness of valuations, continuity of the
    structure map into the functor image of the space."""
    problems: list[str] = []
    topo = is_topology(m.space)
    if not topo:
        problems.append(f"opens are not a topology: {topo.violation}")
    for name, v in m.valuation:
        if v.carrier != m.space.carrier:
            problems.append(f"valuation of {name!r} is not on the carrier")
        elif v not in m.space.opens:
            problems.append(f"valuation of {name!r} is not an open: {v}")
    image = sig.functor.on_space(m.space)
    if m.sigma.source != m.space.carrier or m.sigma.target != image.carrier:
        problems.append("structure map does not go from the carrier to the "
                        "functor image carrier")
    elif not problems:
        for o in image.sorted_opens():
            if inverse_image(m.sigma, o) not in m.space.opens:
                problems.append(
                    f"structure map not continuous: pullback of {o} is not open")
                break
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
        args = tuple(evaluate(m, sig, a) for a in formula.args)
        lifted = lifting.apply(m.space, args)
        return inverse_image(m.sigma, lifted)
    raise TypeError(f"not a formula: {formula!r}")


def _formula_operations(models: Sequence[Model], sig: Signature) -> list:
    """Closure operations on formulas labelled by their evaluation vector
    over the models: meet and join, then each lifting composed with the
    structure maps, in that order of offer."""

    def lattice(a, b):
        (va, fa), (vb, fb) = a, b
        return ((tuple(map(fs_meet, va, vb)), And(fa, fb)),
                (tuple(map(fs_join, va, vb)), Or((fa, fb))))

    def modal(lifting):
        def apply(*combo):
            formula = Modal(lifting.name, tuple(f for _, f in combo))
            key = tuple(
                inverse_image(m.sigma,
                              lifting.apply(m.space, tuple(v[i] for v, _ in combo)))
                for i, m in enumerate(models))
            return ((key, formula),)
        return lifting.arity, False, apply

    return [(2, True, lattice)] + [modal(lifting) for lifting in sig.liftings]


def definable_opens(m: Model, sig: Signature) -> dict[FuzzySet, Formula]:
    """Least family containing constant-1 and the valuations, closed under
    meet, join and each lifting composed with the structure map.

    Every member keeps the first formula that produced it, so each
    definable open can be re-checked by direct evaluation.
    """
    found: dict[tuple[FuzzySet], Formula] = {(m.space.top_open,): Top()}
    for name, v in m.valuation:
        found.setdefault((v,), Prop(name))
    _close(found, _formula_operations([m], sig))
    return {fs: formula for (fs,), formula in found.items()}


def modal_equivalence_classes(m: Model, sig: Signature) -> tuple[tuple[str, ...], ...]:
    """Partition of the carrier by agreement on every definable open.

    Classes are ordered by first member in carrier order; members keep
    carrier order too.
    """
    opens = list(definable_opens(m, sig))
    signature_of = {s: tuple(o(s) for o in opens) for s in m.space.carrier}
    classes: list[list[str]] = []
    for s in m.space.carrier:
        for cls in classes:
            if signature_of[cls[0]] == signature_of[s]:
                cls.append(s)
                break
        else:
            classes.append([s])
    return tuple(tuple(c) for c in classes)


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


def quotient_model(m: Model, sig: Signature) -> QuotientResult:
    """Collapse modally equivalent states.

    Class representatives name the quotient states; the topology is the
    final topology along the onto quotient map q, whose opens are the
    images q(o) of the opens o with q^-1(q(o)) = o; the structure map sends
    a class to the functor image of the representative's structure value
    and is accepted only if that choice is representative-independent.
    """
    classes = modal_equivalence_classes(m, sig)
    reps = tuple(cls[0] for cls in classes)
    q_carrier = Carrier(reps)
    rep_of = {s: cls[0] for cls in classes for s in cls}
    q = CarrierMap(m.space.carrier, q_carrier,
                   tuple(rep_of[s] for s in m.space.carrier))

    opens = frozenset(w for o in m.space.opens
                      if inverse_image(q, w := direct_image(q, o)) == o)
    q_space = FuzzySpace(q_carrier, m.space.lattice, opens)

    image_map = sig.functor.on_map(q, m.space, q_space)
    sigma_values: dict[str, str] = {}
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
    q_image = sig.functor.on_space(q_space)
    q_sigma = CarrierMap(q_carrier, q_image.carrier,
                         tuple(sigma_values[rep] for rep in reps))
    valuation = {name: FuzzySet(q_carrier, m.space.lattice,
                                tuple(v(rep) for rep in reps))
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

    reps: dict[tuple[FuzzySet, ...], Formula] = {}
    for formula in [Top(), Or(())] + [Prop(p) for p in props]:
        key = tuple(evaluate(m, sig, formula) for m in models)
        reps.setdefault(key, formula)
    _close(reps, _formula_operations(models, sig), rounds=depth)
    return list(reps.values())
