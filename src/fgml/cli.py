"""Model documents and the fgml command line.

A model document is one JSON file: grade lattice denominator, functor
choice, carrier, opens (explicit, or a "generate_from" subbasis),
structure map, valuation, and optional named relations and formulas.
Grades serialize as "k/d" strings; saves are canonically ordered so
documents diff cleanly and load/save/load is a fixpoint.

Exit codes: 0 success or true verdict, 1 false verdict, 2 error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from functools import cache
from itertools import product
from json.encoder import encode_basestring_ascii

from .bisim import greatest_sigma_bisimulation, is_am_bisimulation, is_sigma_bisimulation
from .errors import DocumentError, FgmlError, ResourceLimitError, UnknownModalityError
from .frames import duality_check
from .fuzzyset import DEFAULT_MAX_SIZE, Carrier, CarrierMap, FuzzySet, Relation, _from_bits, _pack
from .grades import GradeLattice, make_lattice
from .logic import (
    Model,
    _formula_closure,
    _seeds,
    evaluate,
    modal_equivalence_classes,
    parse_formula,
    quotient_model,
    validate_model,
)
from .signature import (
    Signature,
    check_characteristic,
    check_monotone,
    check_natural,
    fuzzy_powerset_functor,
    identity_functor,
)
from .topology import FuzzySpace, generate_topology, is_continuous

_PROP_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass
class LoadedModel:
    """A validated model plus the document metadata needed to save it."""

    model: Model
    signature: Signature
    lattice: GradeLattice
    functor_name: str
    modalities: tuple[str, ...]
    relations: dict[str, tuple[tuple[str, str], ...]]
    formulas: dict[str, str]


def _fuzzy_set_from_doc(obj, carrier: Carrier, lattice: GradeLattice,
                        what: str) -> FuzzySet:
    table = lattice.numerators
    if isinstance(obj, dict) and len(obj) == len(carrier):
        try:  # canonical grades "k/d" at exactly the carrier, in one pass
            return _from_bits(carrier, lattice,
                              _pack([table[obj[e]] for e in carrier], lattice.den))
        except (KeyError, TypeError):
            pass  # any other form goes through the checks and their errors
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be an object mapping element to grade")
    extra = set(obj) - set(carrier.elements)
    if extra:
        raise DocumentError(f"{what} mentions unknown elements {sorted(extra)}")
    missing = [e for e in carrier if e not in obj]
    if missing:
        raise DocumentError(f"{what} is missing elements {missing}")
    try:
        nums = [table[g] if isinstance(g := obj[e], str) and g in table
                else lattice.parse(g).num for e in carrier]
    except (ValueError, FgmlError) as exc:
        raise DocumentError(f"{what}: {exc}") from None
    return _from_bits(carrier, lattice, _pack(nums, lattice.den))


def _fuzzy_set_to_doc(fs: FuzzySet) -> dict:
    return {e: str(g) for e, g in zip(fs.carrier.elements, fs.grades)}


def build_signature(functor_name: str, modalities: tuple[str, ...],
                    lattice: GradeLattice, max_size: int = DEFAULT_MAX_SIZE
                    ) -> Signature:
    if functor_name == "identity":
        if modalities not in ((), ("id",)):
            raise DocumentError('identity functor admits only the "id" modality')
        return identity_functor()[1]
    if functor_name == "fuzzy-powerset":
        mods = modalities or ("dia",)
        try:
            return fuzzy_powerset_functor(lattice, mods, max_size)[1]
        except UnknownModalityError as exc:
            raise DocumentError(str(exc)) from None
    raise DocumentError(f"unknown functor {functor_name!r}")


def load_document(doc: dict, max_size: int = DEFAULT_MAX_SIZE) -> LoadedModel:
    """Build and fully validate a model from a parsed document."""
    for key in ("lattice", "functor", "carrier", "sigma", "valuation"):
        if key not in doc:
            raise DocumentError(f"document misses required key {key!r}")
    for key, kind in (("opens", list), ("generate_from", list), ("modalities", list),
                      ("sigma", dict), ("valuation", dict), ("relations", dict),
                      ("formulas", dict)):
        if key in doc and not isinstance(doc[key], kind):
            shape = "list" if kind is list else "object"
            raise DocumentError(f"{key!r} must be a JSON {shape}")
    den = doc["lattice"]
    if not isinstance(den, int) or isinstance(den, bool):
        raise DocumentError(f"bad lattice denominator: {den!r} is not an integer")
    try:
        lattice = make_lattice(den)
    except (ValueError, FgmlError) as exc:
        raise DocumentError(f"bad lattice denominator: {exc}") from None
    if lattice.den > max_size:  # every state holds one bit per grade above 0
        raise ResourceLimitError("grade bits per state", lattice.den, max_size)
    carrier_names = doc["carrier"]
    if not isinstance(carrier_names, list) \
            or not all(isinstance(e, str) and e for e in carrier_names):
        raise DocumentError("carrier must be a list of nonempty strings")
    try:
        carrier = Carrier(tuple(carrier_names))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    modalities = tuple(doc.get("modalities", ()))
    signature = build_signature(doc["functor"], modalities, lattice, max_size)

    if ("opens" in doc) == ("generate_from" in doc):
        raise DocumentError('document needs exactly one of "opens" and '
                            '"generate_from"')
    if "opens" in doc:
        # validate_model below checks that the opens form a topology
        opens = frozenset(
            _fuzzy_set_from_doc(o, carrier, lattice, f"open #{i}")
            for i, o in enumerate(doc["opens"]))
        space = FuzzySpace(carrier, lattice, opens)
    else:
        subbasis = [
            _fuzzy_set_from_doc(o, carrier, lattice, f"generate_from #{i}")
            for i, o in enumerate(doc["generate_from"])]
        space = generate_topology(carrier, lattice, subbasis, max_size)

    sigma_doc = doc["sigma"]
    if set(sigma_doc) != set(carrier.elements):
        raise DocumentError("sigma must assign exactly the carrier elements")
    if doc["functor"] == "identity":  # T S is S: sigma goes into the states
        for e in carrier:
            if not isinstance(value := sigma_doc[e], str) or value not in carrier:
                raise DocumentError(f"sigma[{e!r}] names unknown state {value!r}")
        sigma = CarrierMap(carrier, carrier, tuple(sigma_doc[e] for e in carrier))
    else:  # into the fuzzy sets sigma takes
        sigma = CarrierMap.onto(carrier, [
            _fuzzy_set_from_doc(sigma_doc[e], carrier, lattice, f"sigma[{e!r}]")
            for e in carrier])

    valuation = {}
    for name, obj in doc["valuation"].items():
        if not _PROP_NAME.match(name):
            raise DocumentError(f"proposition name {name!r} is not an identifier")
        valuation[name] = _fuzzy_set_from_doc(obj, carrier, lattice,
                                              f"valuation of {name!r}")

    model = Model.create(space, sigma, valuation)
    check = validate_model(model, signature)
    if not check:
        raise DocumentError("model validation failed: " + "; ".join(check.problems))

    relations = {}
    for name, pairs in doc.get("relations", {}).items():
        if not isinstance(pairs, list):
            raise DocumentError(f"relation {name!r} must be a list of pairs")
        cleaned = []
        for p in pairs:
            if not (isinstance(p, list) and [type(e) for e in p] == [str, str]):
                raise DocumentError(f"relation {name!r}: pairs are lists of two names")
            cleaned.append((p[0], p[1]))
        relations[name] = tuple(cleaned)
    formulas = dict(doc.get("formulas", {}))
    if not all(isinstance(text, str) for text in formulas.values()):
        raise DocumentError("formulas must map names to formula strings")
    return LoadedModel(model, signature, lattice, doc["functor"], modalities,
                       relations, formulas)


def load_model(path: str, max_size: int = DEFAULT_MAX_SIZE) -> LoadedModel:
    """Read, parse and validate a model document file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DocumentError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: document must be a JSON object")
    return load_document(doc, max_size)


def model_to_document(lm: LoadedModel) -> dict:
    """Canonical document: opens sorted by grade key, names sorted."""
    model, lattice = lm.model, lm.lattice
    carrier = model.space.carrier
    sigma_doc = {e: _fuzzy_set_to_doc(v) if isinstance(v, FuzzySet) else v
                 for e, v in zip(carrier, model.sigma.assignment)}
    doc = {
        "lattice": lattice.den,
        "functor": lm.functor_name,
        "carrier": list(carrier.elements),
        "opens": [_fuzzy_set_to_doc(o) for o in model.space.sorted_opens()],
        "sigma": sigma_doc,
        "valuation": {name: _fuzzy_set_to_doc(v) for name, v in model.valuation},
    }
    if lm.modalities:
        doc["modalities"] = list(lm.modalities)
    if lm.relations:
        doc["relations"] = {name: sorted([a, b] for a, b in pairs)
                            for name, pairs in sorted(lm.relations.items())}
    if lm.formulas:
        doc["formulas"] = dict(sorted(lm.formulas.items()))
    return doc


def _named_relation(lm: LoadedModel, other: LoadedModel, name: str) -> Relation:
    if name not in lm.relations:
        raise DocumentError(f"model document defines no relation named {name!r}")
    try:
        return Relation.of(lm.model.space.carrier, other.model.space.carrier,
                           lm.relations[name])
    except FgmlError as exc:
        raise DocumentError(f"relation {name!r}: {exc}") from None


def _json(value, sort: bool = True, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=sort) for a value whose dicts
    have str keys, built without the encoder's closures, which leave a
    reference cycle behind on every call."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, sort, inner)}"
                 for k, v in (sorted(value.items()) if sort else value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json(v, sort, inner) for v in value], "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_validate(args) -> int:
    lm = load_model(args.model, args.max_size)
    _emit(args, {"valid": True, "states": len(lm.model.space.carrier),
                 "opens": len(lm.model.space.opens)},
          [f"valid model: {len(lm.model.space.carrier)} states, "
           f"{len(lm.model.space.opens)} opens"])
    return 0


def _cmd_eval(args) -> int:
    lm = load_model(args.model, args.max_size)
    text = lm.formulas.get(args.formula, args.formula)
    formula = parse_formula(text, lm.signature)
    result = evaluate(lm.model, lm.signature, formula)
    _emit(args, {"formula": str(formula),
                 "grades": _fuzzy_set_to_doc(result)},
          [f"{e}: {g}" for e, g in zip(result.carrier.elements, result.grades)])
    return 0


def _cmd_classes(args) -> int:
    lm = load_model(args.model, args.max_size)
    classes = modal_equivalence_classes(lm.model, lm.signature)
    lines = [" ".join(cls) for cls in classes]
    if args.depth:
        vectors = _formula_closure([lm.model], lm.signature, _seeds(lm.model.props), args.depth)
        grades = dict(zip(lm.model.space.carrier, zip(*(v.key() for v, in vectors))))
        # the closure partition must refine the depth-bounded one; the
        # oracle separating states the closure joins would be a real bug
        if any(len({grades[s] for s in c}) > 1 for c in classes):
            print("error: depth-bounded oracle separates states the closure "
                  "joins", file=sys.stderr)
            return 2
        if len(set(grades.values())) < len(classes):
            lines.append(f"note: oracle at depth {args.depth} is coarser "
                         "than the closure partition")
    _emit(args, {"classes": [list(c) for c in classes]}, lines)
    return 0


def _cmd_quotient(args) -> int:
    lm = load_model(args.model, args.max_size)
    result = quotient_model(lm.model, lm.signature)
    if not result:
        _emit(args, {"ok": False, "failure": result.failure},
              [f"quotient failed: {result.failure}"])
        return 1
    out = LoadedModel(result.model, lm.signature, lm.lattice, lm.functor_name,
                      lm.modalities, {}, {})
    doc = model_to_document(out)
    mapping = {s: result.quotient_map(s) for s in lm.model.space.carrier}
    lines = [] if args.json else [  # the text form only when it is printed
        "classes: " + "; ".join(" ".join(c) for c in result.classes),
        _json(doc, sort=False)]
    _emit(args, {"ok": True, "classes": [list(c) for c in result.classes],
                 "map": mapping, "model": doc}, lines)
    return 0


def _cmd_bisim(args) -> int:
    lm = load_model(args.model, args.max_size)
    ln = load_model(args.other, args.max_size)
    if (lm.lattice, lm.functor_name, lm.modalities) != \
            (ln.lattice, ln.functor_name, ln.modalities):
        raise DocumentError("the two models must share lattice, functor and "
                            "modalities")
    sig = lm.signature
    if args.mode == "greatest":
        rel = greatest_sigma_bisimulation(lm.model, ln.model, sig, args.max_size)
        pairs = [list(p) for p in rel.sorted_pairs()]
        _emit(args, {"pairs": pairs},
              [f"{a} {b}" for a, b in rel.sorted_pairs()] or ["(empty)"])
        return 0
    rel = _named_relation(lm, ln, args.relation)
    if args.mode == "check":
        report = is_sigma_bisimulation(rel, lm.model, ln.model, sig, args.max_size)
    else:
        report = is_am_bisimulation(rel, lm.model, ln.model, sig, args.max_size)
    payload = {"verdict": report.verdict,
               "witnesses": [w.describe() for w in report.witnesses]}
    _emit(args, payload, str(report).split("\n"))
    return 0 if report.verdict else 1


def _cmd_sig(args) -> int:
    lm = load_model(args.model, args.max_size)
    sig, space = lm.signature, lm.model.space
    n = len(space.carrier)
    if n ** n > args.max_size:
        raise ResourceLimitError("self-map enumeration", n ** n, args.max_size)
    # first, so that a guard it trips refuses before the slower checks run
    characteristic = check_characteristic(sig, space, args.max_size)
    lines = []
    ok = True
    for lifting in sig.liftings:
        mono = check_monotone(lifting, space)
        lines.append(f"monotone[{lifting.name}]: {'PASS' if mono.ok else 'FAIL'}")
        ok = ok and mono.ok
    maps = (CarrierMap(space.carrier, space.carrier, assignment)
            for assignment in product(space.carrier.elements, repeat=n))
    natural_ok = True
    for f in maps:
        if not is_continuous(f, space, space):
            continue
        for lifting in sig.liftings:
            nat = check_natural(lifting, f, space, space)
            if not nat.ok:
                natural_ok = False
                lines.append(f"natural[{lifting.name}] on {f.assignment}: FAIL")
    lines.append(f"natural: {'PASS' if natural_ok else 'FAIL'} "
                 "(all continuous self-maps)")
    ok = ok and natural_ok
    lines.append(f"characteristic: {'PASS' if characteristic else 'FAIL'}")
    ok = ok and characteristic
    _emit(args, {"ok": ok, "lines": lines}, lines)
    return 0 if ok else 1


def _cmd_duality(args) -> int:
    lm = load_model(args.model, args.max_size)
    report = duality_check(lm.model.space)
    _emit(args, {"passed": report.passed,
                 "items": [[name, ok] for name, ok in report.items]},
          str(report).split("\n"))
    return 0 if report.passed else 1


def nonnegative_int(text: str) -> int:
    """Argument type of `classes --depth`: an int, refused when negative."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


@cache  # parse_args keeps no state between calls, so one parser serves all
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgml",
        description="Graded modal logic over finite fuzzy topological spaces")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE,
                        dest="max_size", help="enumeration guard override")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_model(p):
        p.add_argument("-m", "--model", required=True, help="model document path")

    p = sub.add_parser("validate", help="validate a model document")
    with_model(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    with_model(p)
    p.add_argument("-f", "--formula", required=True,
                   help="formula text, or the name of a stored formula")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classes", help="modal equivalence classes")
    with_model(p)
    p.add_argument("--depth", type=nonnegative_int, default=3,
                   help="formula-enumeration oracle depth (0 disables the "
                        "cross-check)")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("quotient", help="quotient by modal equivalence")
    with_model(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("bisim", help="bisimulation commands")
    bsub = p.add_subparsers(dest="mode", required=True)
    for mode, needs_rel in (("greatest", False), ("check", True), ("am", True)):
        bp = bsub.add_parser(mode)
        with_model(bp)
        bp.add_argument("-n", "--other", required=True,
                        help="second model document path")
        if needs_rel:
            bp.add_argument("-r", "--relation", required=True,
                            help="relation name from the first document")
        bp.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("sig", help="signature health checks")
    ssub = p.add_subparsers(dest="sigmode", required=True)
    sp = ssub.add_parser("check")
    with_model(sp)
    sp.set_defaults(func=_cmd_sig)

    p = sub.add_parser("duality", help="finite duality check on the model's space")
    with_model(p)
    p.set_defaults(func=_cmd_duality)
    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FgmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; exit's own flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
