"""Shared test machinery: deterministic model zoo and independent oracles.

The oracles here deliberately avoid the library's closure algorithms:
topology generation is checked against the intersection of all closed
families, reached by naive rounds of pairwise meets and joins, and
modal equivalence against raw formula syntax evaluated node by node.
"""

from __future__ import annotations

import random
from itertools import product

from fgml import (
    And,
    Carrier,
    CarrierMap,
    FuzzySet,
    Lifting,
    Modal,
    Model,
    Or,
    Prop,
    Relation,
    Signature,
    Top,
    direct_image,
    evaluate,
    fs_join,
    fs_meet,
    fuzzy_powerset_functor,
    generate_topology,
    identity_functor,
    image_elements,
    inverse_image,
    make_lattice,
    validate_model,
)
from fgml.frames import FiniteFrame
from fgml.fuzzyset import DEFAULT_MAX_SIZE, _from_bits
from fgml.topology import FuzzySpace

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def m1_model() -> tuple[Model, Signature]:
    """The worked two-state diamond model used across the suite."""
    lat = make_lattice(2)
    c = Carrier(("x", "y"))
    g = lat.grade
    vp = FuzzySet(c, lat, (g(2), g(1)))
    dia_p = FuzzySet(c, lat, (g(1), g(1)))
    space = generate_topology(c, lat, [vp, dia_p])
    _, sig = fuzzy_powerset_functor(lat, ("dia",))
    sx = FuzzySet(c, lat, (g(0), g(2)))
    sy = FuzzySet(c, lat, (g(1), g(0)))
    return Model.create(space, CarrierMap.onto(c, (sx, sy)), {"p": vp}), sig


def complete_powerset_model(carrier: Carrier, lat, sigma_sets, valuation,
                            sig: Signature, extra_opens=()) -> Model:
    """Build a valid fuzzy-powerset model by topology completion.

    Starts from the valuation images (plus extras), then adds structure
    map pullbacks of image opens until the structure map is continuous;
    the family of fuzzy sets is finite, so the loop terminates. The
    completion takes the eager path: it builds the image topology and
    sends each state into its whole carrier. The model's structure map
    goes onto the values it takes.
    """
    functor = sig.functor
    assignment = tuple(sigma_sets[e] for e in carrier)
    gens = list(valuation.values()) + list(extra_opens)
    space = generate_topology(carrier, lat, gens)
    while True:
        image = functor.on_space(space)
        sigma = CarrierMap(carrier, image.carrier, assignment)
        missing = [inverse_image(sigma, o) for o in image.sorted_opens()
                   if inverse_image(sigma, o) not in space.opens]
        if not missing:
            model = Model.create(space, CarrierMap.onto(carrier, assignment), valuation)
            check = validate_model(model, sig)
            assert check.ok, check.problems
            return model
        space = generate_topology(carrier, lat, list(space.opens) + missing)


def complete_identity_model(carrier: Carrier, lat, assignment, valuation,
                            sig: Signature, extra_opens=()) -> Model:
    """Identity-functor analogue of complete_powerset_model."""
    gens = list(valuation.values()) + list(extra_opens)
    space = generate_topology(carrier, lat, gens)
    sigma = CarrierMap(carrier, carrier, assignment)
    while True:
        missing = [inverse_image(sigma, o) for o in space.sorted_opens()
                   if inverse_image(sigma, o) not in space.opens]
        if not missing:
            model = Model.create(space, sigma, valuation)
            check = validate_model(model, sig)
            assert check.ok, check.problems
            return model
        space = generate_topology(carrier, lat, list(space.opens) + missing)


_NAMES = ("a", "b", "c", "d", "e", "f")


def _carrier(n: int) -> Carrier:
    """The first n state names; refuses an n past the name list, which would
    silently repeat a smaller carrier."""
    if n > len(_NAMES):
        raise ValueError(f"the zoo names at most {len(_NAMES)} states")
    return Carrier(_NAMES[:n])


def _pattern(carrier: Carrier, lat, offset: int, step: int) -> FuzzySet:
    top = lat.den
    nums = [(offset + i * step) % (top + 1) for i in range(len(carrier))]
    return FuzzySet(carrier, lat, tuple(lat.grade(k) for k in nums))


def powerset_zoo(max_states: int, dens=(1, 2), modalities=("dia",),
                 max_per_size: int = 4) -> list[tuple[Model, Signature]]:
    """Deterministic family of valid fuzzy-powerset models.

    Every other multi-state entry values a second proposition, so the
    sweeps exercise richer valuations too.
    """
    out = []
    for d in dens:
        lat = make_lattice(d)
        functor, sig = fuzzy_powerset_functor(lat, modalities)
        for n in range(1, max_states + 1):
            carrier = _carrier(n)
            combos = []
            for v_off, v_step in ((d, 1), (1, 0), (0, 1)):
                for s_off, s_step in ((0, 1), (d, d), (1, 1)):
                    combos.append((v_off, v_step, s_off, s_step))
            taken = 0
            seen = set()
            for v_off, v_step, s_off, s_step in combos:
                if taken >= max_per_size:
                    break
                valuation = {"p": _pattern(carrier, lat, v_off, v_step)}
                if n >= 2 and taken % 2 == 0:
                    valuation["q"] = _pattern(carrier, lat, d, d)
                sigma_sets = {e: _pattern(carrier, lat, s_off + i, s_step)
                              for i, e in enumerate(carrier)}
                key = (tuple(sorted((p, v.key()) for p, v in valuation.items())),
                       tuple(sigma_sets[e].key() for e in carrier))
                if key in seen:
                    continue
                seen.add(key)
                model = complete_powerset_model(carrier, lat, sigma_sets,
                                                valuation, sig)
                out.append((model, sig))
                taken += 1
    return out


def identity_zoo(max_states: int, dens=(1, 2)) -> list[tuple[Model, Signature]]:
    """Deterministic family of valid identity-functor models."""
    out = []
    _, sig = identity_functor()
    for d in dens:
        lat = make_lattice(d)
        for n in range(1, max_states + 1):
            carrier = _carrier(n)
            assignments = {tuple(carrier.elements),
                           tuple(carrier.elements[0] for _ in carrier),
                           tuple(reversed(carrier.elements))}
            for assignment in sorted(assignments):
                vp = _pattern(carrier, lat, d, 1)
                model = complete_identity_model(carrier, lat, assignment,
                                                {"p": vp}, sig)
                out.append((model, sig))
    return out


def duplicate_state(model: Model, sig: Signature, state: str, copy: str) -> Model:
    """A fuzzy-powerset model with one state duplicated.

    The copy gets the same prop grades and the same structure image
    (spread over the enlarged carrier), so it is modally equivalent to
    the original state by construction.
    """
    old = model.space.carrier
    lat = model.space.lattice
    new_carrier = Carrier(old.elements + (copy,))

    def widen(fs: FuzzySet, copy_from: str | None = None) -> FuzzySet:
        extra = fs(copy_from) if copy_from else lat.bottom
        return FuzzySet(new_carrier, lat, fs.grades + (extra,))

    sigma_sets = {e: widen(model.sigma(e)) for e in old}
    sigma_sets[copy] = widen(model.sigma(state))
    valuation = {name: widen(v, copy_from=state) for name, v in model.valuation}
    return complete_powerset_model(new_carrier, lat, sigma_sets, valuation, sig)


def copy_states(model: Model, sig: Signature, copies, odd: str) -> Model:
    """The model with copies of states put anywhere in the carrier, for
    either functor.

    `copies` lists (copy, state, index) in turn: `copy` goes in at
    position `index` of the carrier so far, with `state`'s prop grades and
    structure value (a powerset value spread over the new carrier with
    grade 0 at the copies), so it is modally equivalent to `state` by
    construction. So merged states need not be adjacent, a state copied
    twice makes a class of three, and a copy put first becomes its class's
    representative. The topology is completed from the valuations and one
    more open: the crisp set of the states that copy what `odd` copies
    (an original copies itself), `odd` left out. It is not constant on
    the class of `odd`, so the quotient has opens to drop, and it sets
    apart `odd` alone within its copies.
    """
    lat, old = model.space.lattice, model.space.carrier
    states, source = list(old.elements), {s: s for s in old}
    for copy, state, index in copies:
        states.insert(index, copy)
        source[copy] = source[state]
    carrier = Carrier(tuple(states))

    def widen(fs: FuzzySet, copied: bool) -> FuzzySet:
        return FuzzySet(carrier, lat, tuple(fs(source[s]) if copied or s in old
                                            else lat.bottom for s in carrier))

    valuation = {name: widen(v, True) for name, v in model.valuation}
    extra = FuzzySet(carrier, lat, tuple(lat.top if source[s] == source[odd] and s != odd
                                         else lat.bottom for s in carrier))
    if sig.functor.name == "identity":
        return complete_identity_model(carrier, lat, tuple(model.sigma(source[s]) for s in carrier),
                                       valuation, sig, [extra])
    sigma_sets = {s: widen(model.sigma(source[s]), False) for s in carrier}
    return complete_powerset_model(carrier, lat, sigma_sets, valuation, sig, [extra])


def dia_closed_document(d: int, n: int, seed: int) -> dict:
    """Seeded fuzzy-powerset `dia` model document, closed by pullbacks.

    Draws the structure map and two valuations at random, starts from the
    topology the valuations generate, and adds the pullback of `dia` of
    every open until all of them are open; there are finitely many fuzzy
    sets, so this stops. The `dia` images of the opens generate the image
    topology, so the structure map is then continuous. No image topology
    is built.
    """
    from fgml.cli import LoadedModel, model_to_document

    rng = random.Random(seed)
    lat = make_lattice(d)
    carrier = Carrier(tuple(f"s{i}" for i in range(n)))

    def draw() -> FuzzySet:
        return FuzzySet(carrier, lat, tuple(lat.grade(rng.randint(0, d)) for _ in carrier))

    sigma_sets = {e: draw() for e in carrier}
    valuation = {"p": draw(), "q": draw()}
    _, sig = fuzzy_powerset_functor(lat, ("dia",))
    dia = sig.lifting("dia")
    sigma = CarrierMap.onto(carrier, [sigma_sets[e] for e in carrier])
    space = generate_topology(carrier, lat, list(valuation.values()))
    while missing := [p for o in space.sorted_opens()
                      if (p := inverse_image(sigma, dia.apply(space, (o,), sigma.target)))
                      not in space.opens]:
        space = generate_topology(carrier, lat, list(space.opens) + missing)
    model = Model.create(space, sigma, valuation)
    return model_to_document(LoadedModel(model, sig, lat, "fuzzy-powerset", ("dia",),
                                         {}, {}))


def singleton_document(d: int, n: int, seed: int) -> dict:
    """Seeded `dia`/`box` powerset document whose structure map sends each
    state s to its crisp singleton {s}.

    At {s}, both dia(mu) and box(mu) are mu(s), so each modality is the
    identity on formulas and every topology makes the structure map
    continuous. Two seeded valuations p and q generate the opens, and
    the relation "diag" is the diagonal.
    """
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n)]

    def draw() -> dict:
        return {s: f"{rng.randint(0, d)}/{d}" for s in states}

    p, q = draw(), draw()
    return {"lattice": d, "functor": "fuzzy-powerset", "modalities": ["dia", "box"],
            "carrier": states, "generate_from": [p, q],
            "sigma": {s: {t: f"{d if t == s else 0}/{d}" for t in states} for s in states},
            "valuation": {"p": p, "q": q},
            "relations": {"diag": [[s, s] for s in states]}}


def pullback_closed_document(d: int, n: int, seed: int, duplicate: bool = False) -> dict:
    """Seeded identity-functor document on states s0, ..., s{n-1}: three
    random propositions p, q and r, and a random structure map sigma.

    The opens are generated from the propositions and all their pullbacks
    along sigma, sigma^2, ...; a pullback keeps meets and joins, so that
    topology is closed under pullback and sigma is continuous. With
    `duplicate`, a state s{n} copies the last state's grades and sigma
    value, so the two are modally equivalent by construction.
    """
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n)]
    sigma = {s: rng.choice(states) for s in states}
    props = {name: {s: rng.randint(0, d) for s in states} for name in "pqr"}
    if duplicate:
        sigma[f"s{n}"] = sigma[states[-1]]
        for nums in props.values():
            nums[f"s{n}"] = nums[states[-1]]
        states.append(f"s{n}")
    after = [states.index(sigma[s]) for s in states]
    gens, frontier = set(), {tuple(nums[s] for s in states) for nums in props.values()}
    while frontier := frontier - gens:
        gens |= frontier
        frontier = {tuple(g[i] for i in after) for g in frontier}

    def grades(nums) -> dict:
        return {s: f"{k}/{d}" for s, k in zip(states, nums)}

    return {"lattice": d, "functor": "identity", "carrier": states,
            "generate_from": [grades(g) for g in sorted(gens)], "sigma": sigma,
            "valuation": {name: grades(nums[s] for s in states)
                          for name, nums in props.items()}}


def generated_chain_document(d: int, n: int) -> dict:
    """Identity-functor document on states s0, ..., s{n-1} whose opens are
    generated from n sets: set i has grade 1 at s_i, grade (d // 2)/d at
    s_{i+1 mod n} (1/2 for an even d) and 0 elsewhere.

    sigma is the n-cycle s_i -> s_{i+1}, which pulls set i back to set
    i-1, so it is continuous; p is set 0, and the relation "diag" is the
    diagonal. The topology has exponentially many opens in n, but only
    n*d primes.
    """
    states = [f"s{i}" for i in range(n)]

    def gen(i: int) -> dict:
        grades = dict.fromkeys(states, 0)
        grades[states[(i + 1) % n]] = d // 2
        grades[states[i]] = d
        return {s: f"{k}/{d}" for s, k in grades.items()}

    return {"lattice": d, "functor": "identity", "carrier": states,
            "generate_from": [gen(i) for i in range(n)],
            "sigma": {s: states[(i + 1) % n] for i, s in enumerate(states)},
            "valuation": {"p": gen(0)},
            "relations": {"diag": [[s, s] for s in states]}}


def eager_model(m: Model, sig: Signature) -> Model:
    """The eager path: the model with its structure map taken into the
    whole carrier of T S, so that every lifting is applied over all of
    T S and pulled back from there."""
    image = image_elements(sig.functor, m.space)
    return Model(m.space, CarrierMap(m.space.carrier, image, m.sigma.assignment),
                 m.valuation)


def fuzzy_lifting(name: str, arity: int, functor, raw, keeps=None) -> Lifting:
    """A lifting given on fuzzy sets: `raw(space, args, at)` is its value
    at each element of `at`, a carrier of values of T S. Its kernel makes
    the packed arguments fuzzy sets, reads `raw` at f's target and pulls
    the result back along f."""

    def kernel(space: FuzzySpace, f: CarrierMap):
        def lift(*args: int) -> int:
            sets = tuple(_from_bits(space.carrier, space.lattice, a) for a in args)
            return inverse_image(f, raw(space, sets, f.target)).bits
        return lift

    return Lifting(name, arity, functor, kernel, keeps)


def all_maps(source: Carrier, target: Carrier) -> list[CarrierMap]:
    """Every function between the carriers, in deterministic order."""
    return [CarrierMap(source, target, assignment)
            for assignment in product(target.elements, repeat=len(source))]


def oracle_topology(carrier: Carrier, lat, subbasis) -> frozenset[FuzzySet]:
    """Intersection of every fuzzy-set family that is a topology and
    contains the subbasis: the constants and the subbasis, with pairwise
    meets and joins added in rounds until none is new. Every such family
    holds each round, and the last round is one of them. Independent of
    generate_topology."""
    family = {FuzzySet.empty(carrier, lat), FuzzySet.full(carrier, lat), *subbasis}
    while new := {op(a, b) for a in family for b in family
                  for op in (fs_meet, fs_join)} - family:
        family |= new
    return frozenset(family)


def all_opens_subbasis(sig: Signature, space: FuzzySpace, at: Carrier) -> list[FuzzySet]:
    """The image subbasis before the prime bases: every generating (unary)
    lifting applied to every open in order, read at the values in `at`."""
    return [l.apply(space, (o,), at) for l in sig.liftings for o in space.sorted_opens()]


def all_opens_discontinuity(m: Model, sig: Signature) -> FuzzySet | None:
    """The continuity walk before the prime bases: the first member of the
    all-opens subbasis, read at sigma's values, whose pullback along sigma
    is not open; None when there is none."""
    return next((o for o in all_opens_subbasis(sig, m.space, m.sigma.target)
                 if inverse_image(m.sigma, o) not in m.space.opens), None)


def oracle_quotient_opens(m: Model, q: CarrierMap) -> frozenset[FuzzySet]:
    """The final topology along the onto quotient map q, on fuzzy sets:
    the images q(o) of the opens o with q^-1(q(o)) = o."""
    return frozenset(w for o in m.space.opens
                     if inverse_image(q, w := direct_image(q, o)) == o)


def all_opens_subspace_topology(rel: Relation, left: FuzzySpace, right: FuzzySpace,
                                max_size: int = DEFAULT_MAX_SIZE) -> FuzzySpace:
    """The subspace topology before the prime bases: generated by the
    pullbacks of every open of both sides along the projections."""
    pi1, pi2 = rel.projections()
    gens = [inverse_image(pi1, o) for o in left.sorted_opens()]
    gens += [inverse_image(pi2, o) for o in right.sorted_opens()]
    return generate_topology(rel.pair_carrier(), left.lattice, gens, max_size)


def opens_frame(space: FuzzySpace) -> FiniteFrame:
    """The opens ordered pointwise, as a finite frame: the |opens|^2 order
    table that sobriety and duality were read off before the primes."""
    opens = space.sorted_opens()
    leq = frozenset((a, b) for a in opens for b in opens if a.bits & ~b.bits == 0)
    return FiniteFrame(opens, leq, bottom=space.bottom_open, top=space.top_open)


def oracle_is_t0(space: FuzzySpace) -> bool:
    """Some open separates the grades of every pair of distinct states,
    by the pairwise scan."""
    for i, x in enumerate(space.carrier.elements):
        for y in space.carrier.elements[i + 1:]:
            if all(o(x) == o(y) for o in space.opens):
                return False
    return True


def oracle_formulas(models, sig: Signature, depth: int) -> list:
    """Depth-bounded formula syntax, deduplicated by direct evaluation.

    Builds raw syntax trees and evaluates each with evaluate(); shares
    no closure code with definable_opens or enumerate_formulas.
    """
    props = models[0].props

    def key(formula):
        return tuple(evaluate(m, sig, formula) for m in models)

    reps = {}
    for f in [Top(), Or(())] + [Prop(p) for p in props]:
        reps.setdefault(key(f), f)
    for _ in range(depth):
        existing = list(reps.values())
        for fa in existing:
            for fb in existing:
                for cand in (And(fa, fb), Or((fa, fb)), Or((fb, fa, Top()))):
                    reps.setdefault(key(cand), cand)
        for lifting in sig.liftings:
            for combo in product(existing, repeat=lifting.arity):
                cand = Modal(lifting.name, tuple(combo))
                reps.setdefault(key(cand), cand)
    return list(reps.values())


def oracle_partition(model: Model, sig: Signature, depth: int):
    """Partition of the carrier by the depth-bounded formula oracle."""
    formulas = oracle_formulas([model], sig, depth)
    values = [evaluate(model, sig, f) for f in formulas]
    groups: dict[tuple, list[str]] = {}
    for s in model.space.carrier:
        groups.setdefault(tuple(v(s) for v in values), []).append(s)
    return {frozenset(g) for g in groups.values()}


def crisp_discrete_document(n: int) -> dict:
    """Crisp identity-functor document on states s0, ..., s{n-1} whose
    opens are generated by the n singletons: the discrete topology, with
    2^n opens, n primes and every state its own point, so it is sober.
    sigma is the n-cycle, continuous as every map is, p is {s0}, and the
    relation "diag" is the diagonal."""
    states = [f"s{i}" for i in range(n)]

    def singleton(i: int) -> dict:
        return {s: f"{int(k == i)}/1" for k, s in enumerate(states)}

    return {"lattice": 1, "functor": "identity", "carrier": states,
            "generate_from": [singleton(i) for i in range(n)],
            "sigma": {s: states[(i + 1) % n] for i, s in enumerate(states)},
            "valuation": {"p": singleton(0)},
            "relations": {"diag": [[s, s] for s in states]}}


def crown_document(k: int) -> dict:
    """Crisp identity-functor document on states a0, ..., a{k-1}, b0, ...,
    b{k-1} whose opens are generated by the singletons {a_i} and the sets
    {b_l, a_l, a_{l+1}, a_{l+5}}, indices mod k. These 2k sets are its
    primes; each a_i lies below the sets of b_{i}, b_{i-1} and b_{i-5}, so
    the comparability graph of the primes is connected, and its down-sets
    need many memo entries to count. sigma is the identity and p is {a0}."""
    states = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]

    def crisp(*names: str) -> dict:
        return {s: f"{int(s in names)}/1" for s in states}

    gens = [crisp(f"a{i}") for i in range(k)]
    gens += [crisp(f"b{i}", *(f"a{(i + step) % k}" for step in (0, 1, 5))) for i in range(k)]
    return {"lattice": 1, "functor": "identity", "carrier": states, "generate_from": gens,
            "sigma": {s: s for s in states}, "valuation": {"p": crisp("a0")}}
