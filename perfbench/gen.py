"""Seeded model documents and operation plans for the benchmark.

Fuzzy sets here are tuples of grade numerators over a fixed denominator
d. The generator closes topologies and completes structure maps itself,
on plain integers, so the documents do not depend on the library code
they are used to time, and generating them warms none of its caches.

Every document is valid by construction; the plan records, next to each
operation, the answers the benchmark can derive without the library:
exit codes, opens counts, formula grades, modal-equivalence classes, and
the state pairs that the greatest bisimulation must relate.
"""

from __future__ import annotations

import json
import os
import random
from itertools import product

# (d, n, duplicated state, topology, modalities) rungs of the image
# ladder. The spaces are discrete (every fuzzy set open) or crisp (every
# crisp set open), so a rung's image topology has the same size for
# every seed: 15, 20, 20, 20, 31, 31, 156 and 168 opens. The top rung is
# where one load costs on the order of a second.
IMAGE_LADDER = ((2, 2, False, "discrete", ("dia",)),
                (1, 3, False, "discrete", ("dia",)),
                (1, 4, True, "discrete", ("dia",)),
                (2, 3, False, "crisp", ("dia",)),
                (3, 2, False, "discrete", ("dia",)),
                (3, 3, True, "discrete", ("dia",)),
                (2, 2, False, "discrete", ("dia", "box")),
                (1, 4, False, "discrete", ("dia",)))
# (d, n, duplicated state, target opens, explicit opens) for closure.
CLOSURE_LADDER = ((1, 8, True, 28, True), (1, 10, False, 48, False),
                  (2, 6, True, 36, False), (2, 7, False, 72, True),
                  (3, 6, False, 60, True), (1, 9, True, 40, False))
# Closure rungs, in the same form, that run only `classes` and
# `quotient`: the quadratic scan in `definable_opens` shows from about a
# hundred opens on, where a load alone costs about half a second.
DEFINABLE_LADDER = ((2, 7, False, 160, False),)
# (d, frame) for sober point-topology documents used by `duality`; the
# fuzzy-powerset ones have few points, because each document load builds
# an image with (d+1)^points atoms.
SOBER_FRAMES = ((1, ("chain", 7)), (1, ("product", 2, 4)), (2, ("chain", 5)),
                (2, ("product", 2, 3)), (3, ("chain", 5)))
IMAGE_SOBER_FRAMES = ((1, ("chain", 7)), (1, ("product", 2, 4)), (2, ("chain", 4)),
                      (2, ("product", 2, 3)), (3, ("product", 2, 2)))

# -- fuzzy sets as numerator tuples ----------------------------------------

def meet(a, b):
    return tuple(map(min, a, b))


def join(a, b):
    return tuple(map(max, a, b))


def close(family, n: int, d: int, closed=frozenset(), limit=None) -> set:
    """Smallest family holding the constants, `family` and the topology
    `closed`, closed under binary meets and then binary joins. Only new
    members are combined, one worklist per operation. Stops early, with
    a partial family, once it holds more than `limit` members."""
    opens = {(0,) * n, (d,) * n} | set(closed)
    fresh = [f for f in dict.fromkeys(family) if f not in opens]
    opens.update(fresh)
    for op in (meet, join):
        todo = list(fresh if closed else opens)
        while todo:
            a = todo.pop()
            for b in list(opens):
                c = op(a, b)
                if c not in opens:
                    opens.add(c)
                    todo.append(c)
                    fresh.append(c)
                    if limit is not None and len(opens) > limit:
                        return opens
    return opens


def dia(nu, mu):
    """sup-min of a structure value nu against a fuzzy set mu."""
    return max(min(x, y) for x, y in zip(nu, mu))


def box(nu, mu, d):
    return min(max(d - x, y) for x, y in zip(nu, mu))


def lift(name: str, d: int, sigma: list, mu) -> tuple:
    """Pullback along sigma of a lifting applied to mu, state by state."""
    if name == "dia":
        return tuple(dia(nu, mu) for nu in sigma)
    if name == "box":
        return tuple(box(nu, mu, d) for nu in sigma)
    return tuple(mu[t] for t in sigma)  # identity functor: sigma is an index


def evaluate(f, model: dict) -> tuple:
    """Pointwise grades of formula tree f on a generated model."""
    tag = f[0]
    if tag == "top":
        return (model["d"],) * len(model["states"])
    if tag == "prop":
        return model["val"][f[1]]
    if tag == "and":
        return meet(evaluate(f[1], model), evaluate(f[2], model))
    if tag == "or":
        out = (0,) * len(model["states"])
        for item in f[1]:
            out = join(out, evaluate(item, model))
        return out
    return lift(tag, model["d"], model["sigma"], evaluate(f[1], model))


def render(f) -> str:
    tag = f[0]
    if tag in ("top", "prop"):
        return f[-1] if tag == "prop" else "top"
    if tag == "and":
        return f"({render(f[1])} & {render(f[2])})"
    if tag == "or":
        return "\\/[" + ", ".join(render(i) for i in f[1]) + "]"
    return f"<{tag}>({render(f[1])})"


def random_formula(rng: random.Random, props, mods, depth: int):
    if depth == 0 or rng.random() < 0.15:
        return ("prop", rng.choice(props)) if rng.random() < 0.9 else ("top",)
    r = rng.random()
    if r < 0.5:
        return (rng.choice(mods), random_formula(rng, props, mods, depth - 1))
    if r < 0.75:
        return ("and", random_formula(rng, props, mods, depth - 1),
                random_formula(rng, props, mods, depth - 1))
    return ("or", tuple(random_formula(rng, props, mods, depth - 1)
                        for _ in range(rng.randint(1, 2))))


def modal_formula(rng: random.Random, props, mods, depth: int):
    """A formula with at least two nested modalities."""
    inner = random_formula(rng, props, mods, depth - 2)
    return (rng.choice(mods), (rng.choice(mods), inner))


# -- models ----------------------------------------------------------------

def _rand_set(rng: random.Random, n: int, d: int) -> tuple:
    return tuple(rng.randint(0, d) for _ in range(n))


def _complete(new: list, sigma: list, mods, n: int, d: int,
              gens=(), opens=frozenset(), limit=None):
    """Add `new` generators, then structure-map pullbacks of lifted opens
    until sigma is continuous; returns the generators and the topology,
    or a partial family larger than `limit`."""
    gens = list(gens)
    while True:
        new = [g for g in dict.fromkeys(new) if g not in opens]
        if not new:
            return gens, opens
        gens += new
        grown = close(new, n, d, opens, limit)
        added, opens = grown - opens, grown
        if limit is not None and len(opens) > limit:
            return gens, opens
        new = sorted({lift(m, d, sigma, mu) for m in mods for mu in added})


def _widen(fs: tuple, src: int) -> tuple:
    return fs + (fs[src],)


def duplicate(model: dict, orig: int) -> dict:
    """Append a copy of state `orig`: same grade in every open and
    valuation, same structure value, and no state points at the copy."""
    d, functor = model["d"], model["functor"]
    states = model["states"] + [model["states"][orig] + "c"]
    if functor == "identity":
        sigma = model["sigma"] + [model["sigma"][orig]]
    else:
        sigma = [nu + (0,) for nu in model["sigma"]]
        sigma.append(sigma[orig])
    return dict(model, states=states, sigma=sigma,
                gens=[_widen(g, orig) for g in model["gens"]],
                opens={_widen(o, orig) for o in model["opens"]},
                val={p: _widen(v, orig) for p, v in model["val"].items()},
                dup=(orig, len(states) - 1))


def _grow(rng: random.Random, val: dict, sigma: list, mods, n: int, d: int,
          target: int):
    """Generators and topology with `target` to 1.1 * `target` opens.
    Random propositions are added to `val` one at a time, dropping any
    that overshoot, so every open stays definable; None when every
    candidate overshoots."""
    limit = int(1.1 * target) if target else None
    gens, opens = _complete(list(val.values()), sigma, mods, n, d, limit=limit)
    while len(opens) < target:
        for _ in range(64):
            fresh = _rand_set(rng, n, d)
            grown = _complete([fresh], sigma, mods, n, d, gens, opens, limit)
            if len(opens) < len(grown[1]) <= limit:
                break
        else:
            return None
        val[f"v{len(val)}"] = fresh
        gens, opens = grown
    return None if limit and len(opens) > limit else (gens, opens)


def identity_model(rng: random.Random, d: int, n: int, dup: bool,
                   target: int, explicit: bool) -> dict:
    """Identity-functor model with a random valuation and structure map
    on n states (one of them a copy when `dup`), and a topology of about
    `target` opens."""
    base = n - 1 if dup else n
    if target > (d + 1) ** base:
        raise ValueError(f"no topology on {base} states has {target} opens")
    grown = None
    while grown is None:
        val = {p: _rand_set(rng, base, d) for p in ["p", "q", "r"][:rng.randint(1, 3)]}
        sigma = [rng.randrange(base) for _ in range(base)]
        grown = _grow(rng, val, sigma, ("id",), base, d, target)
    gens, opens = grown
    model = {"d": d, "functor": "identity", "mods": [],
             "states": [f"s{i}" for i in range(base)], "sigma": sigma,
             "val": val, "gens": gens, "opens": opens, "dup": None,
             "explicit": explicit}
    return duplicate(model, rng.randrange(base)) if dup else model


def shaped_powerset_model(rng: random.Random, d: int, n: int, dup: bool,
                          kind: str, mods, explicit: bool) -> dict:
    """Fuzzy-powerset model on the discrete or the crisp topology, with
    random open valuations and a random structure map, which is
    continuous on either: pullbacks of lifted crisp sets along a crisp
    structure map are crisp."""
    base = n - 1 if dup else n
    grades = range(d + 1) if kind == "discrete" else (0, d)
    opens = set(product(grades, repeat=base))
    points = [tuple(k if t == s else 0 for t in range(base))
              for s in range(base) for k in grades if k]
    props = ["p", "q"][:rng.randint(1, 2)]
    model = {"d": d, "functor": "fuzzy-powerset", "mods": list(mods),
             "states": [f"s{i}" for i in range(base)],
             "sigma": [tuple(rng.choice(grades) for _ in range(base))
                       for _ in range(base)],
             "val": {p: tuple(rng.choice(grades) for _ in range(base))
                     for p in props},
             "gens": points, "opens": opens, "dup": None, "explicit": explicit}
    return duplicate(model, rng.randrange(base)) if dup else model


def _frame(spec):
    """Elements and order of a chain or a product of two chains."""
    if spec[0] == "chain":
        elems = [(i,) for i in range(spec[1])]
    else:
        elems = list(product(range(spec[1]), range(spec[2])))
    return elems, lambda a, b: all(x <= y for x, y in zip(a, b))


def frame_points(spec, d: int) -> list[tuple]:
    """All lattice homomorphisms from the frame into the d-chain, found
    by extending monotone partial maps and checking meets and joins."""
    elems, leq = _frame(spec)
    lo, hi = elems.index(min(elems)), elems.index(max(elems))
    found = []

    def extend(prefix):
        i = len(prefix)
        if i == len(elems):
            h = dict(zip(elems, prefix))
            if all(h[meet(a, b)] == min(h[a], h[b])
                   and h[join(a, b)] == max(h[a], h[b])
                   for a in elems for b in elems):
                found.append(tuple(prefix))
            return
        choices = [0] if i == lo else [d] if i == hi else range(d + 1)
        for v in choices:
            if all(v >= prefix[j] for j in range(i) if leq(elems[j], elems[i])) \
                    and all(v <= prefix[j] for j in range(i)
                            if leq(elems[i], elems[j])):
                extend(prefix + [v])

    extend([])
    return found


def sober_model(rng: random.Random, d: int, spec, functor: str) -> dict:
    """The point space of a finite distributive lattice: sober, with one
    open per lattice element. The structure map sends each point to
    itself, which is continuous for either functor."""
    pts = frame_points(spec, d)
    n = len(pts)
    opens = {tuple(p[k] for p in pts) for k in range(len(pts[0]))}
    ordered = sorted(opens)
    val = {"p": rng.choice(ordered)}
    if functor == "identity":
        sigma = list(range(n))
    else:
        sigma = [tuple(d if t == s else 0 for t in range(n)) for s in range(n)]
    return {"d": d, "functor": functor,
            "mods": ["dia"] if functor != "identity" else [],
            "states": [f"t{i}" for i in range(n)], "sigma": sigma, "val": val,
            "gens": ordered, "opens": opens, "dup": None, "explicit": True}


def to_document(model: dict) -> dict:
    """The model as an fgml JSON document."""
    d, states = model["d"], model["states"]

    def fs(t):
        return {s: f"{k}/{d}" for s, k in zip(states, t)}

    if model["functor"] == "identity":
        sigma = {s: states[t] for s, t in zip(states, model["sigma"])}
    else:
        sigma = {s: fs(nu) for s, nu in zip(states, model["sigma"])}
    doc = {"lattice": d, "functor": model["functor"], "carrier": states,
           "sigma": sigma,
           "valuation": {p: fs(v) for p, v in sorted(model["val"].items())},
           "relations": {"diag": [[s, s] for s in states]}}
    if model["mods"]:
        doc["modalities"] = model["mods"]
    if model["explicit"]:
        doc["opens"] = [fs(o) for o in sorted(model["opens"])]
    else:
        doc["generate_from"] = [fs(g) for g in model["gens"]]
    if model["dup"]:
        o, c = (states[i] for i in model["dup"])
        doc["relations"]["dup"] = sorted([[s, s] for s in states]
                                         + [[o, c], [c, o]])
    return doc


def modal_classes(model: dict) -> list[list[str]]:
    """States grouped by their grades on every definable open: the
    closure of the top set and the valuations under meets, joins and
    lifted pullbacks. Classes and members are in carrier order."""
    d, n = model["d"], len(model["states"])
    mods = model["mods"] or ["id"]
    _, definable = _complete([(d,) * n] + list(model["val"].values()),
                             model["sigma"], mods, n, d)
    ordered = sorted(definable)
    groups: dict[tuple, list[str]] = {}
    for i, s in enumerate(model["states"]):
        groups.setdefault(tuple(o[i] for o in ordered), []).append(s)
    return list(groups.values())


def quotient_ok(model: dict, classes: list[list[str]]) -> bool:
    """The quotient's structure map is representative-independent: the
    members of a class have equal structure values once pushed along the
    quotient map (always so for the identity functor)."""
    if model["functor"] == "identity":
        return True
    index = {s: i for i, s in enumerate(model["states"])}
    cls_of = [next(k for k, c in enumerate(classes) if s in c)
              for s in model["states"]]

    def pushed(s):
        out = [0] * len(classes)
        for t, g in enumerate(model["sigma"][index[s]]):
            out[cls_of[t]] = max(out[cls_of[t]], g)
        return out

    return all(pushed(s) == pushed(c[0]) for c in classes for s in c)


# -- plans -----------------------------------------------------------------

def _facts(model: dict) -> dict:
    """What checks may rely on, derived here rather than by the library."""
    states = model["states"]
    classes = modal_classes(model)
    return {"states": states, "opens": len(model["opens"]),
            "dup": [states[i] for i in model["dup"]] if model["dup"] else None,
            "classes": classes, "quotient_ok": quotient_ok(model, classes)}


def _cli_ops(name: str, model: dict, rng: random.Random, commands) -> list:
    path = name + ".json"
    facts = _facts(model)
    mods = model["mods"] or ["id"]
    props = sorted(model["val"])
    ops = []
    for cmd in commands:
        argv, expect = None, {"exit": 0}
        if cmd == "validate":
            argv = ["--json", "validate", "-m", path]
            expect["opens"] = facts["opens"]
        elif cmd == "eval":
            f = modal_formula(rng, props, mods, 4)
            argv = ["--json", "eval", "-m", path, "-f", render(f)]
            expect["grades"] = dict(zip(facts["states"],
                                        (f"{k}/{model['d']}"
                                         for k in evaluate(f, model))))
        elif cmd == "classes":
            argv = ["--json", "classes", "-m", path, "--depth", "2"]
        elif cmd == "quotient":
            argv = ["--json", "quotient", "-m", path]
            expect["exit"] = 0 if facts["quotient_ok"] else 1
        elif cmd == "bisim_greatest":
            argv = ["--json", "bisim", "greatest", "-m", path, "-n", path]
        elif cmd == "bisim_check":
            rel = "dup" if model["dup"] else "diag"
            argv = ["--json", "bisim", "check", "-m", path, "-n", path, "-r", rel]
        elif cmd == "bisim_am":
            argv = ["--json", "bisim", "am", "-m", path, "-n", path, "-r", "diag"]
        elif cmd == "duality":
            argv = ["--json", "duality", "-m", path]
        expect.update(states=facts["states"], dup=facts["dup"],
                      classes=facts["classes"], quotient_ok=facts["quotient_ok"])
        ops.append({"key": f"{name}:{cmd}", "doc": name, "metric": cmd,
                    "argv": argv, "expect": expect})
    return ops


ALL_CLI = ("validate", "eval", "classes", "quotient", "bisim_greatest",
           "bisim_check", "bisim_am")


def build(workload: str, seed: int) -> tuple[dict, list]:
    """Documents (name -> JSON object) and the operation plan of one pass."""
    rng = random.Random(f"{workload}:{seed}")
    docs, ops = {}, []

    def add(name, model, commands):
        docs[name] = to_document(model)
        ops.extend(_cli_ops(name, model, rng, commands))

    if workload == "image":
        for i, (d, n, dup, kind, mods) in enumerate(IMAGE_LADDER):
            add(f"img{i}_d{d}n{n}",
                shaped_powerset_model(rng, d, n, dup, kind, mods, i % 2 == 0),
                ALL_CLI)
        for i, (d, spec) in enumerate(IMAGE_SOBER_FRAMES):
            add(f"sober{i}_d{d}", sober_model(rng, d, spec, "fuzzy-powerset"),
                ("duality",))
    elif workload == "closure":
        for i, (d, n, dup, target, explicit) in enumerate(CLOSURE_LADDER):
            add(f"top{i}_d{d}n{n}",
                identity_model(rng, d, n, dup, target, explicit), ALL_CLI)
        for i, (d, n, dup, target, explicit) in enumerate(DEFINABLE_LADDER):
            add(f"big{i}_d{d}n{n}",
                identity_model(rng, d, n, dup, target, explicit),
                ("classes", "quotient"))
        for i, (d, spec) in enumerate(SOBER_FRAMES):
            add(f"sober{i}_d{d}", sober_model(rng, d, spec, "identity"),
                ("duality",))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs, ops


def write(directory: str, workload: str, seed: int) -> str:
    """Write the documents and the plan under `directory`; returns the
    plan's path."""
    docs, ops = build(workload, seed)
    for name, doc in docs.items():
        with open(os.path.join(directory, name + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc, fh)
    plan = os.path.join(directory, "plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "ops": ops}, fh)
    return plan
