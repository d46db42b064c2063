"""The duality check on the join basis against the every-open check.

`duality_check` reads its five lines on the distinct primes and 0, and
names each point by its grades there. `every_open_duality` is the check
as it was before: each point named by its grades at every open, and each
line read on every open as a fuzzy set. Their reports must agree on every
sober space, and both must fail once eta swaps two states' points.
"""

import json

import pytest

from fgml import direct_image, duality_check, inverse_image, is_continuous, is_sober, make_lattice
from fgml.errors import NotSoberError
from fgml.frames import (
    DualityReport,
    FiniteFrame,
    _eta_lines,
    _point_space,
    _state_names,
    point_topology,
)
from fgml.fuzzyset import CarrierMap

from modelgen import crisp_discrete_document, identity_zoo, powerset_zoo
from test_frame_oracle import product_frame
from test_generated_space import _run

LINES = ("eta bijective", "eta fuzzy continuous", "eta open map",
         "eta image equals evaluation open", "eta pullback recovers each open")


def every_open_duality(space, swap: tuple[int, int] | None = None) -> DualityReport:
    """The duality check on every open: the points are the states'
    numerator tuples over the sorted opens, and eta sends each state to
    its tuple, or, with `swap`, the two states swap their tuples."""
    if not is_sober(space):
        raise NotSoberError("duality_check requires a sober space")
    opens = space.sorted_opens()
    states = list(zip(*(o.key() for o in opens)))
    if swap is not None:
        i, j = swap
        states[i], states[j] = states[j], states[i]
    evaluation, point_space = _point_space(opens, sorted(states), space.lattice)
    eta = CarrierMap(space.carrier, point_space.carrier, tuple(states))
    return DualityReport((
        ("eta bijective", True),
        ("eta fuzzy continuous", is_continuous(eta, space, point_space)),
        ("eta open map",
         all(point_space.is_open(direct_image(eta, o).bits) for o in space.opens)),
        ("eta image equals evaluation open",
         all(direct_image(eta, o) == evaluation[o] for o in space.opens)),
        ("eta pullback recovers each open",
         all(inverse_image(eta, evaluation[o]) == o for o in space.opens)),
    ))


def _swapped(space, i: int, j: int) -> DualityReport:
    """The join-basis lines for eta with the points of states i and j swapped."""
    basis, names = _state_names(space)
    names[i], names[j] = names[j], names[i]
    return _eta_lines(space, basis, names)


def _spaces():
    spaces = [m.space for m, _ in powerset_zoo(3) + identity_zoo(5, dens=(1, 2, 3))]
    frames = [FiniteFrame.chain(tuple(range(n))) for n in range(2, 8)]
    frames += [product_frame(m, n) for m, n in ((2, 2), (2, 3), (2, 4), (3, 3))]
    spaces += [point_topology(frame, make_lattice(d)) for frame in frames for d in (1, 2, 3)]
    return spaces


def test_join_basis_lines_match_every_open():
    sober = swapped = 0
    for space in _spaces():
        if not is_sober(space):
            with pytest.raises(NotSoberError):
                duality_check(space)
            continue
        report = duality_check(space)
        assert report.items == every_open_duality(space).items
        assert report.passed and tuple(name for name, _ in report.items) == LINES
        sober += 1
        if len(space.carrier) > 1:  # eta with the first and last states' points swapped
            mutated = _swapped(space, 0, len(space.carrier) - 1)
            assert mutated.items == every_open_duality(space, (0, len(space.carrier) - 1)).items
            assert not mutated.passed
            swapped += 1
    assert sober > 30 and swapped > 20


def test_duality_answers_on_the_crisp_discrete_space_at_64_states(tmp_path):
    # 2^64 opens: the default guard admits 4096, so no open is closed
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(crisp_discrete_document(64)))
    assert _run(["duality", "-m", str(path)]) == \
        (0, "".join(f"{line}: PASS\n" for line in LINES), "")
