"""`lanes.run_lanes`, the round loop of the equilibrium lanes."""

import inspect

import numpy as np
import pytest

from tweezer_ising.crystal import default_chain_guess, relax_equilibria, solve_equilibrium
from tweezer_ising.lanes import run_lanes


def _counter(start, stop, log):
    """A lane that asks for stop - start squares and returns their sum;
    ``log`` collects each value it sees or error it catches."""
    total = 0
    for x in range(start, stop):
        try:
            total += yield x
        except ValueError as err:
            log.append(str(err))
            return "caught"
    return total


def _squares(rounds):
    """A server that squares each request and records each round's pairs."""

    def serve(pending):
        rounds.append(list(pending))
        return [x * x for _, x in pending]

    return serve


def test_lanes_finishing_in_different_rounds_return_in_lane_order():
    rounds, log = [], []
    lanes = [_counter(0, 3, log), _counter(10, 11, log), _counter(5, 5, log), _counter(1, 3, log)]
    assert run_lanes(lanes, _squares(rounds)) == [0 + 1 + 4, 100, 0, 1 + 4]
    # a lane that returns at once never reaches serve; each round lists
    # the pending lanes in lane order
    assert rounds == [[(0, 0), (1, 10), (3, 1)], [(0, 1), (3, 2)], [(0, 2)]]
    assert log == []


def test_no_lanes_means_no_serve_call():
    def serve(pending):
        raise AssertionError("no lane, no round")

    assert run_lanes([], serve) == []


def test_exception_response_is_thrown_into_its_lane():
    log = []
    lanes = [_counter(0, 3, log), _counter(0, 3, log)]

    def serve(pending):
        return [ValueError(f"lane {k}") if k == 1 else x for k, x in pending]

    assert run_lanes(lanes, serve) == [0 + 1 + 2, "caught"]
    assert log == ["lane 1"]


def test_first_raising_lane_propagates_and_later_lanes_stay_put():
    def lane(fail_at):
        for x in range(3):
            value = yield x
            if x == fail_at:
                raise KeyError(f"lane failing at {fail_at}")
        return value

    lanes = [lane(None), lane(1), lane(0), lane(None)]
    rounds = []
    with pytest.raises(KeyError, match="failing at 0"):
        run_lanes(lanes, _squares(rounds))
    # lane 2 raised in the first round, before lane 3 got its response
    assert len(rounds) == 1
    states = [inspect.getgeneratorstate(g) for g in lanes]
    assert states == [inspect.GEN_SUSPENDED, inspect.GEN_SUSPENDED, inspect.GEN_CLOSED, inspect.GEN_SUSPENDED]
    assert [g.gi_frame.f_locals["x"] for g in (lanes[0], lanes[1], lanes[3])] == [1, 1, 0]


def test_unanswered_exception_propagates_from_its_lane():
    log = []

    def serve(pending):
        return [RuntimeError("not caught") for _ in pending]

    with pytest.raises(RuntimeError, match="not caught"):
        run_lanes([_counter(0, 2, log)], serve)
    assert log == []


def test_serve_must_answer_every_pending_lane():
    with pytest.raises(ValueError):
        run_lanes([_counter(0, 2, []), _counter(0, 2, [])], lambda pending: [0])


def test_relax_lane_served_coincident_ions_returns_none(species, chain_trap):
    guess = default_chain_guess(chain_trap, species)
    coincident = guess.copy()
    coincident[1] = coincident[0]
    relaxed = relax_equilibria(chain_trap, species, np.stack([guess, coincident, guess]))
    assert relaxed[1] is None
    (alone,) = relax_equilibria(chain_trap, species, guess[None])
    assert relaxed[0].tobytes() == alone.tobytes() == relaxed[2].tobytes()
    solved = solve_equilibrium(chain_trap, species, chain_trap.n_ions, guess)
    assert alone.tobytes() == solved.positions.tobytes()
