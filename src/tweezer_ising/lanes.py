"""One round loop for lanes: generators that yield requests and return values.

`run_lanes` hands each round's requests to one ``serve`` call, so the caller
can answer them with one stacked computation.  The Newton descents of
`crystal` are lanes, and a lone `solve_equilibrium` is a run of one lane.
The L-BFGS runs of `quasinewton` do not need it: their state is arrays
with one row per lane, and one function advances them all.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence


def run_lanes(lanes: Sequence[Generator], serve: Callable[[list], Sequence]) -> list:
    """Advance lanes in rounds until each returns; their values, in lane order.

    Each round hands the pending ``(lane index, request)`` pairs, in lane
    order, to one ``serve`` call, which returns one response per pair; each
    response is sent to its lane, or thrown into it if it is an exception.
    The first lane to raise, in lane order, propagates at once and leaves
    the later lanes where they were, as if the lanes ran one after another.
    No lanes means no ``serve`` call.
    """
    values: list = [None] * len(lanes)
    active, responses = range(len(lanes)), [None] * len(lanes)
    while active:
        pending = []
        for k, response in zip(active, responses, strict=True):
            lane = lanes[k]
            try:
                request = lane.throw(response) if isinstance(response, Exception) else lane.send(response)
            except StopIteration as done:
                values[k] = done.value
            else:
                pending.append((k, request))
        active = [k for k, _ in pending]
        responses = serve(pending) if pending else []
    return values
