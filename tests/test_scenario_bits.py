"""Float-bit drift guard: the shipped scenarios' ε, digit for digit.

A stage-1 cell keeps the restart with the lowest ε, so a kernel edit that
moves the last bits of ε or of its gradient can pick another pattern and
move the final ε by far more than rounding.  These values were measured
with numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64 and are tied to that numpy
and BLAS.  A change that moves ε on purpose updates them in the same
commit, together with the ε values `perfbench` pins at its default seeds.
"""

import pytest

from tweezer_ising.scenarios import frustrated_ladder_12, nn_chain_12, run_scenario, triangular_af_19

EXPECTED = {
    "nn_chain_12": (nn_chain_12, "0.028544842579508123"),
    "triangular_af_19": (triangular_af_19, "0.18750803552224882"),
    "frustrated_ladder_12": (frustrated_ladder_12, "0.3510061491719684"),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fast_scenario_epsilon_bits(name):
    factory, expected = EXPECTED[name]
    assert repr(run_scenario(factory(fast=True)).epsilon) == expected
