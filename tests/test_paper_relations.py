"""Exact relations the paper's rules imply between switches.

Sprinklers sizes each VOQ's stripe as F(r) = min(N, 2^ceil(log2(r N^2)))
(Equation 1).  Under uniform load rho every VOQ carries r = rho / N, so
r N^2 = rho N, and above rho = 0.5 every stripe is N wide.  Sprinklers
with full-width stripes everywhere *is* Uniform Frame Spreading: the same
seed must then give the same result, field for field, apart from the
switch's name and Sprinklers' own resize counter.  Below 0.5 the stripes
narrow and the two must differ.
"""

from __future__ import annotations

import pytest

from repro.core.striping import stripe_size_for_rate
from repro.sim.experiment import run_single
from repro.traffic.matrices import uniform_matrix


def _sprinklers_and_ufs(n, load, slots):
    matrix = uniform_matrix(n, load)
    return tuple(
        run_single(name, matrix, slots, seed=3, load_label=load).to_dict()
        for name in ("sprinklers", "ufs")
    )


def _without(data, *fields):
    return {k: v for k, v in data.items() if k not in fields}


@pytest.mark.parametrize("n, load, slots", [
    (8, 0.6, 3000),
    (8, 0.9, 3000),
    (16, 0.7, 2000),
    (32, 0.9, 2000),
])
def test_full_width_stripes_make_sprinklers_ufs(n, load, slots):
    assert stripe_size_for_rate(load / n, n) == n
    sprinklers, ufs = _sprinklers_and_ufs(n, load, slots)
    assert sprinklers["measured_packets"] > 0
    assert _without(sprinklers, "switch_name", "extras") == _without(
        ufs, "switch_name", "extras"
    )
    assert _without(sprinklers["extras"], "resizes") == ufs["extras"]


def test_narrower_stripes_differ_from_ufs():
    """The control: at load 0.4 and N=8 every stripe is 4 < N wide."""
    assert stripe_size_for_rate(0.4 / 8, 8) == 4
    sprinklers, ufs = _sprinklers_and_ufs(8, 0.4, 3000)
    assert sprinklers["mean_delay"] != ufs["mean_delay"]
