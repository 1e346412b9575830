"""The qualitative shape of the paper's Figures 6 and 7.

Paper §6 plots mean delay against load for five switches under uniform
(Fig. 6) and diagonal (Fig. 7) traffic.  At a reduced scale (N=16,
8 000 slots, loads 0.1 / 0.5 / 0.9) these relations hold on every seed
checked (0, 1 and 2; EXPERIMENTS.md, "Paper shapes in tier-1"):

* only the baseline load-balanced switch reorders, and at load 0.9 it
  does (§1: reordering is what the other four exist to avoid);
* the baseline is the lower delay envelope at every load;
* at load 0.1 Sprinklers' rate-proportional stripes beat UFS's full
  frames by far more than 2x on both patterns (§3.1; measured
  Sprinklers/UFS 0.086-0.088 uniform, 0.112-0.114 diagonal);
* UFS improves with load under uniform traffic: its full frames fill
  faster (5.4-5.6x lower delay at 0.9 than at 0.1).

Sprinklers' own curve is not monotone at this scale (94, 208, 140, 217,
199 slots across loads 0.1-0.9 under uniform traffic), so no flatness
is pinned.
"""

from __future__ import annotations

import pytest

from repro.figures.delay_figures import generate

N, SLOTS, SEED = 16, 8000, 0
LOADS = (0.1, 0.5, 0.9)
LIGHT, HEAVY = LOADS[0], LOADS[-1]
PATTERNS = ("uniform", "diagonal")
ORDER_PRESERVING = ("ufs", "foff", "pf", "sprinklers")


@pytest.fixture(scope="module")
def sweeps():
    """``{pattern: {(switch, load): row}}``, one sweep per pattern, no store."""
    return {
        pattern: {
            (row["switch"], row["load"]): row
            for row in generate(
                pattern, n=N, loads=LOADS, num_slots=SLOTS, seed=SEED
            )
        }
        for pattern in PATTERNS
    }


@pytest.mark.parametrize("pattern", PATTERNS)
def test_only_the_baseline_reorders(sweeps, pattern):
    table = sweeps[pattern]
    assert len(table) == 5 * len(LOADS)
    for (switch, load), row in table.items():
        assert row["measured"] > 0, (switch, load)
        if switch != "baseline-lb":
            assert row["late_packets"] == 0, (switch, load)
    assert table[("baseline-lb", HEAVY)]["late_packets"] > 0


@pytest.mark.parametrize("pattern", PATTERNS)
def test_baseline_is_the_lower_delay_envelope(sweeps, pattern):
    table = sweeps[pattern]
    for load in LOADS:
        base = table[("baseline-lb", load)]["mean_delay"]
        for switch in ORDER_PRESERVING:
            assert base < table[(switch, load)]["mean_delay"], (switch, load)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_sprinklers_beats_full_frames_at_light_load(sweeps, pattern):
    table = sweeps[pattern]
    sprinklers = table[("sprinklers", LIGHT)]["mean_delay"]
    ufs = table[("ufs", LIGHT)]["mean_delay"]
    assert sprinklers < 0.5 * ufs


def test_ufs_improves_with_load_under_uniform_traffic(sweeps):
    table = sweeps["uniform"]
    assert table[("ufs", LIGHT)]["mean_delay"] > table[("ufs", HEAVY)]["mean_delay"]
