"""The per-packet column dtypes, from the draw to the fold.

An :class:`~repro.traffic.batch.ArrivalBatch` holds slots and seqs as
int32, ports as uint8 and its stored VOQ ids as uint16 while the switch
is small enough (:func:`~repro.traffic.batch.column_types`, a function
of the port count and the slot horizon alone), and every vectorized
kernel keeps its :class:`~repro.sim.kernels.base.Departures` columns at
most four bytes wide.  Past the narrow sizes every column is int64, and
that wide fallback still matches the object engine exactly.

Under NumPy 2 a narrow column stays narrow in arithmetic with a Python
int (``uint8_array * 32`` wraps), which no N = 8 run can show: the N = 32
golden rows (``tests/test_golden_results.py``) pin the narrow results,
this module pins the dtypes themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import models
from repro.sim.experiment import run_single
from repro.sim.rng import traffic_rng
from repro.traffic.batch import (
    ArrivalBatch,
    BatchTrafficGenerator,
    ColumnTypes,
    column_types,
)
from repro.traffic.matrices import uniform_matrix

NARROW = ColumnTypes(np.int32, np.uint8, np.uint16)
WIDE = ColumnTypes(np.int64, np.int64, np.int64)
DEPARTURE_COLUMNS = (
    "voq", "seq", "arrival", "departure", "wire", "assembled", "tx",
)


def _generator(n: int, load: float = 0.9) -> BatchTrafficGenerator:
    return BatchTrafficGenerator(uniform_matrix(n, load), traffic_rng(1))


def _dtypes(batch: ArrivalBatch) -> ColumnTypes:
    assert batch.seqs.dtype == batch.slots.dtype
    assert batch.outputs.dtype == batch.inputs.dtype
    return ColumnTypes(
        batch.slots.dtype.type, batch.inputs.dtype.type, batch.voqs.dtype.type
    )


def test_column_types_narrow_to_the_run():
    assert column_types(8, 1_000) == NARROW
    assert column_types(32, 200_000) == NARROW
    assert column_types(256, 1_000) == NARROW
    assert column_types(257, 1_000) == WIDE._replace(slot=np.int32)
    assert column_types(32, 1 << 20).slot == np.int64


@pytest.mark.parametrize("n", [8, 32])
def test_drawn_batch_columns_are_narrow(n):
    batch = _generator(n).draw(600)
    assert _dtypes(batch) == NARROW
    wide = batch.inputs.astype(np.int64) * n + batch.outputs
    np.testing.assert_array_equal(batch.voqs, wide)
    for window in _generator(n).draw_chunks(600, 128):
        assert _dtypes(window) == NARROW


def test_replace_one_field_of_a_drawn_batch():
    batch = _generator(8).draw(300)
    assert len(batch) > 0
    moved = batch._replace(start_slot=300)
    assert (moved.start_slot, moved.end_slot) == (300, 600)
    assert moved.slots is batch.slots and moved.voqs is batch.voqs
    assert len(moved) == len(batch)


def test_of_narrows_given_columns():
    batch = ArrivalBatch.of(
        n=32, num_slots=4, slots=[0, 1, 3], inputs=[31, 0, 7],
        outputs=[31, 5, 0], seqs=[0, 0, 0],
    )
    assert _dtypes(batch) == NARROW
    assert batch.voqs.tolist() == [31 * 32 + 31, 5, 7 * 32]


@pytest.mark.parametrize("switch", models.available(engine="vectorized"))
def test_departure_columns_at_most_four_bytes(switch):
    matrix = uniform_matrix(32, 0.9)
    batch = _generator(32).draw(2_000)
    dep, _ = models.get(switch).kernel(batch, matrix, 1)
    assert len(dep) > 0
    for name in DEPARTURE_COLUMNS:
        column = getattr(dep, name)
        if column is not None:
            assert column.dtype.itemsize <= 4, (name, column.dtype)


@pytest.mark.parametrize("switch", models.available(engine="vectorized"))
def test_stream_departure_columns_at_most_four_bytes(switch):
    """Every fed window's record and the flush stay narrow too: the
    windowed replay and fabric stages run on these."""
    matrix = uniform_matrix(32, 0.9)
    stream = models.get(switch).stream_kernel(matrix, 1, 2_000)
    records = [
        stream.feed(window)
        for window in _generator(32).draw_chunks(2_000, 512)
    ]
    records.append(stream.finish()[0])
    assert sum(len(dep) for dep in records[:-1]) > 0
    for dep in records:
        for name in DEPARTURE_COLUMNS:
            column = getattr(dep, name)
            if column is not None:
                assert column.dtype.itemsize <= 4, (name, column.dtype)


@pytest.mark.parametrize("n", [256, 257])
def test_edge_and_wide_runs_match_the_object_engine(n):
    # 256 ports fill a uint8 port and a uint16 VOQ id to the top; 257
    # take the int64 fallback.
    matrix = uniform_matrix(n, 0.5)
    assert _dtypes(_generator(n, 0.5).draw(20)) == column_types(n, 20)
    runs = [
        run_single("load-balanced", matrix, 20, seed=1, engine=engine)
        for engine in ("vectorized", "object")
    ]
    assert runs[0].injected > 0
    assert runs[0].to_dict() == runs[1].to_dict()
