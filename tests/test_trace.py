"""IterateTrace's columns against the per-row dicts they replace, and who builds traces."""

import ast
import math
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexkit
from convexkit.core import CapabilityError, InvalidInput, IterateTrace, record


class DictTrace:
    """The reference: one dict (plus a custom dict) per row, formatted row by row."""

    def __init__(self, f_star=None):
        self.f_star = f_star
        self.records = []

    def add(self, it, value, grad_norm=None, **custom):
        if self.records and it <= self.records[-1]["iter"]:
            raise InvalidInput("trace iterations must be strictly increasing")
        gap = None if self.f_star is None else value - self.f_star
        self.records.append({"iter": int(it), "value": float(value), "gap": gap,
                             "grad_norm": None if grad_norm is None else float(grad_norm),
                             "custom": custom})

    def custom(self, key):
        return np.array([r["custom"].get(key, math.nan) for r in self.records], dtype=float)

    def to_csv(self):
        def fmt(v):
            return "" if v is None else format(v, ".17g")

        return "iter,value,gap,grad_norm,time_s\n" + "".join(
            "%d,%s,%s,%s,0\n" % (r["iter"], fmt(r["value"]), fmt(r["gap"]), fmt(r["grad_norm"]))
            for r in self.records)


KEYS = ("raw", "avg_value", "feasible")
NUMBERS = st.one_of(st.floats(width=64),
                    st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.0 / 3.0]))
ROWS = st.lists(st.tuples(st.integers(-2, 3),  # iteration step; <= 0 is out of order
                          NUMBERS, st.one_of(st.none(), NUMBERS),
                          st.dictionaries(st.sampled_from(KEYS), NUMBERS)),
                max_size=40)


def _bits(v):
    """A cell as comparable bytes: None stays None, a number keeps its sign and NaN."""
    return None if v is None else v if isinstance(v, int) else struct.pack("<d", v)


def _row(r):
    return {k: ({c: _bits(x) for c, x in v.items()} if k == "custom" else _bits(v))
            for k, v in r.items()}


@settings(max_examples=200, deadline=None)
@given(f_star=st.one_of(st.none(), st.floats(-1e6, 1e6)), rows=ROWS)
def test_columns_match_the_per_row_dicts(f_star, rows):
    tr, ref = IterateTrace(f_star, rows=len(rows)), DictTrace(f_star)
    it = 0
    for step, value, grad_norm, custom in rows:
        it += step
        if ref.records and it <= ref.records[-1]["iter"]:
            for t in (tr, ref):
                with pytest.raises(InvalidInput):
                    t.add(it, value, grad_norm, **custom)
            continue
        tr.add(it, value, grad_norm, **custom)
        ref.add(it, value, grad_norm, **custom)
    assert len(tr) == len(ref.records)
    assert tr.to_csv() == ref.to_csv()
    for key in KEYS + ("absent",):
        assert tr.custom(key).tobytes() == ref.custom(key).tobytes()
    assert tr.custom_keys() == sorted({k for r in ref.records for k in r["custom"]})
    assert [_row(r) for r in tr.records] == [_row(r) for r in ref.records]


def _csv_per_cell(iters, values, f_star, grad_norms):
    """The CSV formatted a cell at a time; a grad norm of None is an absent cell."""
    def fmt(v):
        return "" if v is None else format(v, ".17g")

    return "iter,value,gap,grad_norm,time_s\n" + "".join(
        "%d,%s,%s,%s,0\n" % (it, fmt(v), fmt(None if f_star is None else v - f_star), fmt(g))
        for it, v, g in zip(iters, values, grad_norms))


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
           1e308, -1e308, 1.0 / 3.0, 0.1, -2.5e-17, 123456789.0]


@pytest.mark.parametrize("rows, f_star, present", [
    (rows, f_star, present) for rows in (1, 2, 40) for f_star in (None, 0.0, -1.0 / 3.0)
    for present in ("all", "none", "some")] + [(200001, -1.0 / 3.0, "some")])
def test_to_csv_matches_the_per_cell_formatter(rows, f_star, present):
    rng = np.random.default_rng(rows)
    pool = np.array(SPECIAL + list(rng.normal(size=50) * 10.0 ** rng.integers(-300, 300, 50)))
    values = pool[rng.integers(len(pool), size=rows)].tolist()
    norms = pool[rng.integers(len(pool), size=rows)].tolist()
    has = {"all": [True] * rows, "none": [False] * rows,
           "some": [n % 3 != 1 for n in range(rows)]}[present]
    grad_norms = [g if h else None for g, h in zip(norms, has)]
    iters = [2 * n + 1 for n in range(rows)]
    tr = IterateTrace(f_star, rows=rows)
    for it, v, g in zip(iters, values, grad_norms):
        tr.add(it, v, g, raw=v)
    assert tr.to_csv() == _csv_per_cell(iters, values, f_star, grad_norms)


def test_add_refuses_an_iteration_that_does_not_increase():
    tr = IterateTrace(rows=4)
    tr.add(0, 1.0)
    tr.add(5, 2.0)
    for it in (5, 4, 0, -1):
        with pytest.raises(InvalidInput, match="strictly increasing"):
            tr.add(it, 3.0, 1.0, raw=1.0)
    assert len(tr) == 2 and tr.custom_keys() == [] and list(tr.iters()) == [0, 5]
    tr.add(6, 3.0)
    assert list(tr.iters()) == [0, 5, 6]
    one = IterateTrace(rows=2)
    one.add(-3, 1.0)  # the first row takes any iteration
    with pytest.raises(InvalidInput):
        one.add(-3, 1.0)


def test_records_write_through_to_the_columns():
    tr = IterateTrace(f_star=1.0, rows=2)
    tr.add(0, 3.0, 0.5, avg_value=2.0)
    tr.add(1, 2.0)
    first, last = tr.records[0], tr.records[-1]
    assert first == {"iter": 0, "value": 3.0, "gap": 2.0, "grad_norm": 0.5,
                     "custom": {"avg_value": 2.0}}
    assert last["grad_norm"] is None and "avg_value" not in last["custom"]
    last["value"] += 10.0
    last["gap"] += 10.0
    first["custom"]["avg_value"] += 10.0
    first["grad_norm"] = None
    assert list(tr.values()) == [3.0, 12.0] and list(tr.gaps()) == [2.0, 11.0]
    assert list(tr.custom("avg_value")[:1]) == [12.0]
    assert tr.to_csv().splitlines()[1:] == ["0,3,2,,0", "1,12,11,,0"]
    with pytest.raises(KeyError):
        last["custom"]["avg_value"] = 1.0  # row 1 has no avg_value cell


def test_batch_rows_and_seed_views():
    tr = IterateTrace(f_star=0.0, rows=2, seeds=3)
    tr.add(0, np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]), raw=np.zeros(3))
    tr.add(1, np.array([0.5, 1.0, 1.5]))
    tr.final_point = np.eye(3)
    assert tr.values().shape == (2, 3) and list(tr.final_gap()) == [0.5, 1.0, 1.5]
    one = tr.trace(1)
    assert one.to_csv().splitlines()[1:] == ["0,2,2,0.20000000000000001,0", "1,1,1,,0"]
    assert list(one.custom("raw")[:1]) == [0.0] and math.isnan(one.custom("raw")[1])
    assert list(one.final_point) == [0.0, 1.0, 0.0]
    with pytest.raises(CapabilityError):
        tr.to_csv()


def test_record_trace_memory_is_columns_not_dicts():
    # the rows of check 05's reference solve: 200,001 at d = 5, each with a
    # grad norm and a "raw" value; a dict and a custom dict per row held about
    # 96 MB. The generator takes no step, so the test times only the trace.
    point = np.ones(5)

    def iterates(x):
        while True:
            yield point, 1.0, 2.0, {"raw": 3.0}

    tracemalloc.start()
    try:
        trace = record(iterates, point, 200000, None)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 200001
    assert held < 10e6, held


# record, record_rows, the seed view, and the two traces that record cannot
# build: the ellipsoid's best-so-far value (inf before a feasible point) and one
# row per budget in the rates suite
TRACE_BUILDERS = {"core.record", "core.record_rows", "core.IterateTrace.trace",
                  "nonsmooth.run_ellipsoid", "cli._rate_rows"}


def _trace_builders(tree, scope):
    """Qualified names of the functions under tree that call IterateTrace(...)."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + "." + node.name
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "IterateTrace":
                found.add(scope)
        found |= _trace_builders(node, inner)
    return found


def test_only_record_and_two_hand_loops_build_traces():
    found = set()
    for path in sorted(pathlib.Path(convexkit.__file__).parent.glob("*.py")):
        found |= _trace_builders(ast.parse(path.read_text()), path.stem)
    assert "core.record" in found  # the walk sees record's own trace
    assert found <= TRACE_BUILDERS, "solver loops building their own trace: %s" % sorted(
        found - TRACE_BUILDERS)
