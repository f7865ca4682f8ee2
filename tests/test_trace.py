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
from convexkit.core import CapabilityError, IterateTrace, record


class DictTrace:
    """The reference: one dict (plus a custom dict) per row, formatted row by row.

    Row n is iteration n. A cell that a row does not give reads NaN; a
    grad_norm or custom key that no row gives is absent.
    """

    def __init__(self, f_star=None):
        self.f_star = f_star
        self.records = []

    def add(self, value, grad_norm=None, **custom):
        gap = None if self.f_star is None else value - self.f_star
        self.records.append({"iter": len(self.records), "value": float(value), "gap": gap,
                             "grad_norm": None if grad_norm is None else float(grad_norm),
                             "custom": custom})

    def custom(self, key):
        return np.array([r["custom"].get(key, math.nan) for r in self.records], dtype=float)

    def rows(self):
        """The rows as the trace's columns read them: a cell that a row does not
        give is NaN, and grad_norm is None when no row gives one."""
        keys = {k for r in self.records for k in r["custom"]}
        some_grad_norm = any(r["grad_norm"] is not None for r in self.records)
        return [dict(r, grad_norm=math.nan if r["grad_norm"] is None and some_grad_norm
                     else r["grad_norm"],
                     custom={k: r["custom"].get(k, math.nan) for k in keys})
                for r in self.records]

    def to_csv(self):
        rows = self.rows()

        def fmt(v):
            return "" if v is None else format(v, ".17g")

        return "iter,value,gap,grad_norm,time_s\n" + "".join(
            "%d,%s,%s,%s,0\n" % (r["iter"], fmt(r["value"]), fmt(r["gap"]), fmt(r["grad_norm"]))
            for r in rows)


KEYS = ("raw", "avg_value", "feasible")
NUMBERS = st.one_of(st.floats(width=64),
                    st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.0 / 3.0]))
ROWS = st.lists(st.tuples(NUMBERS, st.one_of(st.none(), NUMBERS),
                          st.dictionaries(st.sampled_from(KEYS), NUMBERS)),
                max_size=40)


def _bits(v):
    """A cell as comparable bytes: None stays None, a number keeps its sign and NaN."""
    return None if v is None else v if isinstance(v, int) else struct.pack("<d", v)


@settings(max_examples=200, deadline=None)
@given(f_star=st.one_of(st.none(), st.floats(-1e6, 1e6)), rows=ROWS)
def test_columns_match_the_per_row_dicts(f_star, rows):
    tr, ref = IterateTrace(f_star, rows=len(rows)), DictTrace(f_star)
    for value, grad_norm, custom in rows:
        tr.add(value, grad_norm, **custom)
        ref.add(value, grad_norm, **custom)
    assert len(tr) == len(ref.records)
    assert list(tr.iters()) == list(range(len(rows)))
    assert tr.to_csv() == ref.to_csv()
    for key in KEYS + ("absent",):
        assert tr.custom(key).tobytes() == ref.custom(key).tobytes()
    assert tr.custom_keys() == sorted({k for r in ref.records for k in r["custom"]})
    rows = ref.rows()
    gaps = tr.gaps()
    assert [_bits(v) for v in tr.values().tolist()] == [_bits(r["value"]) for r in rows]
    assert (None if gaps is None else [_bits(v) for v in gaps.tolist()]) == (
        None if f_star is None else [_bits(r["gap"]) for r in rows])
    assert [_bits(v) for v in tr.grad_norms().tolist()] == [
        _bits(math.nan if r["grad_norm"] is None else r["grad_norm"]) for r in rows]


def _csv_per_cell(values, f_star, grad_norms):
    """The CSV formatted a cell at a time; a grad norm of None is an absent cell,
    which prints nan, or "" when no row has a grad norm."""
    none = all(g is None for g in grad_norms)

    def fmt(v):
        return "" if v is None else format(v, ".17g")

    return "iter,value,gap,grad_norm,time_s\n" + "".join(
        "%d,%s,%s,%s,0\n" % (n, fmt(v), fmt(None if f_star is None else v - f_star),
                             fmt(None if none else math.nan if g is None else g))
        for n, (v, g) in enumerate(zip(values, grad_norms)))


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
    tr = IterateTrace(f_star, rows=rows)
    for v, g in zip(values, grad_norms):
        tr.add(v, g, raw=v)
    assert tr.to_csv() == _csv_per_cell(values, f_star, grad_norms)


def test_records_write_through_to_the_columns():
    # the row view is a dict of one-cell views of the columns: value, gap and custom
    tr = IterateTrace(f_star=1.0, rows=2)
    tr.add(3.0, 0.5, avg_value=2.0)
    tr.add(2.0)
    assert len(tr.records) == 2
    first, last = tr.records[0], tr.records[-1]
    assert set(first) == {"value", "gap", "custom"} and set(first["custom"]) == {"avg_value"}
    assert first["value"].tolist() == [3.0] and first["gap"].tolist() == [2.0]
    assert first["custom"]["avg_value"].tolist() == [2.0]
    assert math.isnan(last["custom"]["avg_value"][0])  # row 1 gives no avg_value: it reads NaN
    last["value"] += 10.0
    last["gap"] += 10.0  # a copy of value - f_star: nothing else sees it
    first["custom"]["avg_value"] += 10.0
    assert list(tr.values()) == [3.0, 12.0] and list(tr.gaps()) == [2.0, 11.0]
    assert tr.custom("avg_value")[0] == 12.0 and math.isnan(tr.custom("avg_value")[1])
    assert tr.to_csv().splitlines()[1:] == ["0,3,2,0.5,0", "1,12,11,nan,0"]
    bare = IterateTrace(rows=1)
    bare.add(1.0)  # no f_star and no grad_norm: gap is None, and empty cells
    row = bare.records[0]
    assert row["value"].tolist() == [1.0] and row["gap"] is None and row["custom"] == {}
    assert bare.to_csv().splitlines()[1:] == ["0,1,,,0"]
    batch = IterateTrace(rows=1, seeds=2)
    batch.add(np.zeros(2))
    with pytest.raises(CapabilityError):
        batch.records[-1]


def test_batch_rows_and_seed_views():
    tr = IterateTrace(f_star=0.0, rows=2, seeds=3)
    tr.add(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3]), raw=np.zeros(3))
    tr.add(np.array([0.5, 1.0, 1.5]))
    tr.final_point = np.eye(3)
    assert tr.values().shape == (2, 3) and list(tr.final_gap()) == [0.5, 1.0, 1.5]
    one = tr.trace(1)
    assert one.to_csv().splitlines()[1:] == ["0,2,2,0.20000000000000001,0", "1,1,1,nan,0"]
    assert list(one.custom("raw")[:1]) == [0.0] and math.isnan(one.custom("raw")[1])
    assert list(one.final_point) == [0.0, 1.0, 0.0]
    with pytest.raises(CapabilityError):
        tr.to_csv()


def test_record_trace_memory_is_columns_not_dicts():
    # the rows of a recorded run_psd_strong as long as check 05's reference
    # solve (which runs points only and keeps no rows): 200,001 at d = 5, each
    # with a grad norm and a "raw" value; a dict and a custom dict per row held
    # about 96 MB. Three float columns are 24 bytes a row (4.8 MB); an iteration
    # column and two presence flags beside them made 34 (6.8 MB). The
    # generator takes no step, so the test times only the trace.
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
    assert held < 5.5e6, held


# record, and the seed view of a batch that record built
TRACE_BUILDERS = {"core.record", "core.IterateTrace.trace"}


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


def test_only_record_and_the_seed_view_build_traces():
    found = set()
    for path in sorted(pathlib.Path(convexkit.__file__).parent.glob("*.py")):
        found |= _trace_builders(ast.parse(path.read_text()), path.stem)
    # equal, not a subset: the walk must see record's and trace(s)'s own traces
    assert found == TRACE_BUILDERS, "traces built outside record: %s" % sorted(
        found - TRACE_BUILDERS)
