import numpy as np

import golden


def test_golden_hashes():
    want = golden.load()
    assert want["numpy"] == np.__version__, (
        "tests/golden_traces.json was made with numpy %s, this is numpy %s; "
        "regenerate it with tests/golden.py at a known-good commit"
        % (want["numpy"], np.__version__))
    got = golden.cases()
    assert sorted(got) == sorted(want["cases"])
    changed = golden.changes(want["cases"], got)  # case -> the hashes that differ
    assert not changed, "results changed in %d golden cases: %s" % (len(changed), changed)
