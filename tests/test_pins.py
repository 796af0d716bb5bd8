import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__

import pins
import steinradar


@pytest.mark.parametrize("pin", pins.SETS, ids=lambda pin: pin.name)
def test_pin_set(pin):
    # every row of the set recorded for this host's kernels, key and value: a
    # moved bit is a changed result, to be made on purpose with `python -m pins`
    path = pin.path()
    if pin.kernels and not path.exists():
        recorded = [p.name for p in sorted(path.parents[1].iterdir()) if (p / pin.name).exists()]
        pytest.skip(f"no {pin.name} for kernel fingerprint {pins.fingerprint()} (numpy "
                    f"{np.__version__}); recorded for {', '.join(recorded) or 'none'}")
    rows, want = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")], pin.lines()
    assert len(rows) == len(want)
    assert [(row, new) for row, new in zip(rows, want) if row != new] == []


def test_fingerprint_moves_with_pinned_values():
    # child interpreters on other kernels: numpy's AVX2 dispatch, OpenBLAS's
    # Haswell kernels, and both.  A child whose sample of the kernel-dependent
    # sets reads other bits than this process must read another fingerprint.
    # On an AVX-512 host each variable moves rows of the sample: 26
    # third_moment rows and 12 nb = 10 oracle rows under the first, 7 oracle
    # rows under the second
    sets = {pin.name: pin for pin in pins.SETS}
    sample = {"third_moment_hex.csv": sets["third_moment_hex.csv"].keys,
              "spectral_oracle_hex.csv": sets["spectral_oracle_hex.csv"].keys[:20],
              "cli_json_sha256.csv": sets["cli_json_sha256.csv"].keys[:1]}
    script = ("import json, sys, pins\nsets = {pin.name: pin for pin in pins.SETS}\n"
              "print(json.dumps([pins.fingerprint(), {name: [sets[name].value(k) for k in keys]"
              " for name, keys in json.loads(sys.argv[1]).items()}]))")
    avx2 = {"NPY_DISABLE_CPU_FEATURES": " ".join(
        t for t in ("AVX512_SPR", "AVX512_ICL", "X86_V4") if t in __cpu_dispatch__)}
    haswell = {"OPENBLAS_CORETYPE": "Haswell"}
    path = os.pathsep.join([str(Path(steinradar.__file__).parents[1]), str(Path(pins.__file__).parent),
                            os.environ.get("PYTHONPATH", "")])
    children = [subprocess.Popen([sys.executable, "-c", script, json.dumps(sample)],
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                                 env={**os.environ, **env, "PYTHONPATH": path})
                for env in (avx2, haswell, {**avx2, **haswell})]
    here = {name: [sets[name].value(k) for k in keys] for name, keys in sample.items()}
    for child in children:
        out = child.communicate(timeout=60)[0]
        assert child.returncode == 0
        fingerprint, values = json.loads(out)
        assert values == here or fingerprint != pins.fingerprint()
