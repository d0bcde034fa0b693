"""Cold start: no command loads scipy.  The flat beta-binomial comparison and
exact curve answer from the Gram basis (the forward recurrence, the Hahn
difference equation, ``numerics.gammaln`` and ``numerics.logsumexp``), and
the Poisson-gamma family checks its truncation, builds its law, its Meixner
basis and its dense chain with the same two.

pytest itself imports scipy (through the test modules), so each check runs
in a fresh interpreter and reads its ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports gibbsrates, runs each argv given as a JSON list through cli.main,
# and prints, as JSON, the scipy modules loaded after the import and after
# each command; then, given a second argument, runs it as Python code and
# adds the modules loaded after it as "control".
PROBE = """
import contextlib, io, json, sys
import gibbsrates, gibbsrates.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = gibbsrates.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    loaded[" ".join(argv)] = scipy_modules()
if len(sys.argv) > 2:
    exec(sys.argv[2])
    loaded["control"] = scipy_modules()
print(json.dumps(loaded))
"""

SCIPY_FREE = [
    ["scan-compare", "--n", "50", "--decay-samples", "1000", "--seed", "1"],
    ["exact-tv", "--family", "bb", "--n", "10", "--start", "0", "--steps-max", "50"],
    ["rosenthal", "--n", "100"],
    ["spectral", "--levels", "--family", "bb", "--n", "2000"],
    ["simulate", "--decay", "--family", "bb", "--n", "100", "--scan", "random",
     "--start-x", "0", "--start-theta", "0", "--steps", "10",
     "--samples", "1000", "--seed", "3"],
]

POISSON_GAMMA = [
    ["pg-demo"],
    ["pg-demo", "--shape", "0.3", "--x-max", "1600"],
    ["exact-tv", "--family", "pg", "--start", "64", "--steps-max", "400"],
    ["spectral", "--levels", "--family", "pg"],
    ["simulate", "--family", "pg", "--scan", "random", "--start-x", "5",
     "--start-theta", "1", "--steps", "20"],
]


def probe(argvs, cwd, control=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)] + ([control] if control else []),
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_chain_free_commands_load_no_scipy(tmp_path):
    loaded = probe(SCIPY_FREE, tmp_path)
    assert list(loaded) == ["import"] + [" ".join(argv) for argv in SCIPY_FREE]
    assert all(modules == [] for modules in loaded.values()), loaded


def test_poisson_gamma_commands_load_no_scipy(tmp_path):
    # The family's truncation check, its law, its Meixner basis and its
    # dense chain take every log-gamma value from numerics.gammaln.  As a
    # positive control the probe then builds bb_xchain, the one function
    # (a test reference) that still imports scipy.special.
    loaded = probe(
        POISSON_GAMMA, tmp_path,
        control="gibbsrates.bb_xchain(gibbsrates.BetaBinomialFamily(n=2))",
    )
    assert list(loaded) == ["import"] + [" ".join(argv) for argv in POISSON_GAMMA] + ["control"]
    control = loaded.pop("control")
    assert all(modules == [] for modules in loaded.values()), loaded
    assert "scipy.special" in control


def test_the_gram_basis_loads_no_scipy_linalg(tmp_path):
    # The Gram basis comes from two recurrences and no dense eigensolve:
    # importing scipy.linalg (or any other scipy module) would add to every
    # cold comparison and curve.
    argvs = [
        ["scan-compare", "--n", "100"],
        ["exact-tv", "--family", "bb", "--n", "100", "--start", "0",
         "--steps-max", "400", "--target", "0.01"],
    ]
    loaded = probe(argvs, tmp_path)
    for argv in argvs:
        modules = loaded[" ".join(argv)]
        assert not [m for m in modules if m == "scipy.linalg" or m.startswith("scipy.linalg.")]
        assert modules == [], modules


def test_import_and_commands_load_no_fractions(tmp_path):
    # fractions (and with it decimal) serves only the exact binomial tails
    # and word multipliers, which no command evaluates; importing it cost
    # each cold process about 4 ms.
    code = (
        "import contextlib, io, sys, gibbsrates, gibbsrates.cli\n"
        "for argv in ([], ['scan-compare', '--n', '20', '--decay-samples', '1000'],"
        " ['words', '--len', '4']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        argv and gibbsrates.cli.main(argv)\n"
        "    print(sorted({'fractions', 'decimal', '_decimal'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]
