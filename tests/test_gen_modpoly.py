"""The generator of the shipped modular polynomial tables reproduces them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "gen_modpoly.py"
DATA = ROOT / "src" / "spinecycles" / "data"


def test_generator_reproduces_shipped_tables(tmp_path):
    subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], check=True, capture_output=True)
    for ell in (2, 3, 5, 7):
        name = f"phi{ell}.txt"
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_generator_checks_survive_optimize():
    # under python -O a bare assert would let a Phi_2 with a wrong coefficient through
    code = (
        "import runpy\n"
        f"gen = runpy.run_path({str(SCRIPT)!r})\n"
        "table = gen['phi_table'](2)\n"
        "table[(1, 1)] += 2\n"
        "try:\n"
        "    gen['_check'](2, table)\n"
        "except gen['TableCheckFailed'] as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], check=True, capture_output=True, text=True
    ).stdout
    assert out.strip() == "Phi_2 does not match the classical table"
