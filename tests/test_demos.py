import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# sha256 of each demo's stdout with the temporary registry directory
# masked; the demos print exact results, so any change shows here
DEMO_DIGESTS = {
    "derive_genus1_equation.py": "f950677517f90703f2ae2ef745e9e456fc45b65857ec372940fe5a28c296b9c6",
    "operator_gallery.py": "849bbf2150770fff7d39ba94f6fa2e9c73c475339a61c35e3a9dc84cf0288609",
    "recursion_and_wdvv.py": "f410d9c5f06c40015641afdc15412efb18304fab1361ff215bdab0a5ed673f84",
    "registry_and_induced.py": "3bde2ca163e91003b0a35c9f6f504d308df40951c8285e4311effc142d14ac44",
    "tour_of_graphs.py": "4d91cbe8f76afb80a3815e5dcdb03d058d92721ad3957ecb48ec64dd1fc88705",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_output_golden(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = re.sub(r"\S*taut-registry-[^/\s]*", "<registry>", proc.stdout)
    assert hashlib.sha256(out.encode()).hexdigest() == DEMO_DIGESTS[script.name]
