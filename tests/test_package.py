import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.signal and scipy.stats take over a second to import, and NumPy
    # is magrev's only runtime dependency: no SciPy module may load
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import magrev; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
