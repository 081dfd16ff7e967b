"""perfbench's tracer wraps syguskit's functions by module attribute name, so
a rename under src/ breaks `perfbench/run.py --trace 1` before it runs a
pass. This installs the tracer on a fresh import and takes it off again."""

import subprocess
import sys
from pathlib import Path

PKG = Path(__file__).parent.parent

SCRIPT = """
import sys
sys.path[:0] = ["perfbench", "src"]
import run, tracing
sk = run.import_syguskit()
names = [(sk.enumerative, "falsified"), (sk.enumerative, "induced_bindings"),
         (sk.stochastic, "count_wrong"), (sk.cegis, "falsified")]
before = [getattr(m, a) for m, a in names]
tracer = tracing.Tracer()
tracing.install(tracer, sk)
assert all(getattr(m, a) is not f for (m, a), f in zip(names, before))
tracer.uninstall()
assert all(getattr(m, a) is f for (m, a), f in zip(names, before))
print("ok")
"""


def test_tracer_installs_and_uninstalls():
    r = subprocess.run([sys.executable, "-c", SCRIPT], cwd=PKG,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "ok"
