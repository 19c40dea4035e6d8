import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a child process, so the tracer's wrappers never reach other
# tests; the model files go to the child's working directory.
CHILD = """
import json
from pathlib import Path

import spans
import workloads

tracer = spans.Tracer()
spans.install(tracer, workloads)
tracer.round = 0
for name in ("pctl-ladder", "lmu-alternation"):
    work = Path(name)
    work.mkdir()
    for i, op in enumerate(workloads.build(name, 1, work)[:6]):
        tracer.op = i
        workloads.run_op(op)
print(json.dumps(tracer.metrics()))
"""


def test_traced_benchmark_wraps_the_current_library(tmp_path):
    # the traced benchmark wraps library functions by name; a rename in the
    # library must fail here rather than in `perfbench/run.py --trace 1`
    path = f"{ROOT / 'src'}:{ROOT / 'perfbench'}"
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    assert metrics["translator.translate_s"] > 0
    assert metrics["evaluator.eval_s"] > 0
