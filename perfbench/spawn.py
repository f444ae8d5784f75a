"""Starts the cli workload's calls from a small process.

The kernel counts a child's peak resident memory (``ru_maxrss``) from the
memory of the process that started it, so calls started from the worker,
which holds pvkit and numpy, would all read at least the worker's size.
``worker.py`` starts this helper, which imports little, and sends it one
command a line as a JSON list; for each it runs the command and answers
with a JSON list of exit code, standard output and standard error.  At the
end of its input it answers with the largest peak resident memory of the
commands, in KiB.
"""
import json
import resource
import subprocess
import sys

for line in sys.stdin:
    proc = subprocess.run(json.loads(line), capture_output=True, text=True, check=False)
    print(json.dumps([proc.returncode, proc.stdout, proc.stderr]), flush=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)
