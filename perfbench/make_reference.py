"""Write the reference output of every canonical job: perfbench/reference/<workload>.json.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout at the commit whose outputs become the
references.  Each job runs once, untransformed, in its own process; a job
whose own output breaks a correctness rule stops the script, because a
workload must consist of jobs that succeed.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run
import workloads


def main(names) -> int:
    env = run.child_env()
    for workload in names or sorted(workloads.WORKLOADS):
        workdir = run.ROOT / ".perfbench_work" / "reference"
        shutil.rmtree(workdir, ignore_errors=True)
        refs, total = {}, 0.0
        for slot in workloads.slots(workload):
            for variant in slot:
                job = workloads.materialize(variant)
                workloads.write_inputs([job], workdir)
                out = run.run_job(job, workdir, env)
                ref = {"exit": out.exit, "stdout": out.stdout.decode()}
                found = check.problems(job.cmd, ref["stdout"], out.exit, ref)
                if found or out.exit not in (0, 2):
                    print(f"{variant.key}: exit {out.exit} {found}", file=sys.stderr)
                    return 1
                refs[variant.key] = ref
                total += out.seconds
                print(f"{workload} {variant.key} {out.seconds:.3f} s {out.rss_mb:.1f} MB "
                      f"exit {out.exit}: {' '.join(job.argv)[:100]}", flush=True)
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(refs)} references, {total:.1f} s of jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
