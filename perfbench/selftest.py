"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs every workload at a reduced size, one round and its CLI call, and
requires all checks to pass.  Then, for each check the run used, it
repeats the checks with that check's expected value corrupted (gamma_5 =
110, an r4 off by one, a CLI exit code of 1, ...) and requires the run to
report incorrect outputs.  Exits 1 if any of that fails.
"""

import random
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    bad = 0
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(random.Random(1), small=True)
        outputs, latencies, failed = run.run_round(
            wl.ops, range(len(wl.ops)), run.cache_clearers(), getattr(wl, "digest", None))
        code, stdout, _ = run.run_cli(wl.cli_argv)

        def checked(fault=None):
            chk = workloads.Checker(fault)
            chk.eq("repeat_rounds_agree", outputs, outputs)
            return run.check_outputs(wl, outputs, [(code, stdout)], chk)

        clean = checked()
        print(f"{name}: {len(wl.ops)} operations in {sum(latencies):.2f} s, "
              f"{failed} failed, {len(clean.names)} checks, correct={clean.correct}")
        for line in clean.failures[:5]:
            print(f"  unexpected failure: {line}")
        bad += failed + (not clean.correct)
        for fault in sorted(clean.names):
            caught = not checked(fault).correct
            print(f"  {'caught' if caught else 'MISSED'} wrong expected value in {fault}")
            bad += not caught
    print("self-test", "passed" if bad == 0 else f"FAILED ({bad} problems)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
