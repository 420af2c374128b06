"""Record bench/reference.json: the reference figures the output checks
compare against, computed at the reference seed by the code under test.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are trusted; the figures then
pin that commit's results for every later run of the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile

from worker import ROOT, import_program


def report_figures(report: dict) -> dict:
    return {key: report[key] for key in ("solves", "failed_solves", "error_2d_m", "error_3d_m")}


def main() -> int:
    import_program()
    from workloads import REFERENCE_PATH, REFERENCE_SEED, FitSelect, PresetSweep, ScaledDiversity

    reference = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        sweep = PresetSweep(REFERENCE_SEED, workdir)
        sweep.setup()
        reference["preset-sweep"] = {
            preset: report_figures(report) for preset, report in sweep.reference_reports().items()
        }
        scaled = ScaledDiversity(REFERENCE_SEED, workdir)
        scaled.setup()
        if scaled.op(0) != 0:
            raise SystemExit("scaled-diversity study failed")
        reference["scaled-diversity"] = report_figures(scaled.artifacts()[2])
        fit = FitSelect(REFERENCE_SEED, workdir)
        fit.setup()
        reference["fit-select"] = fit.reference_rankings()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as out:
        json.dump(reference, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
