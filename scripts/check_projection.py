#!/usr/bin/env python3
"""Projection-regression smoke over fig9 --json reports.

Guards the indexed projection engine (DESIGN.md #9) against
regressions:

* the `project` phase must stay a bounded share of with-fields wall
  time, aggregated across workloads (per-workload quick-mode walls are
  ~20 ms and too noisy to gate individually). Before the indexed
  engine the share was ~0.52; it now measures ~0.33-0.39. The gate
  takes the *minimum* ratio across the given reports — noise only ever
  inflates the share, so the cleanest run is the honest one — and
  fails above 0.45: comfortably over the clean measurement, reliably
  under the old profile.
* every fig9 workload is select/update-only (2-SAT class), so every
  elimination must take the binary-implication fast path, and the
  fast-path/fallback split must account for every elimination.
* the environment must not degrade with program size: without fields
  (no β at all), time per definition on the largest workload over the
  smallest must stay within `NOFIELDS_PER_DEF_GROWTH_BUDGET`.
  Definitions are counted as the sum of `def_classes`. A per-definition
  copy of the global environment layer measured 2.91x; folding each
  definition in place measures ~0.9x. Only full-scale reports are
  gated: in `--quick` runs the smallest workload has 14 definitions
  and a ~2 ms wall, which is mostly noise, so the figure is printed
  but not gated.

Usage: check_projection.py <json-file>... (or - for stdin)
"""

import sys

import benchlib

PROJECT_WALL_BUDGET = 0.45
NOFIELDS_PER_DEF_GROWTH_BUDGET = 2.0

fail = benchlib.failer("check_projection")


def ratio_of(doc):
    total_wall = 0.0
    total_project = 0.0
    for w in doc["workloads"]:
        wf = w["with_fields"]
        name = w["name"]
        fast = wf["project_fastpath"]
        fallback = wf["project_fallback"]
        assert fast > 0, f"{name}: no fast-path eliminations recorded"
        assert fallback == 0, f"{name}: {fallback} fallback eliminations on a 2-SAT corpus"
        assert fast + fallback == wf["project_resolutions"], (
            f"{name}: fast {fast} + fallback {fallback} "
            f"!= eliminations {wf['project_resolutions']}"
        )
        total_wall += wf["wall_s"]
        total_project += wf["phases"]["project"]
    return total_project / total_wall


def check_nofields_growth(doc, src):
    rows = []
    for w in doc["workloads"]:
        run = w["without_fields"]
        defs = sum(run["def_classes"].values())
        if defs <= 0:
            fail(f"{src}: {w['name']}: no definitions in def_classes")
        rows.append((defs, run["wall_s"] / defs * 1e6, w["name"]))
    rows.sort()
    (_, small_us, small), (_, large_us, large) = rows[0], rows[-1]
    growth = large_us / small_us
    gated = not doc.get("quick")
    print(
        f"    w/o fields per def: {large} {large_us:.0f} us / {small} {small_us:.0f} us "
        f"= {growth:.2f}x (budget {NOFIELDS_PER_DEF_GROWTH_BUDGET}"
        f"{'' if gated else ', not gated on --quick'})"
    )
    if gated and growth > NOFIELDS_PER_DEF_GROWTH_BUDGET:
        fail(
            f"{src}: w/o-fields time per definition grows {growth:.2f}x from "
            f"{small} to {large} (budget {NOFIELDS_PER_DEF_GROWTH_BUDGET})"
        )


srcs = sys.argv[1:] or ["-"]
ratios = []
for src in srcs:
    doc = benchlib.load_json(src, fail)
    ratios.append(ratio_of(doc))
    check_nofields_growth(doc, src)
if ratios:
    best = min(ratios)
    print(
        f"    project/wall = {best:.3f} best of {[f'{r:.3f}' for r in ratios]} "
        f"(budget {PROJECT_WALL_BUDGET})"
    )
    if best > PROJECT_WALL_BUDGET:
        sys.exit(
            f"projection regression: project/wall ratio {best:.3f} "
            f"exceeds {PROJECT_WALL_BUDGET} in all {len(ratios)} run(s)"
        )
