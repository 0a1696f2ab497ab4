#!/usr/bin/env python3
"""Perf-trajectory gate for BENCH_detector.json.

Compares a freshly generated detector baseline against the committed one
and fails (exit 1) when the pruning trajectory regresses:

- `failure_points`, `classes_total` and `fps_pruned` are functions of the
  workload trace alone, so they must match the committed baseline exactly;
  a drift means the detector or the fingerprint changed behavior.
- `pruning_ratio` may only fall below the committed value by the relative
  tolerance (default 1%) — and must stay above the absolute acceptance
  floor (5x) on every measured workload.

Wall-clock columns in the main table are host-dependent and are printed
for information only; they never gate. The `ingest` rows gate exactly
against the committed ones: `entries` and `xft_bytes` are functions of the
recorded trace and the `.xft` encoder alone, so a drift means the encoder's
bytes changed (entries/s is printed for information only). The rows
produced by `perf_baseline --wall` and the server section gate on the
*fresh* measurements alone:

- `scaling` rows (tagged `speedup_method: "wall"`) gate only when the
  fresh run's `host_cpus >= 2` — on a single-CPU host every "parallel"
  configuration time-slices one core and wall ratios are meaningless.
  On multicore hosts, the fully parallel pipeline must beat the
  sequential wall at every swept worker count >= 2.
- the `server` section always gates on its deterministic counters: every
  warm (repeat-submission) row must record cache hits and at least
  SERVER_REDUCTION_FLOOR times fewer post-failure executions than its
  cold row, and the aggregate warm cache-hit ratio must be positive.
  The jobs/second columns are host-dependent and informational.

Usage:
    check_perf_trajectory.py COMMITTED.json FRESH.json [--tolerance 0.01]

Standard library only.
"""

import argparse
import json
import sys

RATIO_FLOOR = 5.0
SERVER_REDUCTION_FLOOR = 5.0


def rows_by_key(doc):
    return {(r["workload"], r["ops"]): r for r in doc["results"]}


def check_scaling(fresh_doc, errors):
    """Gates the `--wall` multicore rows of the fresh baseline."""
    rows = fresh_doc.get("scaling", [])
    host_cpus = fresh_doc.get("host_cpus", 1)
    gated = host_cpus >= 2
    if rows and not gated:
        print(f"scaling: host_cpus={host_cpus}, wall rows are info-only")
    for r in rows:
        name = f"{r['workload']} @{r['workers']}w"
        verdict = f"{r['speedup_wall']:.2f}x"
        print(
            f"scaling: {name}: seq {r['sequential_wall_s']:.3f}s, "
            f"wall {r['parallel_wall_s']:.3f}s ({verdict}, "
            f"{'gated' if gated and r['workers'] >= 2 else 'info only'})"
        )
        if gated and r["workers"] >= 2 and r["parallel_wall_s"] >= r["sequential_wall_s"]:
            errors.append(
                f"{name}: parallel wall {r['parallel_wall_s']:.3f}s does not "
                f"beat sequential {r['sequential_wall_s']:.3f}s on a "
                f"{host_cpus}-CPU host"
            )


def check_ingest(committed_doc, fresh_doc, errors):
    """Pins the ingest rows' trace size to the committed baseline."""
    key = lambda r: (r["workload"], r["ops"])
    committed = {key(r): r for r in committed_doc.get("ingest", [])}
    fresh = {key(r): r for r in fresh_doc.get("ingest", [])}
    for k in sorted(set(committed) - set(fresh)):
        errors.append(f"ingest {k[0]} (ops={k[1]}): row missing from fresh baseline")
    for k in sorted(set(committed) & set(fresh)):
        old, new = committed[k], fresh[k]
        name = f"ingest {k[0]} (ops={k[1]})"
        for field in ("entries", "xft_bytes"):
            if old[field] != new[field]:
                errors.append(
                    f"{name}: {field} drifted: committed {old[field]}, "
                    f"fresh {new[field]} (encoder-deterministic, must match exactly)"
                )
        print(
            f"{name}: {new['entries']} entries in {new['xft_bytes']} bytes | "
            f"decode [info only]: {new.get('entries_per_s', 0.0):.0f} e/s"
        )


def check_domains(committed_doc, fresh_doc, errors):
    """Gates the persistence-domain sweep's deterministic counters.

    Every column except the walls is a function of the trace and the
    domain model alone, so the fresh rows must match the committed ones
    exactly — a drift means the domain semantics (eADR's persisted-at-crash
    rule, the CXL reorder-window aging, or the pruning fingerprint's domain
    fold) changed behavior. The ADR rows double as the compatibility
    anchor: they must agree with the committed pre-domain trajectory.
    """
    key = lambda r: (r["workload"], r["ops"], r["domain"])
    committed = {key(r): r for r in committed_doc.get("domains", [])}
    fresh = {key(r): r for r in fresh_doc.get("domains", [])}
    if not committed:
        if fresh:
            print("domains: no committed rows yet, fresh rows are info-only")
        return
    for k in sorted(set(committed) - set(fresh)):
        errors.append(f"{k[0]} (ops={k[1]}, {k[2]}): domain row missing from fresh baseline")
    exact = (
        "failure_points",
        "classes_total",
        "fps_pruned",
        "race_findings",
        "semantic_findings",
    )
    for k in sorted(set(committed) & set(fresh)):
        old, new = committed[k], fresh[k]
        name = f"{k[0]} (ops={k[1]}, {k[2]})"
        for field in exact:
            if old[field] != new[field]:
                errors.append(
                    f"{name}: {field} drifted: committed {old[field]}, "
                    f"fresh {new[field]} (domain-deterministic, must match exactly)"
                )
        print(
            f"domain {name}: fps={new['failure_points']} "
            f"classes={new['classes_total']} pruned={new['fps_pruned']} "
            f"races={new['race_findings']} sem={new['semantic_findings']} "
            f"ratio={new['pruning_ratio']:.2f}x | walls [info only]: "
            f"seq {old['sequential_s']:.3f}->{new['sequential_s']:.3f}s"
        )


def check_server(fresh_doc, errors):
    """Gates the campaign server's cross-run cache counters."""
    section = fresh_doc.get("server")
    if section is None:
        return
    print(
        f"server: {section['jobs_per_phase']} jobs/phase @ "
        f"{section['exec_workers']} executors: cold "
        f"{section['cold_jobs_per_s']:.2f} jobs/s, warm "
        f"{section['warm_jobs_per_s']:.2f} jobs/s [info only], "
        f"cache-hit ratio {section['cache_hit_ratio']:.2f} [gated > 0]"
    )
    if section["cache_hit_ratio"] <= 0.0:
        errors.append(
            "server: warm cache-hit ratio is zero — repeat submissions "
            "never hit the cross-run cache"
        )
    for r in section.get("rows", []):
        name = f"server {r['workload']} (ops={r['ops']})"
        print(
            f"{name}: cold posts {r['cold_post_runs']}, warm posts "
            f"{r['warm_post_runs']}, warm hits {r['warm_cache_hits']} "
            f"({r['post_run_reduction']:.1f}x reduction, floor "
            f"{SERVER_REDUCTION_FLOOR:.0f}x)"
        )
        if r["warm_cache_hits"] == 0:
            errors.append(f"{name}: repeat submission recorded no cache hits")
        if r["warm_post_runs"] * SERVER_REDUCTION_FLOOR > r["cold_post_runs"]:
            errors.append(
                f"{name}: warm run executed {r['warm_post_runs']} post runs "
                f"vs {r['cold_post_runs']} cold (floor "
                f"{SERVER_REDUCTION_FLOOR:.0f}x fewer)"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("committed")
    ap.add_argument("fresh")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.01,
        help="allowed relative drop in pruning_ratio (default 0.01)",
    )
    args = ap.parse_args()

    with open(args.committed) as f:
        committed_doc = json.load(f)
    committed = rows_by_key(committed_doc)
    with open(args.fresh) as f:
        fresh_doc = json.load(f)
    fresh = rows_by_key(fresh_doc)

    errors = []

    missing = set(committed) - set(fresh)
    for key in sorted(missing):
        errors.append(f"{key[0]} (ops={key[1]}): row missing from fresh baseline")

    for key in sorted(set(committed) & set(fresh)):
        old, new = committed[key], fresh[key]
        name = f"{key[0]} (ops={key[1]})"

        for field in ("failure_points", "classes_total", "fps_pruned"):
            if old[field] != new[field]:
                errors.append(
                    f"{name}: {field} drifted: committed {old[field]}, "
                    f"fresh {new[field]} (trace-deterministic, must match exactly)"
                )

        floor = old["pruning_ratio"] * (1.0 - args.tolerance)
        if new["pruning_ratio"] < floor:
            errors.append(
                f"{name}: pruning_ratio regressed: committed "
                f"{old['pruning_ratio']:.2f}, fresh {new['pruning_ratio']:.2f} "
                f"(tolerance floor {floor:.2f})"
            )
        if new["pruning_ratio"] < RATIO_FLOOR:
            errors.append(
                f"{name}: pruning_ratio {new['pruning_ratio']:.2f} below the "
                f"{RATIO_FLOOR:.0f}x acceptance floor"
            )

        print(
            f"{name}: fps={new['failure_points']} classes={new['classes_total']} "
            f"pruned={new['fps_pruned']} ratio={new['pruning_ratio']:.2f}x "
            f"(committed {old['pruning_ratio']:.2f}x) | walls [info only]: "
            f"seq {old['sequential_s']:.3f}->{new['sequential_s']:.3f}s, "
            f"pruned {old['pruned_s']:.3f}->{new['pruned_s']:.3f}s"
        )

    check_scaling(fresh_doc, errors)
    check_ingest(committed_doc, fresh_doc, errors)
    check_domains(committed_doc, fresh_doc, errors)
    check_server(fresh_doc, errors)

    if errors:
        print()
        for e in errors:
            print(f"REGRESSION: {e}", file=sys.stderr)
        return 1
    print("\nperf trajectory ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
