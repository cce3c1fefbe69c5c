#!/usr/bin/env python3
"""Print the paper's figure panels and the ablation tables from paper_figures JSON.

Usage: render_figures.py [FILE...]      (reads stdin without a FILE)

Every row of a bench/paper_figures JSON names its figure, approach and x
value. The panels pivot those rows: one table row per approach, one column
per x value. The baseline-relative panels (normalised throughput,
degradation, app-time increase) divide by or subtract the figure's
`baseline` rows. A figure without rows is skipped, and so is a
baseline-relative panel without its baseline; an approach without rows is
left out of its panels. Numbers are formatted as src/cloud/report.cpp's
fmt_* helpers format them.
"""
import json
import sys

GIB = 1024.0 ** 3


def fmt_double(v, precision):
    return "%.*f" % (precision, v)


def fmt_pct(fraction):
    return "%.1f%%" % (fraction * 100.0)


def fmt_seconds(s):
    return "%.2f s" % s


def fmt_bytes(b):
    if b >= GIB:
        return "%.2f GB" % (b / GIB)
    if b >= 1024.0 ** 2:
        return "%.1f MB" % (b / 1024.0 ** 2)
    if b >= 1024.0:
        return "%.1f KB" % (b / 1024.0)
    return "%.0f B" % b


def storage_traffic(r):
    return r["storage_push_traffic_gb"] * GIB + r["storage_pull_traffic_gb"] * GIB


def table(title, headers, rows):
    """A banner and a bordered table, laid out as cloud::Table prints."""
    widths = [max(len(str(row[i])) for row in [headers] + rows) for i in range(len(headers))]
    border = "+" + "".join("-" * (w + 2) + "+" for w in widths)
    line = lambda cells: "|" + "".join(" %-*s |" % (w, c) for w, c in zip(widths, cells))
    print(f"\n=== {title} ===")
    print("\n".join([border, line(headers), border] + [line(r) for r in rows] + [border]))


def pivot(rows, title, columns):
    """One table row per approach; a column is (header, x, cell), cell(row at x)."""
    points = [r for r in rows if r["approach"] != "baseline"]
    at = {(r["approach"], r["x"]): r for r in points}
    body = [[a] + [cell(at[a, x]) if (a, x) in at else "" for _, x, cell in columns]
            for a in dict.fromkeys(r["approach"] for r in points)]
    table(title, ["Approach"] + [header for header, _, _ in columns], body)


def by_x(rows, cell):
    """A column per x value of the figure, in row order."""
    return [(x, x, cell) for x in dict.fromkeys(r["x"] for r in rows if r["approach"] != "baseline")]


def fig3(rows, base):
    mig = lambda r: fmt_double(r["avg_migration_s"], 1)
    mb = lambda r: fmt_double(r["total_traffic_gb"] * 1024, 0)
    pivot(rows, "Figure 3(a): Migration time (s, lower is better)",
          [("IOR", "ior", mig), ("AsyncWR", "awr", mig)])
    pivot(rows, "Figure 3(b): Total network traffic (MB, lower is better)",
          [("IOR", "ior", mb), ("AsyncWR", "awr", mb)])
    if "ior" in base and "awr" in base:
        ior, awr = base["ior"], base["awr"]
        pivot(rows, "Figure 3(c): Normalized avg throughput (% of no-migration max, "
              "higher is better)",
              [("IOR-Read", "ior", lambda r: fmt_pct(r["read_Bps"] / ior["read_Bps"])),
               ("IOR-Write", "ior", lambda r: fmt_pct(r["write_Bps"] / ior["write_Bps"])),
               ("AsyncWR", "awr", lambda r: fmt_pct(r["write_Bps"] / awr["write_Bps"]))])
        print(f"no-migration maxima: IOR-Read {fmt_bytes(ior['read_Bps'])}/s, IOR-Write "
              f"{fmt_bytes(ior['write_Bps'])}/s, AsyncWR {fmt_bytes(awr['write_Bps'])}/s")
    table("Detail: per-migration breakdown",
          ["Run", "mig time", "downtime", "mem rounds", "mem sent", "pushed", "pulled"],
          [[f"{r['x']}/{r['approach']}", fmt_seconds(r["avg_migration_s"]),
            fmt_double(r["max_downtime_s"] * 1000, 1) + " ms", str(r["memory_rounds"]),
            fmt_bytes(r["memory_traffic_gb"] * GIB), fmt_double(r["chunks_pushed"], 0),
            fmt_double(r["chunks_pulled"], 0)]
           for r in rows if r["approach"] != "baseline"])


def fig4(rows, base):
    pivot(rows, "Figure 4(a): Avg. migration time / instance (s, lower is better)",
          by_x(rows, lambda r: fmt_double(r["avg_migration_s"], 1)))
    pivot(rows, "Figure 4(b): Total network traffic (GB, lower is better)",
          by_x(rows, lambda r: fmt_double(r["total_traffic_gb"], 2)))
    if "0" in base:
        # The fraction of computational potential lost: both runs do the
        # same work, so it shows as a longer runtime.
        b = base["0"]["app_execution_s"]
        pivot(rows, "Figure 4(c): Performance degradation (% of max, lower is better)",
              by_x(rows, lambda r: fmt_pct(1.0 - b / r["app_execution_s"]
                                           if r["app_execution_s"] > 0 else 0)))
        print(f"baseline (migration-free) runtime: {fmt_seconds(b)}")


def fig5(rows, base):
    pivot(rows, "Figure 5(a): Cumulated migration time (s, lower is better)",
          by_x(rows, lambda r: fmt_double(r["total_migration_s"], 1)))
    pivot(rows, "Figure 5(b): Migration traffic, excl. CM1 comm (GB, lower is better)",
          by_x(rows, lambda r: fmt_double(r["migration_traffic_gb"], 2)))
    if "0" in base:
        b = base["0"]["app_execution_s"]
        pivot(rows, "Figure 5(c): Increase in app execution time (s, lower is better)",
              by_x(rows, lambda r: fmt_double(r["app_execution_s"] - b, 1)))
        print(f"baseline (migration-free) CM1 runtime: {fmt_seconds(b)}")


def chunk_size(rows, _):
    table("Ablation: chunk size under IOR (hybrid, 1 migration)",
          ["Chunk", "mig time (s)", "storage traffic", "total traffic", "write thpt"],
          [[r["x"] + " KiB", fmt_double(r["avg_migration_s"], 1),
            fmt_bytes(storage_traffic(r)), fmt_bytes(r["total_traffic_gb"] * GIB),
            fmt_bytes(r["write_Bps"]) + "/s"] for r in rows])


def dedup(rows, _):
    table("Ablation: content de-duplication under IOR (hybrid, 1 migration)",
          ["Duplicate fraction", "mig time (s)", "storage traffic", "total traffic"],
          [[fmt_pct(float(r["x"])), fmt_double(r["avg_migration_s"], 1),
            fmt_bytes(storage_traffic(r)), fmt_bytes(r["total_traffic_gb"] * GIB)]
           for r in rows])


def pull_order(rows, _):
    def order(r):
        name = r["x"] + (" (paper)" if r["x"] == "by-write-count" else "")
        return name if r["approach"] == "our-approach" else f"{r['approach']}/{name}"
    table("Ablation: pull order under IOR (1 migration)",
          ["Order", "mig time (s)", "chunks pulled", "read thpt", "app time (s)"],
          [[order(r), fmt_double(r["avg_migration_s"], 1), fmt_double(r["chunks_pulled"], 0),
            fmt_bytes(r["read_Bps"]) + "/s", fmt_double(r["app_execution_s"], 1)]
           for r in rows])


def threshold(rows, _):
    table("Ablation: hybrid write-count Threshold under IOR (1 migration)",
          ["Threshold", "mig time (s)", "storage traffic", "pushed", "pulled", "write thpt"],
          [[r["x"] + (" (default)" if r["x"] == "3" else ""),
            fmt_double(r["avg_migration_s"], 1), fmt_bytes(storage_traffic(r)),
            fmt_double(r["chunks_pushed"], 0), fmt_double(r["chunks_pulled"], 0),
            fmt_bytes(r["write_Bps"]) + "/s"] for r in rows])


RENDERERS = {"paper/fig3": fig3, "paper/fig4": fig4, "paper/fig5": fig5,
             "ablation/chunk-size": chunk_size, "ablation/dedup": dedup,
             "ablation/pull-order": pull_order, "ablation/threshold": threshold}


def main() -> int:
    docs = [json.load(open(p)) for p in sys.argv[1:]] or [json.load(sys.stdin)]
    rows = [r for doc in docs for r in doc["rows"]]
    for figure, render in RENDERERS.items():
        mine = [r for r in rows if r["figure"] == figure]
        if mine:
            render(mine, {r["x"]: r for r in mine if r["approach"] == "baseline"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
