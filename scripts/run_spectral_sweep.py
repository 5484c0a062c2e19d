#!/usr/bin/env python3
"""Sweep resolvent-norm estimates over the lambda grid and print where the
finite-section estimates blow up across degrees versus stabilize."""

import argparse
import json

from cesaro_lab import spectral_dichotomy_report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=1024)
    parser.add_argument("--grid-points", type=int, default=17)
    parser.add_argument("--output", default="spectral_sweep.json")
    args = parser.parse_args()

    report = spectral_dichotomy_report(args.degree, grid_points=args.grid_points)
    growing = [pt for pt in report.points if pt.classification == "growing"]
    stable = [pt for pt in report.points if pt.classification == "stable"]
    print(f"section degrees: {report.degrees}")
    print(f"diagonal errors by t: {report.section_diagonal_errors}")
    print(f"{len(growing)} growing / {len(stable)} stable lambda points")
    for pt in sorted(growing, key=lambda p: -p.growth_ratio):
        print(f"  growing: lambda={pt.lam:.3f}  ratio={pt.growth_ratio:.1f}  norms={pt.norms}")

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report.payload(), fh, indent=2, sort_keys=True)
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
