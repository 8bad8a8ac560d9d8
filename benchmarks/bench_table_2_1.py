"""Table 2.1 — parallel scalability of the octree earthquake code.

Reproduction method (see DESIGN.md):

1. **Measure** the RCB surface-to-volume law on real wavelength-adaptive
   basin meshes: partition them across many rank counts with the
   distributed solver's partition builder and record the worst rank's
   interface size.
2. **Predict** each paper row (1 ... 3000 AlphaServer PEs, LA10S ...
   LA1HB models, up to 102M grid points) from its granularity with the
   fitted law and the calibrated AlphaServer/Quadrics machine model
   (the 3000-PE row calibrates the synchronization constant; all other
   rows are predictions).
3. Report modeled Gflop/s, Mflop/s per PE and parallel efficiency next
   to the paper's measured values.

Also models strong scaling of the basin mesh we actually hold in memory
on its real RCB partitions (exact per-rank flop and byte accounting,
machine-model time), showing the same monotone trend.
"""

import numpy as np

from _common import emit, run_once
from repro.materials import SyntheticBasinModel
from repro.mesh import extract_mesh, rcb_partition
from repro.mesh.hexmesh import wavelength_target
from repro.octree import balance_octree, build_adaptive_octree
from repro.parallel.perfmodel import (
    ALPHASERVER_ES45,
    fit_interface_constant,
    format_table,
    predict_paper_row,
    predict_scalability,
)

# (PEs, model, grid pts, pts/PE, paper Gflop/s, paper Mflop/PE, paper eff)
PAPER_ROWS = [
    (1, "LA10S", 134_500, 134_500, 0.505, 505, 1.000),
    (16, "LA5S", 618_672, 38_667, 7.85, 491, 0.972),
    (128, "LA2S", 14_792_064, 115_563, 60.0, 469, 0.929),
    (512, "LA1HA", 47_556_096, 92_883, 231, 451, 0.893),
    (1024, "LA1HB", 101_940_152, 99_551, 460, 450, 0.891),
    (2048, "LA1HB", 101_940_152, 49_775, 907, 443, 0.874),
    (3000, "LA1HB", 101_940_152, 33_980, 1_210, 403, 0.800),
]


def build_basin_mesh(fmax: float, h_min: float, max_level: int = 6):
    L = 80_000.0
    mat = SyntheticBasinModel(L=L, depth=40_000.0, vs_min=300.0)
    target = wavelength_target(
        lambda p: mat.query(p)[0], L=L, fmax=fmax, h_min=h_min
    )
    tree = balance_octree(
        build_adaptive_octree(target, max_level=max_level, box_frac=(1, 1, 0.5))
    )
    return extract_mesh(tree, L=L, box_frac=(1, 1, 0.5))


def table_2_1():
    lines = []
    # step 1: surface law from real partitions of a real adaptive mesh
    mesh = build_basin_mesh(fmax=0.2, h_min=1250.0)
    c = fit_interface_constant(mesh, [8, 16, 32, 64])
    lines.append(
        f"RCB surface law fitted on a {mesh.nnode:,}-point adaptive basin "
        f"mesh: n_shared ~ {c:.2f} * g^(2/3)"
    )

    # step 2: paper rows at their true granularity
    rows = [
        predict_paper_row(g, p, c_interface=c, model_name=m)
        for p, m, _, g, *_ in PAPER_ROWS
    ]
    lines.append("")
    lines.append("Modeled Table 2.1 (AlphaServer ES45 / Quadrics model):")
    lines.append(format_table(rows))
    lines.append("")
    lines.append(
        f"{'PEs':>5} {'eff(model)':>10} {'eff(paper)':>10} {'abs diff':>9}"
    )
    for row, (_, _, _, _, _, _, eff_p) in zip(rows, PAPER_ROWS):
        lines.append(
            f"{row.pes:>5} {row.efficiency:>10.3f} {eff_p:>10.3f} "
            f"{abs(row.efficiency - eff_p):>9.3f}"
        )
    lines.append(
        f"headline: modeled {rows[-1].gflops / 1000:.2f} Tflop/s on 3000 PEs "
        "(paper: 1.21 Tflop/s)"
    )

    # step 3: modeled strong scaling of the in-memory mesh
    lines.append("")
    lines.append(
        f"Modeled strong scaling of the {mesh.nnode:,}-point mesh "
        "(real partitions + exact flop/byte accounting):"
    )
    modeled = [
        predict_scalability(mesh, p, model_name="LA-scaled")
        for p in (1, 2, 4, 8, 16, 32, 64)
    ]
    lines.append(format_table(modeled))
    return "\n".join(lines), rows


def test_table_2_1(benchmark):
    text, rows = run_once(benchmark, table_2_1)
    emit("table_2_1", text)
    effs = [r.efficiency for r in rows]
    paper = [r[-1] for r in PAPER_ROWS]
    # shape agreement: every modeled row within 0.08 of the paper, the
    # 3000-PE headline within 0.05, monotone over the final rows
    assert max(abs(a - b) for a, b in zip(effs, paper)) < 0.08
    assert abs(effs[-1] - 0.80) < 0.05
    assert effs[-1] < effs[-2] < effs[-3]
