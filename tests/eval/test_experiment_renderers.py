"""Experiment-module rendering: table layouts from synthetic rows.

These cover the render paths without the expensive run() computations (the
benchmarks exercise those).
"""

import numpy as np

from repro.eval.detection_metrics import DetectionMetrics
from repro.eval.regression_metrics import range_binned_errors
from repro.experiments import ablations, fig2, overhead, table1, table2, \
    table3, table4, table5


def fake_errors(value=1.0):
    return range_binned_errors([5, 25, 45, 65], [0] * 4, [value] * 4)


def fake_metrics():
    return DetectionMetrics(map50=91.0, precision=96.5, recall=88.0)


class TestRenderers:
    def test_table1_render(self):
        out = table1.render({"FGSM": fake_errors(4.2)})
        assert "TABLE I" in out and "FGSM" in out and "+4.20" in out

    def test_fig2_render(self):
        out = fig2.render({"No Attack": fake_metrics()})
        assert "Fig. 2" in out and "91.00" in out

    def test_table2_render(self):
        rows = [table2.Table2Row("FGSM", "None", fake_errors(), fake_metrics())]
        out = table2.render(rows)
        assert "TABLE II" in out and "FGSM" in out

    def test_table3_render(self):
        rows = [table3.Table3Row("FGSM", "Auto-PGD", fake_errors(),
                                 fake_metrics()),
                table3.Table3Row("FGSM", "Mixed", None, fake_metrics())]
        out = table3.render(rows)
        assert "TABLE III" in out and "Mixed" in out
        assert "-" in out  # blank regression cell for Mixed

    def test_table4_render(self):
        rows = [table4.Table4Row("FGSM", "Clean", fake_metrics())]
        out = table4.render(rows)
        assert "TABLE IV" in out

    def test_table5_render(self):
        rows = [table5.Table5Row("SimBA", None, fake_metrics())]
        out = table5.render(rows)
        assert "TABLE V" in out and "Diffusion" in out

    def test_overhead_render(self):
        rows = [overhead.OverheadRow("Median Blurring", 3.5, True),
                overhead.OverheadRow("Diffusion (DiffPIR)", 900.0, False),
                overhead.OverheadRow(overhead.DIFFPIR_BATCH_1, 60.0, False)]
        out = overhead.render(rows)
        assert "ms/frame" in out and "NO" in out
        assert "Diffusion (DiffPIR), batch 1 | 60.00" in out

    def test_ablation_renders(self):
        out = ablations.render_patch_size(
            [ablations.PatchSizeRow(10.0, 500, 12.0)])
        assert "surface" in out
        out = ablations.render_apgd_vs_pgd(
            [ablations.PGDComparisonRow("PGD", 10, 5.0)])
        assert "PGD" in out
        out = ablations.render_diffusion_steps(
            [ablations.DiffusionStepsRow(5, 0.05, 120.0)])
        assert "DiffPIR" in out


class TestTable2Defenses:
    def test_make_defenses_complete(self):
        defenses = table2.make_defenses()
        assert set(defenses) == {"None", "Median Blurring", "Randomization",
                                 "Bit Depth"}
        assert defenses["None"] is None


class TestExperimentConstants:
    def test_table3_rows_cover_paper(self):
        assert "CAP/RP2" in table3.ROW_NAMES
        assert len(table3.ROW_NAMES) == 4

    def test_table4_sources_cover_paper(self):
        assert set(table4.SOURCES) == {"Gaussian Noise", "FGSM", "Auto-PGD",
                                       "RP2", "SimBA"}

    def test_table5_includes_simba_detection_only(self):
        simba_rows = [r for r in table5.ROWS if r[0] == "SimBA"]
        assert simba_rows[0][1] is None  # no regression column
