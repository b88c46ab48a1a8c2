package harness

import (
	"strings"
	"testing"

	"dvi/internal/sample"
)

// TestSampledReportAddsCIColumn pins the two sides of the sampling
// surface: a sampled run's IPC tables gain the ±CI error-bound column
// (with a methodology note), and an exact run's tables do not mention CI
// at all — exact output stays byte-identical to previous releases.
func TestSampledReportAddsCIColumn(t *testing.T) {
	opt := DefaultOptions()
	opt.MaxInsts = 120_000
	opt.Sampling = &sample.Options{Interval: 4000, Warmup: 1000, Period: 4}

	tbl := render(t, opt, "fig10")[0]
	if tbl.Header[len(tbl.Header)-1] != "±CI" {
		t.Errorf("sampled fig10 header %v lacks the ±CI column", tbl.Header)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Errorf("row %v does not fill the ±CI column", row)
		}
	}
	if !strings.Contains(tbl.String(), "sampled: interval 4000") {
		t.Error("sampled table missing the methodology note")
	}

	exact := opt
	exact.Sampling = nil
	if etbl := render(t, exact, "fig10")[0]; strings.Contains(etbl.String(), "CI") {
		t.Errorf("exact fig10 output mentions CI:\n%s", etbl)
	}
}
