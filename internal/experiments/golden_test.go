package experiments

import "testing"

// TestGoldenSuiteBands locks the full-suite headline numbers into tolerance
// bands around the committed RESULTS.md values, so a change that silently
// breaks the calibration (workload statistics, cache mechanics, the energy
// model) fails loudly rather than drifting. Runs the whole ten-benchmark
// suite at one frame; skipped under -short.
func TestGoldenSuiteBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden check skipped in -short mode")
	}
	r := NewRunner()
	r.Frames = 1
	if err := r.Prewarm(4); err != nil {
		t.Fatal(err)
	}

	h, err := r.Headline()
	if err != nil {
		t.Fatal(err)
	}
	band := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s = %.3f outside the golden band [%.3f, %.3f] (paper-matching calibration broken?)",
				name, got, lo, hi)
		}
	}
	// Paper: 13.8% / 5.5% / 3.7% / ~5x. Each band lies within ±5% of the
	// value this suite measures at Frames=1 (noted per line), so a change
	// that moves a headline number by more than that must re-derive it.
	band("memory hierarchy energy decrease", h.MemHierarchyDecrease, 0.129, 0.142) // measured 0.1356
	band("total GPU energy decrease", h.GPUEnergyDecrease, 0.050, 0.054)           // measured 0.0516
	band("FPS increase", h.FPSIncrease, 0.038, 0.041)                              // measured 0.0395
	band("tiling engine speedup", h.TilingSpeedup, 4.12, 4.54)                     // measured 4.332

	f16, err := r.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	band("PB->memory elimination (Fig. 16)", f16.Average, 0.905, 0.999) // measured 0.9518
	fullElim := 0
	for _, row := range f16.Rows {
		if row.TCORReads+row.TCORWrites == 0 {
			fullElim++
		}
	}
	if fullElim < 6 {
		t.Errorf("only %d/10 benchmarks fully eliminate PB memory traffic (paper: 7)", fullElim)
	}

	f14, err := r.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	band("PB->L2 decrease (Fig. 14)", f14.Average, 0.269, 0.297) // measured 0.2830
}
