package analysis_test

import (
	"path/filepath"
	"testing"

	"pbsim/internal/analysis"
)

// loadWritesPkg loads the single-package write-effect battery.
func loadWritesPkg(t *testing.T) *analysis.FactIndex {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("rules", "testdata", "writes"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load([]string{dir}); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{
		"determinism": true, "hotalloc": true, "purity": true,
	}
	return analysis.BuildFacts(loader.Universe(), known)
}

// TestWriteEffectFact pins the write-effect classifier function by
// function: which mutations escape the frame, which provably stay
// inside it, and the exact why-string the purity analyzer will print.
func TestWriteEffectFact(t *testing.T) {
	x := loadWritesPkg(t)

	effects := map[string]string{
		"WritesGlobal":     "assigns package-level writes.global",
		"IncrGlobal":       "assigns package-level writes.global",
		"DeletesGlobalMap": "deletes from a map that assigns package-level writes.registry",
		"SetN":             "writes through receiver s",
		"MutatesRecvMap":   "writes through receiver s",
		"WritesParam":      "writes through parameter p",
		"WritesSliceParam": "writes through parameter in",
		"AliasesParam":     "writes memory aliased by xs",
		"ShadowsParam":     "writes through parameter in",
		"SendsOnParam":     "sends on channel ch (writes through parameter ch)",
		"ClosesParam":      "closes channel ch (writes through parameter ch)",
		"CallsWriter":      "writes.WritesGlobal → assigns package-level writes.global",
	}
	clean := []string{
		"ValueRecv", "OwnedSlice", "OwnedMap", "AppendOwned",
		"SliceOfOwned", "OwnedChan", "PureLocal", "WaivedWrite",
	}

	for fn, why := range effects {
		fi := lookupFunc(t, x, "writes", fn)
		if !fi.Facts().Has(analysis.FactWritesState) {
			t.Errorf("%s: write-effect fact missing", fn)
			continue
		}
		if got := fi.Why(analysis.FactWritesState); got != why {
			t.Errorf("%s why = %q, want %q", fn, got, why)
		}
	}
	for _, fn := range clean {
		fi := lookupFunc(t, x, "writes", fn)
		if fi.Facts().Has(analysis.FactWritesState) {
			t.Errorf("%s: spurious write-effect fact (%s)", fn, fi.Why(analysis.FactWritesState))
		}
	}
}
