package pb

import "fmt"

// Foldover designs measure more than de-aliased main effects: because
// the second half of the design mirrors the first, the half-difference
// of the two column effects isolates the two-factor-interaction
// aliases that the basic design folds into each main effect. This is
// the paper's "effect of all of the main parameters and selected
// interactions" (Section 2.2).
//
// Writing E1[j] for column j's effect over the base rows and E2[j]
// over the mirrored rows:
//
//	E1[j] =  main[j] + alias2FI[j]   (+ higher-order terms)
//	E2[j] =  main[j] - alias2FI[j]   (signs of odd-order terms flip)
//
// so (E1+E2)/2 estimates the main effect and (E1-E2)/2 the summed
// two-factor interactions aliased onto column j.

// FoldoverAnalysis separates main effects from their aliased
// two-factor-interaction chains.
type FoldoverAnalysis struct {
	// Main holds the de-aliased main effect per column, on the scale
	// of a full-design raw effect (summed over all 2X rows).
	Main []float64
	// AliasedInteractions holds, per column, the summed two-factor
	// interaction contrast that a basic (non-foldover) design would
	// have confounded with that column's main effect, on the same
	// scale.
	AliasedInteractions []float64
}

// AnalyzeFoldover decomposes the responses of a foldover design. It
// fails on designs built without foldover.
func AnalyzeFoldover(d *Design, responses []float64) (*FoldoverAnalysis, error) {
	if !d.Foldover {
		return nil, fmt.Errorf("pb: AnalyzeFoldover requires a foldover design")
	}
	if len(responses) != d.Runs() {
		return nil, fmt.Errorf("pb: got %d responses for a %d-run design", len(responses), d.Runs())
	}
	a := &FoldoverAnalysis{
		Main:                make([]float64, d.Columns),
		AliasedInteractions: make([]float64, d.Columns),
	}
	for i := 0; i < d.X; i++ {
		yBase := responses[i]
		yMirror := responses[d.X+i]
		for j, lv := range d.Matrix[i] {
			// The mirror row's level is -lv, so its column-effect
			// contribution is (-lv)*yMirror.
			e1 := float64(lv) * yBase
			e2 := -float64(lv) * yMirror
			a.Main[j] += e1 + e2
			a.AliasedInteractions[j] += e1 - e2
		}
	}
	return a, nil
}
