package pb

import (
	"math"
	"testing"
)

func foldoverResponses(d *Design, f func(levels []Level) float64) []float64 {
	out := make([]float64, d.Runs())
	for i, row := range d.Matrix {
		out[i] = f(row)
	}
	return out
}

func TestAnalyzeFoldoverSeparatesMainFromInteraction(t *testing.T) {
	d, err := NewWithSize(12, true)
	if err != nil {
		t.Fatal(err)
	}
	// y = 7*x2 + 5*x0*x1: a main effect on column 2 and a pure
	// interaction between columns 0 and 1.
	responses := foldoverResponses(d, func(l []Level) float64 {
		return 7*float64(l[2]) + 5*float64(l[0])*float64(l[1])
	})
	a, err := AnalyzeFoldover(d, responses)
	if err != nil {
		t.Fatal(err)
	}
	// De-aliased main effects: only column 2 is nonzero.
	for j, m := range a.Main {
		want := 0.0
		if j == 2 {
			want = 7 * float64(d.Runs())
		}
		if math.Abs(m-want) > 1e-9 {
			t.Errorf("main[%d] = %g, want %g", j, m, want)
		}
	}
	// The 0x1 interaction must surface in at least one column's alias
	// estimate, and the total aliased magnitude is nonzero.
	total := 0.0
	for _, ia := range a.AliasedInteractions {
		total += math.Abs(ia)
	}
	if total == 0 {
		t.Fatal("interaction invisible to the foldover analysis")
	}
}

func TestAnalyzeFoldoverPureMainEffects(t *testing.T) {
	d, _ := NewWithSize(8, true)
	responses := foldoverResponses(d, func(l []Level) float64 {
		return 100 + 3*float64(l[0]) + 2*float64(l[4])
	})
	a, err := AnalyzeFoldover(d, responses)
	if err != nil {
		t.Fatal(err)
	}
	for j, ia := range a.AliasedInteractions {
		if math.Abs(ia) > 1e-9 {
			t.Errorf("aliased interaction [%d] = %g for an additive response", j, ia)
		}
	}
	if math.Abs(a.Main[0]-3*float64(d.Runs())) > 1e-9 {
		t.Errorf("main[0] = %g", a.Main[0])
	}
}

func TestAnalyzeFoldoverConsistentWithEffects(t *testing.T) {
	// The de-aliased main effect equals the whole-design raw effect:
	// the foldover's Effects already average out two-factor terms.
	d, _ := NewWithSize(12, true)
	responses := foldoverResponses(d, func(l []Level) float64 {
		y := 50.0
		for j, lv := range l {
			y += float64(j) * float64(lv)
		}
		y += 9 * float64(l[3]) * float64(l[7])
		return y
	})
	a, err := AnalyzeFoldover(d, responses)
	if err != nil {
		t.Fatal(err)
	}
	effects, _ := Effects(d, responses)
	for j := range effects {
		if math.Abs(a.Main[j]-effects[j]) > 1e-9 {
			t.Errorf("column %d: main %g != whole-design effect %g", j, a.Main[j], effects[j])
		}
	}
}

func TestAnalyzeFoldoverValidation(t *testing.T) {
	plain, _ := NewWithSize(8, false)
	if _, err := AnalyzeFoldover(plain, make([]float64, 8)); err == nil {
		t.Error("non-foldover design accepted")
	}
	fold, _ := NewWithSize(8, true)
	if _, err := AnalyzeFoldover(fold, make([]float64, 3)); err == nil {
		t.Error("short response vector accepted")
	}
}
