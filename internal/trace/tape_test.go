package trace

import "testing"

// TestTapeRoundTrip checks the decoder against the generator: replaying
// Record(gen, n) yields the generator's own instructions with the
// fields a tape drops (dependencies, CompID) zeroed, across seeds,
// window offsets and lengths, including an unaligned stride that
// forces raw data addresses.
func TestTapeRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		p := testParams(seed)
		if seed%2 == 0 {
			p.StrideBytes = 12
		}
		gen, err := NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct{ skip, n int64 }{{0, 0}, {0, 1}, {3, 2000}, {1, 1}, {517, 4096}} {
			gen.Skip(w.skip)
			ref.Skip(w.skip)
			tape := Record(gen, w.n)
			if gen.Emitted() != ref.Emitted()+w.n {
				t.Fatalf("seed %d: Record(%d) advanced the generator by %d", seed, w.n, gen.Emitted()-ref.Emitted())
			}
			r := tape.Reader()
			for i := int64(0); i < w.n; i++ {
				if !r.More() {
					t.Fatalf("seed %d: tape ends after %d of %d instructions", seed, i, w.n)
				}
				want := ref.Next()
				want.Dep1, want.Dep2, want.CompID = 0, 0, 0
				var got Instr
				if r.Next(&got); got != want {
					t.Fatalf("seed %d, window %+v, instruction %d: decoded %+v, want %+v", seed, w, i, got, want)
				}
			}
			if r.More() {
				t.Fatalf("seed %d: tape holds more than %d instructions", seed, w.n)
			}
		}
	}
}
