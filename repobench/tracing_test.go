package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 60]: 50ms, not 70ms.
		{ID: 1, Parent: 0, Layer: "runner", Start: 10 * ms, End: 50 * ms},
		{ID: 2, Parent: 0, Layer: "runner", Start: 20 * ms, End: 60 * ms},
		// A grandchild covers 15ms of span 1.
		{ID: 3, Parent: 1, Layer: "sim", Start: 20 * ms, End: 35 * ms},
		// A child sticking out of its parent is clipped to it.
		{ID: 4, Parent: 0, Layer: "report", Start: 90 * ms, End: 120 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 25 * ms, 40 * ms, 15 * ms, 30 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self[%d] = %v, want %v (all: %v)", i, self[i], want[i], self)
		}
	}
	byLayer := layerSelf(spans, []int{0})
	if byLayer["runner"] != 65*ms || byLayer["sim"] != 15*ms || byLayer["bench"] != 40*ms {
		t.Fatalf("layer self times = %v", byLayer)
	}
	// Only the trees under the given roots count.
	if sub := layerSelf(spans, []int{1}); sub["runner"] != 25*ms || sub["sim"] != 15*ms || len(sub) != 2 {
		t.Fatalf("subtree self times = %v", sub)
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]time.Duration{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := unionLen(iv, 0, 25); got != 3+7+5 {
		t.Fatalf("union = %v, want 15", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Fatalf("empty union = %v", got)
	}
}

func TestBlockingSharesSumToOne(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "runner", Start: 0, End: 80},
		{ID: 2, Parent: 0, Layer: "report", Start: 85, End: 95},
		{ID: 3, Parent: 1, Layer: "sim", Start: 0, End: 80},
	}
	sh := blockingShares(spans, 0)
	if sh["runner"] != 0.8 || sh["report"] != 0.1 || sh["bench"] != 0.1 || len(sh) != 3 {
		t.Fatalf("shares = %v", sh)
	}
}

func TestTracerNilRunsBare(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do(-1, "x", "y", func(id int) { ran = id == -1 })
	if !ran {
		t.Fatal("nil tracer must still run the call")
	}
}
