package pbspgemm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pbspgemm/internal/core"
	"pbspgemm/internal/par"
	"pbspgemm/internal/semiring"
)

// TestSemiringCallbackPanicContained: a custom semiring whose Plus or Times
// panics runs its callbacks inside the PB engine's worker goroutines (and
// on the caller's goroutine at one thread). Every such call — one or two
// threads, single-shot or budgeted, through an Engine or on a caller-owned
// core workspace — must return a *par.PanicError, leak no goroutine, and
// leave the next call on the same Engine (or the same poisoned workspace)
// computing the correct product.
func TestSemiringCallbackPanicContained(t *testing.T) {
	a := NewRMAT(9, 8, 81)
	ga, gb := Float64Matrix(a).ToCSC(), Float64Matrix(a)
	// min is exact, so the reference is bit-identical at any tiling.
	want, err := MultiplyOver(MinPlus(), ga, gb)
	if err != nil {
		t.Fatal(err)
	}
	mp := MinPlus()
	panicking := map[string]Semiring[float64]{
		"plus": {Name: "panicking-plus", Zero: mp.Zero, Times: mp.Times,
			Plus: func(x, y float64) float64 { panic("plus callback") }},
		"times": {Name: "panicking-times", Zero: mp.Zero, Plus: mp.Plus,
			Times: func(x, y float64) float64 { panic("times callback") }},
	}
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ws := core.NewWorkspace()
	ctx := context.Background()
	before := runtime.NumGoroutine()
	var engineCalls int64
	for name, sr := range panicking {
		for _, threads := range []int{1, 2} {
			for _, budget := range []int64{0, 1 << 12} {
				tag := fmt.Sprintf("%s threads=%d budget=%d", name, threads, budget)
				opts := []Option{WithThreads(threads), WithMemoryBudget(budget)}
				var pe *par.PanicError
				_, err := EngineMultiplyOver(eng, ctx, sr, ga, gb, opts...)
				engineCalls++
				if !errors.As(err, &pe) {
					t.Fatalf("%s: engine call returned %v, want *par.PanicError", tag, err)
				}
				got, err := EngineMultiplyOver(eng, ctx, MinPlus(), ga, gb, opts...)
				if err != nil || !sameBits(Float64CSR(want), Float64CSR(got)) {
					t.Fatalf("%s: next engine call err=%v or its product differs", tag, err)
				}

				copt := core.Options{Threads: threads, MemoryBudgetBytes: budget, Workspace: ws}
				if _, _, err := semiring.MultiplyOpts(sr, ga, gb, copt); !errors.As(err, &pe) {
					t.Fatalf("%s: workspace call returned %v, want *par.PanicError", tag, err)
				}
				if !ws.Poisoned() {
					t.Fatalf("%s: panicked run did not poison its workspace", tag)
				}
				gc, _, err := semiring.MultiplyOpts(MinPlus(), ga, gb, copt)
				if err != nil || !sameBits(Float64CSR(want), Float64CSR(gc)) {
					t.Fatalf("%s: next call on the poisoned workspace err=%v or its product differs", tag, err)
				}
			}
		}
	}
	if m := eng.Metrics(); m.Panics != engineCalls {
		t.Fatalf("engine counted %d panics, want %d", m.Panics, engineCalls)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after panicking semiring calls",
				before, runtime.NumGoroutine())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
