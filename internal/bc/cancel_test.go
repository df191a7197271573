package bc

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphct/internal/gen"
)

// cancelBudget is how long a cancelled kernel may take to return. The
// kernels check their context between parallel rounds, so this bounds the
// cost of one in-flight round — far below an uncancelled run, which on
// these workloads takes seconds.
const cancelBudget = 500 * time.Millisecond

// checkGoroutines asserts the kernel's workers wound down after a
// cancelled run: the goroutine count returns to the pre-run baseline
// (with scheduler slack) instead of leaking abandoned workers.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCentralityCtxCancellation(t *testing.T) {
	g := gen.PreferentialAttachment(30000, 8, 1)
	opt := Options{Samples: 256, Seed: 1}

	// Warm up so lazily started infrastructure is in the baseline.
	_, _ = CentralityCtx(context.Background(), g, Options{Samples: 1, Seed: 1})
	baseline := runtime.NumGoroutine()

	// Already-cancelled: no work may start.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := CentralityCtx(ctx, g, opt)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled: res %v err %v, want nil result and context.Canceled", res, err)
	}
	if d := time.Since(start); d > cancelBudget {
		t.Fatalf("pre-cancelled call took %v, budget %v", d, cancelBudget)
	}

	// Mid-run: the uncancelled workload runs for seconds, so a 10ms
	// cancel lands while sampling is underway; the kernel must abandon
	// its remaining sources and return within the budget.
	ctx, cancel = context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	start = time.Now()
	res, err = CentralityCtx(ctx, g, opt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("mid-run cancel: res %v err %v, want nil result and context.Canceled", res, err)
	}
	if elapsed > 10*time.Millisecond+cancelBudget {
		t.Fatalf("mid-run cancel returned after %v, budget %v", elapsed, cancelBudget)
	}
	checkGoroutines(t, baseline)
}

// TestFoldedCentralityCtxCancellation is the same contract with the fold
// active: a cancelled run returns ctx.Err() promptly and winds down, and
// every sweep that had started when the context was cancelled runs to its
// end — none is abandoned halfway through its stripe.
func TestFoldedCentralityCtxCancellation(t *testing.T) {
	forceFold(t)
	g := withPendants(t, gen.PreferentialAttachment(30000, 8, 1), 20000, 2)
	opt := Options{Samples: 256, Seed: 1}
	sources, _, scale := drawSources(g, opt)
	f := planFold(g, sources)
	if f == nil {
		t.Fatal("forced fold declined")
	}
	_, _ = CentralityCtx(context.Background(), g, Options{Samples: 1, Seed: 1})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	res, err := CentralityCtx(ctx, g, opt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("mid-run cancel: res %v err %v, want nil result and context.Canceled", res, err)
	}
	if elapsed > 10*time.Millisecond+cancelBudget {
		t.Fatalf("mid-run cancel returned after %v, budget %v", elapsed, cancelBudget)
	}
	checkGoroutines(t, baseline)

	// The first sweep to start cancels the run; the sweeps already in
	// flight must still finish, and no new one may start.
	const limit = 4
	ctx, cancel = context.WithCancel(context.Background())
	var started, finished atomic.Int32
	_, err = runSources(ctx, f.core.NumVertices(), f.sweeps, scale, limit, func() sourceKernel {
		kernel := f.kernel()
		return func(s int32, sink scoreSink) {
			started.Add(1)
			cancel()
			kernel(s, sink)
			finished.Add(1)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if st, fin := started.Load(), finished.Load(); st != fin || st < 1 || st > limit {
		t.Fatalf("%d sweeps started, %d finished; want all of 1..%d started to finish", st, fin, limit)
	}
}
