package failpoint

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestArmSpecParsing(t *testing.T) {
	for _, bad := range []string{
		"",              // no name
		"=error",        // empty name
		"p",             // no action
		"p=explode",     // unknown action
		"p=delay",       // delay without duration
		"p=delay(soon)", // unparseable duration
		"p=error*0",     // zero budget
		"p=error*-1",    // negative budget
		"p=error%0",     // zero probability
		"p=error%101",   // probability > 100
		"p=error*2%x",   // bad probability
		"p=error(msg)*2%10 junk",
	} {
		r := NewRegistry()
		if err := r.Arm(bad); err == nil {
			t.Errorf("Arm(%q) accepted a malformed term", bad)
		}
	}
	r := NewRegistry()
	if err := r.ArmAll("a=error(boom)*2; b=delay(3ms)%50 ;c=panic"); err != nil {
		t.Fatalf("ArmAll: %v", err)
	}
	st := r.List()
	if len(st) != 3 || st[0].Name != "a" || st[1].Name != "b" || st[2].Name != "c" {
		t.Fatalf("List = %+v, want a,b,c", st)
	}
	if st[0].Spec != "error(boom)*2" || st[1].Spec != "delay(3ms)%50" || st[2].Spec != "panic(injected panic)" {
		t.Fatalf("round-tripped specs = %q %q %q", st[0].Spec, st[1].Spec, st[2].Spec)
	}
}

func TestErrorBudget(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm("p=error(kaboom)*2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := r.Eval("p")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("eval %d: %v, want injected error", i, err)
		}
		var fe *Error
		if !errors.As(err, &fe) || fe.Point != "p" || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("eval %d: error %v lacks point/message", i, err)
		}
	}
	// Budget exhausted: the point stays listed but inert.
	if err := r.Eval("p"); err != nil {
		t.Fatalf("post-budget eval: %v, want nil", err)
	}
	st := r.List()
	if len(st) != 1 || st[0].Budget != 0 || st[0].Fires != 2 || st[0].Evals != 3 {
		t.Fatalf("status after exhaustion = %+v", st)
	}
	if err := r.Eval("never-armed"); err != nil {
		t.Fatalf("unknown point: %v, want nil", err)
	}
}

func TestPanicActionAndValue(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm("p=panic(chaos)*1"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		pv, ok := v.(PanicValue)
		if !ok || pv.Point != "p" || pv.Msg != "chaos" {
			t.Fatalf("recovered %#v, want PanicValue{p, chaos}", v)
		}
		// The budget was consumed: a second eval is inert.
		if err := r.Eval("p"); err != nil {
			t.Fatalf("post-panic eval: %v", err)
		}
	}()
	_ = r.Eval("p")
	t.Fatal("Eval did not panic")
}

func TestDelayAction(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm("p=delay(30ms)*1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Eval("p"); err != nil {
		t.Fatalf("delay eval returned error %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay eval returned after %v, want >= 30ms", d)
	}
}

// TestProbabilityIsSeededAndRoughlyCalibrated pins both determinism (same
// seed, same firing pattern) and calibration (≈10% over many evals).
func TestProbabilityIsSeededAndRoughlyCalibrated(t *testing.T) {
	pattern := func(seed int64) []bool {
		r := NewRegistry()
		r.Seed(seed)
		if err := r.Arm("p=error%10"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 2000)
		for i := range out {
			out[i] = r.Eval("p") != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at eval %d", i)
		}
		if a[i] {
			fires++
		}
	}
	// 2000 evals at 10%: expect ~200; accept a generous band.
	if fires < 120 || fires > 300 {
		t.Fatalf("10%% arm fired %d/2000 times, outside [120, 300]", fires)
	}
}

// TestConcurrentEval drives one point from many goroutines to give the
// race detector a target and to check the budget is never oversubscribed.
func TestConcurrentEval(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm("p=error*100"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	fired := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if r.Eval("p") != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if fired != 100 {
		t.Fatalf("budget 100 fired %d times under concurrency", fired)
	}
}

func TestDisarm(t *testing.T) {
	r := NewRegistry()
	if err := r.ArmAll("a=error;b=error"); err != nil {
		t.Fatal(err)
	}
	if !r.Disarm("a") || r.Disarm("a") {
		t.Fatal("Disarm existence reporting wrong")
	}
	if err := r.Eval("a"); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
	r.DisarmAll()
	if err := r.Eval("b"); err != nil {
		t.Fatalf("point fired after DisarmAll: %v", err)
	}
	if len(r.List()) != 0 {
		t.Fatalf("List after DisarmAll = %+v", r.List())
	}
}
