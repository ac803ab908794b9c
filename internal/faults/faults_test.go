package faults

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestTriggerCounters: After skips, Count bounds, Key filters — the
// deterministic core of the trigger model.
func TestTriggerCounters(t *testing.T) {
	in := New()
	in.Arm(GrowBuildFail, Trigger{Key: AnyKey, After: 2, Count: 3})
	var fires []int
	for i := 0; i < 10; i++ {
		if in.Fire(GrowBuildFail, 0) != nil {
			fires = append(fires, i)
		}
	}
	want := []int{2, 3, 4}
	if len(fires) != len(want) {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fires, want)
		}
	}
	if in.Hits(GrowBuildFail) != 10 || in.Fired(GrowBuildFail) != 3 {
		t.Errorf("hits/fired = %d/%d, want 10/3", in.Hits(GrowBuildFail), in.Fired(GrowBuildFail))
	}
}

// TestTriggerKeyFilter: a keyed trigger ignores other keys entirely —
// they don't fire AND don't advance the After/Count counters.
func TestTriggerKeyFilter(t *testing.T) {
	in := New()
	in.Arm(QueueSaturation, Trigger{Key: 3, Count: 1})
	for i := 0; i < 5; i++ {
		if in.Fire(QueueSaturation, 1) != nil {
			t.Fatal("trigger keyed to 3 fired on key 1")
		}
	}
	if in.Fire(QueueSaturation, 3) == nil {
		t.Fatal("trigger keyed to 3 did not fire on key 3")
	}
	if in.Fire(QueueSaturation, 3) != nil {
		t.Fatal("Count=1 trigger fired twice")
	}
}

// TestTriggerCustomError: GrowBuildFail carries Trigger.Err when set,
// ErrInjected otherwise.
func TestTriggerCustomError(t *testing.T) {
	boom := errors.New("boom")
	in := New()
	in.Arm(GrowBuildFail, Trigger{Key: AnyKey, Err: boom})
	if err := in.Fire(GrowBuildFail, 0); !errors.Is(err, boom) {
		t.Errorf("Fire with Trigger.Err = %v, want boom", err)
	}
	in2 := New()
	in2.Arm(GrowBuildFail, Trigger{Key: AnyKey})
	if err := in2.Fire(GrowBuildFail, 0); !errors.Is(err, ErrInjected) {
		t.Errorf("Fire without Trigger.Err = %v, want ErrInjected", err)
	}
}

// TestProbabilisticReproducible: same seed, same hit sequence → same
// fire pattern; the repo-wide reproducibility rule covers chaos too.
func TestProbabilisticReproducible(t *testing.T) {
	pattern := func(seed uint64) []bool {
		in := New()
		in.Arm(QueueSaturation, Trigger{Key: AnyKey, Prob: 0.5, Seed: seed})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fire(QueueSaturation, 0) != nil
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d diverged across identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	// A 0.5 stream firing never (or always) over 64 hits means Prob is
	// being ignored.
	if fired == 0 || fired == 64 {
		t.Errorf("Prob=0.5 fired %d/64 hits", fired)
	}
	c := pattern(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fire patterns")
	}
}

// TestStallReleaseAndRetire: Release unparks a stalled goroutine and
// retires the trigger — later hits fall through without stalling.
func TestStallReleaseAndRetire(t *testing.T) {
	in := New()
	a := in.Arm(DrainerStall, Trigger{Key: AnyKey})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		in.Hit(DrainerStall, 0, stop)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("stall hit returned before Release")
	case <-time.After(20 * time.Millisecond):
	}
	a.Release()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("stall hit did not return after Release")
	}
	// Retired: the next hit must not park.
	finished := make(chan struct{})
	go func() {
		in.Hit(DrainerStall, 0, stop)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("retired stall trigger parked a later hit")
	}
	a.Release() // idempotent
}

// TestStallBreaksOnStop: the engine's stop channel unparks a stall that
// is never Released — Close must not wait on test discipline.
func TestStallBreaksOnStop(t *testing.T) {
	in := New()
	in.Arm(DrainerStall, Trigger{Key: AnyKey})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		in.Hit(DrainerStall, 0, stop)
		close(done)
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("stall hit did not return after stop closed")
	}
}

// TestDisarmReleasesStalls: Disarm drops every trigger at the point and
// unparks anything stalled on them.
func TestDisarmReleasesStalls(t *testing.T) {
	in := New()
	in.Arm(DrainerStall, Trigger{Key: AnyKey})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			in.Hit(DrainerStall, k, stop)
		}(i)
	}
	// Disarm only once all three are parked on the gate, so the release
	// itself is what the test exercises.
	for deadline := time.Now().Add(5 * time.Second); in.Fired(DrainerStall) < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 goroutines stalled", in.Fired(DrainerStall))
		}
		time.Sleep(time.Millisecond)
	}
	in.Disarm(DrainerStall)
	donec := make(chan struct{})
	go func() { wg.Wait(); close(donec) }()
	select {
	case <-donec:
	case <-time.After(time.Second):
		t.Fatal("Disarm did not release stalled goroutines")
	}
	if got := in.armed(DrainerStall); got != nil {
		t.Errorf("armed after Disarm = %v, want nil", got)
	}
}

// TestInjectedPanicValue: panic points throw an InjectedPanic carrying
// the point and key, so containment code can tell injected from real.
func TestInjectedPanicValue(t *testing.T) {
	in := New()
	in.Arm(ApplyPanic, Trigger{Key: 5})
	defer func() {
		p := recover()
		ip, ok := p.(InjectedPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want InjectedPanic", p, p)
		}
		if ip.Point != ApplyPanic || ip.Key != 5 {
			t.Errorf("InjectedPanic = %+v, want {ApplyPanic 5}", ip)
		}
		if ip.Error() == "" {
			t.Error("InjectedPanic.Error() empty")
		}
	}()
	in.Hit(ApplyPanic, 5, nil)
	t.Fatal("armed ApplyPanic hit did not panic")
}

// TestDrainerDelaySleeps: a fired delay hit blocks for about
// Trigger.Delay, and the stop channel cuts it short.
func TestDrainerDelaySleeps(t *testing.T) {
	in := New()
	in.Arm(DrainerDelay, Trigger{Key: AnyKey, Delay: 30 * time.Millisecond})
	start := time.Now()
	in.Hit(DrainerDelay, 0, nil)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("delay hit returned after %v, want ~30ms", d)
	}
	stop := make(chan struct{})
	close(stop)
	start = time.Now()
	in.Hit(DrainerDelay, 0, stop)
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("delay hit with closed stop took %v, want immediate", d)
	}
}

// TestNilInjectorHitFire: a disabled (nil) injector is the common case;
// the engine guards with nil checks, but the methods themselves must
// also be safe on an empty injector.
func TestUnarmedInjector(t *testing.T) {
	in := New()
	if err := in.Fire(GrowBuildFail, 0); err != nil {
		t.Errorf("unarmed Fire = %v, want nil", err)
	}
	in.Hit(DrainerStall, 0, nil) // must not park or panic
	if in.Hits(GrowBuildFail) != 1 || in.Fired(GrowBuildFail) != 0 {
		t.Errorf("hits/fired = %d/%d, want 1/0", in.Hits(GrowBuildFail), in.Fired(GrowBuildFail))
	}
}

// TestRegistry: the name-keyed table tests and the CLI use to hand an
// injector to a component without plumbing it through every layer.
func TestRegistry(t *testing.T) {
	in := New()
	Register("t-reg", in)
	defer Unregister("t-reg")
	got, ok := Lookup("t-reg")
	if !ok || got != in {
		t.Fatalf("Lookup = %v,%v, want the registered injector", got, ok)
	}
	found := false
	for _, n := range Names() {
		if n == "t-reg" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing t-reg", Names())
	}
	Unregister("t-reg")
	if _, ok := Lookup("t-reg"); ok {
		t.Error("Lookup after Unregister still found the injector")
	}
	if _, ok := Lookup("never-registered"); ok {
		t.Error("Lookup of unknown name reported ok")
	}
}

// TestPointString: every point names itself.
func TestPointString(t *testing.T) {
	for p := Point(0); p < numPoints; p++ {
		if s := p.String(); s == "" || s[0] == 'P' {
			t.Errorf("Point(%d).String() = %q", p, s)
		}
	}
	if s := Point(200).String(); s != "Point(200)" {
		t.Errorf("unknown point String() = %q", s)
	}
}
