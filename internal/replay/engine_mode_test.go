package replay

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/qos"
)

// TestEngineModeMatchesDirect: a single-producer replay leaves the
// directory exactly as applying the stream one access at a time, in
// stream order, through ApplyShard does — identical lock-free counters,
// block count and per-address sharers. The engine is per-shard FIFO, so
// this holds for every drainer count.
func TestEngineModeMatchesDirect(t *testing.T) {
	const n = 20_000
	ref := testDir(t, 8)
	src := Synthesize(testProfile(t), testCores, 3, n)
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		a, err := recordAccess(rec, testCores)
		if err != nil {
			t.Fatal(err)
		}
		ref.ApplyShard(ref.ShardOf(a.Addr), []directory.Access{a})
	}
	for _, drainers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("drainers=%d", drainers), func(t *testing.T) {
			d := testDir(t, 8)
			res, err := Run(d, Synthesize(testProfile(t), testCores, 3, n),
				Options{BatchSize: 128, Engine: engine.Options{Drainers: drainers}})
			if err != nil {
				t.Fatal(err)
			}
			checkConserved(t, d, res, n)
			if res.Producers != 1 || res.Drainers != drainers {
				t.Fatalf("result mislabeled: producers=%d drainers=%d", res.Producers, res.Drainers)
			}
			assertSameDirectory(t, d, ref)
		})
	}
}

// TestEngineModeSourceError: a source error drops exactly the pending
// partial batch and reports it, whatever the engine's drainer count.
func TestEngineModeSourceError(t *testing.T) {
	for _, drainers := range []int{1, 4} {
		d := testDir(t, 2)
		res, err := Run(d, &errSource{n: 700}, Options{BatchSize: 256, Engine: engine.Options{Drainers: drainers}})
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("drainers=%d: error = %v", drainers, err)
		}
		checkConserved(t, d, res, 700)
		if res.Accesses != 512 || res.Dropped != 700-512 {
			t.Fatalf("drainers=%d: applied %d, dropped %d; want 512 and 188", drainers, res.Accesses, res.Dropped)
		}
		if !strings.Contains(res.String(), "DROPPED") {
			t.Fatalf("drainers=%d: String() hides the drop: %q", drainers, res.String())
		}
	}
}

// TestEngineModeBadCore: out-of-range record cores fail cleanly with
// explicit engine knobs too, and nothing is applied.
func TestEngineModeBadCore(t *testing.T) {
	small, err := directory.BuildSharded(directory.Spec{
		Org: directory.OrgCuckoo, NumCaches: 4,
		Geometry: directory.Geometry{Ways: 4, Sets: 64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{src: Synthesize(testProfile(t), testCores, 0, 100)}
	res, err := Run(small, src, Options{Engine: engine.Options{Drainers: 2, QueueDepth: 4}})
	if err == nil {
		t.Fatal("core 4+ accepted by a 4-cache directory")
	}
	checkConserved(t, small, res, src.read)
	if res.Accesses != 0 || res.Dropped == 0 {
		t.Fatalf("bad-core run applied %d, dropped %d", res.Accesses, res.Dropped)
	}
}

// TestEngineModeKnobs: engine options flow through, and the effective
// drainer count is echoed in Drainers.
func TestEngineModeKnobs(t *testing.T) {
	d := testDir(t, 8)
	res, err := Run(d, Synthesize(testProfile(t), testCores, 1, 2000), Options{
		BatchSize: 64,
		Engine:    engine.Options{Drainers: 2, QueueDepth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, 2000)
	if res.Drainers != 2 {
		t.Fatalf("Drainers = %d, want 2", res.Drainers)
	}
	if res.Accesses != 2000 {
		t.Fatalf("applied %d", res.Accesses)
	}
}

// TestRunMulti: concurrent producers over one engine apply every
// source's records exactly once.
func TestRunMulti(t *testing.T) {
	const producers, per = 4, 5000
	d := testDir(t, 8)
	srcs := make([]Source, producers)
	for i := range srcs {
		srcs[i] = Synthesize(testProfile(t), testCores, uint64(10+i), per)
	}
	res, err := RunMulti(d, srcs, Options{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, producers*per)
	if res.Accesses != producers*per {
		t.Fatalf("applied %d, want %d", res.Accesses, producers*per)
	}
	if res.Producers != producers {
		t.Fatalf("Producers = %d", res.Producers)
	}
	if _, err := RunMulti(d, nil, Options{}); err == nil {
		t.Fatal("RunMulti accepted zero sources")
	}
}

// TestRunMultiSourceError: one erroring producer reports its error and
// dropped count; the other producers' records still all apply.
func TestRunMultiSourceError(t *testing.T) {
	d := testDir(t, 4)
	srcs := []Source{
		Synthesize(testProfile(t), testCores, 1, 4000),
		&errSource{n: 300},
	}
	res, err := RunMulti(d, srcs, Options{BatchSize: 256})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("error = %v", err)
	}
	checkConserved(t, d, res, 4000+300)
	if res.Dropped == 0 {
		t.Fatal("the 300-record source must drop its partial batch")
	}
}

// TestBackgroundMix: Options.Background steers that fraction of
// batches into the Background class via the debt accumulator — both
// classes see traffic in the report, their access counts sum to the
// stream, and the result line prints the per-class rows.
func TestBackgroundMix(t *testing.T) {
	const n = 20_000
	d := testDir(t, 8)
	res, err := Run(d, Synthesize(testProfile(t), testCores, 5, n), Options{
		BatchSize:  100,
		Background: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, n)
	if res.Accesses != n {
		t.Fatalf("applied %d, want %d", res.Accesses, n)
	}
	fg, bg := res.Classes[qos.Foreground], res.Classes[qos.Background]
	if fg.SubmittedAccesses+bg.SubmittedAccesses != n {
		t.Fatalf("class submissions %d+%d != %d", fg.SubmittedAccesses, bg.SubmittedAccesses, n)
	}
	// 25% of 200 batches, deterministically: the debt accumulator fires
	// every 4th batch.
	if want := uint64(n / 4); bg.SubmittedAccesses != want {
		t.Fatalf("background accesses = %d, want %d", bg.SubmittedAccesses, want)
	}
	if bg.CompletedAccesses != bg.SubmittedAccesses || fg.CompletedAccesses != fg.SubmittedAccesses {
		t.Fatalf("classes not fully drained: fg %d/%d bg %d/%d",
			fg.CompletedAccesses, fg.SubmittedAccesses, bg.CompletedAccesses, bg.SubmittedAccesses)
	}
	if fg.Samples == 0 || bg.Samples == 0 || fg.P50 <= 0 || bg.P50 <= 0 {
		t.Fatalf("per-class latency missing: fg %+v bg %+v", fg, bg)
	}
	s := res.String()
	if !strings.Contains(s, "fg p50=") || !strings.Contains(s, "bg p50=") {
		t.Fatalf("String() hides the per-class rows: %q", s)
	}
}

// TestBackgroundValidation: the class mix is a fraction — out-of-range
// values are rejected before anything is applied.
func TestBackgroundValidation(t *testing.T) {
	src := func() Source { return Synthesize(testProfile(t), testCores, 1, 100) }
	for _, bad := range []float64{-0.1, 1.5} {
		d := testDir(t, 2)
		if _, err := Run(d, src(), Options{Background: bad}); err == nil {
			t.Fatalf("Background=%v accepted", bad)
		}
		if ops := d.Counters().Ops(); ops != 0 {
			t.Fatalf("rejected Background=%v still applied %d ops", bad, ops)
		}
	}
	// Background=1 is a valid degenerate mix: everything Background.
	d := testDir(t, 2)
	res, err := Run(d, src(), Options{Background: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, 100)
	if res.Classes[qos.Background].SubmittedAccesses != 100 {
		t.Fatalf("all-background run submitted %d bg accesses, want 100",
			res.Classes[qos.Background].SubmittedAccesses)
	}
}
