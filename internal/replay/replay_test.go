package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/trace"
	"cuckoodir/internal/workload"
)

const testCores = 16

func testProfile(t testing.TB) workload.Profile {
	prof, err := workload.ByName("oracle")
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func testDir(t testing.TB, shards int) *directory.ShardedDirectory {
	spec := directory.Spec{
		Org:       directory.OrgCuckoo,
		NumCaches: testCores,
		Geometry:  directory.Geometry{Ways: 4, Sets: 1024},
	}
	d, err := directory.BuildSharded(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSynthesizeMatchesCapture: the trace-free source produces exactly
// the records trace.Capture writes for the same arguments.
func TestSynthesizeMatchesCapture(t *testing.T) {
	prof := testProfile(t)
	const n = 4096
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, prof, testCores, 42, n); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src := Synthesize(prof, testCores, 42, n)
	for i := 0; i < n; i++ {
		want, err := rd.Read()
		if err != nil {
			t.Fatalf("record %d: trace read: %v", i, err)
		}
		got, err := src.Next()
		if err != nil {
			t.Fatalf("record %d: synth: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: synth %+v != captured %+v", i, got, want)
		}
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("synth after n records: %v, want EOF", err)
	}
}

// countingSource counts the records its inner source yields, so a test
// knows how many records a run read even when it stops early.
type countingSource struct {
	src  Source
	read uint64
}

func (c *countingSource) Next() (trace.Record, error) {
	rec, err := c.src.Next()
	if err == nil {
		c.read++
	}
	return rec, err
}

// checkConserved asserts the replay conservation laws on a run over a
// fresh directory: every record read is applied or dropped, the
// directory saw exactly the applied accesses, and every class completed
// what it submitted, the classes together accounting for every applied
// access. No replay test injects apply faults, so nothing may err.
func checkConserved(t *testing.T, dir *directory.ShardedDirectory, res Result, read uint64) {
	t.Helper()
	if res.Accesses+res.Dropped != read {
		t.Errorf("applied %d + dropped %d != %d records read", res.Accesses, res.Dropped, read)
	}
	if ops := dir.Counters().Ops(); ops != res.Accesses {
		t.Errorf("directory counted %d ops, want the %d applied accesses", ops, res.Accesses)
	}
	var submitted uint64
	for _, c := range res.Classes {
		if c.SubmittedAccesses != c.CompletedAccesses {
			t.Errorf("class %s: submitted %d != completed %d accesses", c.Class, c.SubmittedAccesses, c.CompletedAccesses)
		}
		submitted += c.SubmittedAccesses
	}
	if submitted != res.Accesses {
		t.Errorf("classes submitted %d accesses, want the %d applied", submitted, res.Accesses)
	}
	if res.Erred != 0 {
		t.Errorf("%d accesses erred on a run without apply faults", res.Erred)
	}
}

// TestRunCountsAndStats: every record is applied exactly once, batches
// partition the stream, and the merged stats see one event per access,
// whatever the drainer count.
func TestRunCountsAndStats(t *testing.T) {
	const n = 10_000
	for _, drainers := range []int{1, 4} {
		d := testDir(t, 8)
		res, err := Run(d, Synthesize(testProfile(t), testCores, 1, n),
			Options{BatchSize: 256, Engine: engine.Options{Drainers: drainers}})
		if err != nil {
			t.Fatal(err)
		}
		checkConserved(t, d, res, n)
		if res.Accesses != n {
			t.Fatalf("drainers=%d: applied %d accesses, want %d", drainers, res.Accesses, n)
		}
		if res.Drainers != drainers || res.Producers != 1 {
			t.Fatalf("drainers=%d: result echoes %d drainers, %d producers", drainers, res.Drainers, res.Producers)
		}
		// Fixed-size batches: the last one carries the remainder.
		if want := uint64((n + 255) / 256); res.Batches != want {
			t.Fatalf("drainers=%d: %d batches, want %d", drainers, res.Batches, want)
		}
		if got := res.Stats.Events.Total(); got == 0 {
			t.Fatalf("drainers=%d: merged stats saw no events", drainers)
		}
		if res.Entries() != d.Len() || res.Entries() == 0 {
			t.Fatalf("drainers=%d: entries %d, dir len %d", drainers, res.Entries(), d.Len())
		}
		if res.Occupancy() <= 0 || res.Occupancy() > 1 {
			t.Fatalf("drainers=%d: occupancy %f out of range", drainers, res.Occupancy())
		}
		if res.ShardImbalance() < 1 {
			t.Fatalf("drainers=%d: imbalance %f < 1", drainers, res.ShardImbalance())
		}
		if s := res.String(); !strings.Contains(s, "accesses") || !strings.Contains(s, fmt.Sprintf("%d drainers", drainers)) {
			t.Fatalf("report: %q", s)
		}
	}
}

// TestSingleWorkerMatchesSequential: a single producer applies every
// shard's accesses in stream order, so directory contents are identical
// to feeding the same stream through point operations.
func TestSingleWorkerMatchesSequential(t *testing.T) {
	const n = 8192
	prof := testProfile(t)

	par := testDir(t, 4)
	res, err := Run(par, Synthesize(prof, testCores, 7, n), Options{BatchSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, par, res, n)

	seq := testDir(t, 4)
	src := Synthesize(prof, testCores, 7, n)
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if rec.Access.Write {
			seq.Write(rec.Access.Addr, rec.Core)
		} else {
			seq.Read(rec.Access.Addr, rec.Core)
		}
	}
	assertSameDirectory(t, par, seq)
}

// assertSameDirectory fails unless got and want hold identical
// counters, block counts and per-address sharer sets.
func assertSameDirectory(t *testing.T, got, want *directory.ShardedDirectory) {
	t.Helper()
	if gc, wc := got.Counters(), want.Counters(); gc != wc {
		t.Fatalf("counters diverge:\nreplay %+v\nreference %+v", gc, wc)
	}
	if got.Len() != want.Len() {
		t.Fatalf("tracked blocks: replay %d, reference %d", got.Len(), want.Len())
	}
	ref := map[uint64]uint64{}
	want.ForEach(func(addr, sharers uint64) bool { ref[addr] = sharers; return true })
	got.ForEach(func(addr, sharers uint64) bool {
		if ref[addr] != sharers {
			t.Fatalf("addr %#x: replay sharers %#x != reference %#x", addr, sharers, ref[addr])
		}
		return true
	})
}

// TestReplayTrace: end-to-end through the binary trace format.
func TestReplayTrace(t *testing.T) {
	var buf bytes.Buffer
	const n = 5000
	if _, err := trace.Capture(&buf, testProfile(t), testCores, 3, n); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := testDir(t, 8)
	res, err := ReplayTrace(d, rd, Options{BatchSize: 64, Engine: engine.Options{Drainers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, n)
	if res.Accesses != n {
		t.Fatalf("replayed %d, want %d", res.Accesses, n)
	}
}

// TestReplayTraceTooManyCores: a trace with more cores than the
// directory tracks is rejected up front.
func TestReplayTraceTooManyCores(t *testing.T) {
	var buf bytes.Buffer
	if _, err := trace.Capture(&buf, testProfile(t), 32, 0, 16); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTrace(testDir(t, 2), rd, Options{}); err == nil {
		t.Fatal("32-core trace replayed into a 16-cache directory")
	}
	if _, err := ReplayWorkload(testDir(t, 2), testProfile(t), 32, 0, 16, Options{}); err == nil {
		t.Fatal("ReplayWorkload accepted 32 cores for a 16-cache directory")
	}
}

// errSource fails after a few records; the pipeline must drain and
// report the partial count with the error.
type errSource struct{ n int }

func (s *errSource) Next() (trace.Record, error) {
	if s.n == 0 {
		return trace.Record{}, io.ErrUnexpectedEOF
	}
	s.n--
	return trace.Record{Core: 0, Access: workload.Access{Addr: uint64(s.n)}}, nil
}

func TestRunSourceError(t *testing.T) {
	d := testDir(t, 2)
	res, err := Run(d, &errSource{n: 700}, Options{BatchSize: 256})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("error = %v", err)
	}
	checkConserved(t, d, res, 700)
	// Only the two complete batches were submitted; the pending partial
	// batch is dropped on error — and the drop is REPORTED, not silent.
	if res.Accesses != 512 || res.Batches != 2 || res.Dropped != 700-512 {
		t.Fatalf("applied %d in %d batches, dropped %d; want 512 in 2, dropped 188",
			res.Accesses, res.Batches, res.Dropped)
	}
	if !strings.Contains(res.String(), "DROPPED") {
		t.Fatalf("String() hides the drop: %q", res.String())
	}
}

// TestRunSaturationCountsDropped: a batch the engine refuses is counted
// as dropped — rejection is all-or-nothing, so the tally is exact and
// every record read is still accounted for.
func TestRunSaturationCountsDropped(t *testing.T) {
	in := faults.New()
	in.Arm(faults.QueueSaturation, faults.Trigger{Key: 0, After: 3, Count: 1})
	d := testDir(t, 8)
	src := &countingSource{src: Synthesize(testProfile(t), testCores, 1, 10_000)}
	res, err := Run(d, src, Options{Engine: engine.Options{Policy: engine.RejectWhenFull, Faults: in}})
	if !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("error = %v, want the injected queue-full refusal", err)
	}
	checkConserved(t, d, res, src.read)
	if src.read != 4*DefaultBatchSize || res.Accesses != 3*DefaultBatchSize || res.Dropped != DefaultBatchSize {
		t.Fatalf("read %d, applied %d, dropped %d; want 3 batches applied and the 4th dropped",
			src.read, res.Accesses, res.Dropped)
	}
	if rej := res.Classes[qos.Foreground].Rejected; rej != 1 {
		t.Fatalf("foreground rejected %d submissions, want 1", rej)
	}
}

// TestRunCleanHasNoDrops: a clean run reports zero drops and keeps them
// out of the one-line report.
func TestRunCleanHasNoDrops(t *testing.T) {
	d := testDir(t, 2)
	res, err := Run(d, Synthesize(testProfile(t), testCores, 5, 1000), Options{BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, 1000)
	if res.Dropped != 0 || strings.Contains(res.String(), "DROPPED") {
		t.Fatalf("clean run reports drops: %d, %q", res.Dropped, res.String())
	}
}

// TestRunBadCore: a record whose core exceeds the tracked-cache count
// fails cleanly instead of panicking inside the engine, and the
// records read up to it are reported dropped.
func TestRunBadCore(t *testing.T) {
	d := testDir(t, 2) // 16 caches: fine
	res, err := Run(d, Synthesize(testProfile(t), testCores, 0, 100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, 100)
	small, err := directory.BuildSharded(directory.Spec{
		Org: directory.OrgCuckoo, NumCaches: 4,
		Geometry: directory.Geometry{Ways: 4, Sets: 64},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{src: Synthesize(testProfile(t), testCores, 0, 100)}
	res, err = Run(small, src, Options{})
	if err == nil {
		t.Fatal("core 4+ accepted by a 4-cache directory")
	}
	checkConserved(t, small, res, src.read)
	if res.Accesses != 0 || res.Dropped == 0 {
		t.Fatalf("bad-core run applied %d, dropped %d", res.Accesses, res.Dropped)
	}
}

// TestRunConcurrent exercises the pipeline with many drainers for the
// race detector.
func TestRunConcurrent(t *testing.T) {
	const n = 30_000
	d := testDir(t, 16)
	res, err := Run(d, Synthesize(testProfile(t), testCores, 9, n),
		Options{BatchSize: 128, Engine: engine.Options{Drainers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, d, res, n)
	if res.Accesses != n {
		t.Fatalf("applied %d", res.Accesses)
	}
}

// TestRunEngineAutoGrow: replay traffic through a directory carrying a
// ^grow policy makes the engine's drainers resize shards live mid-run;
// the Result reports the resizes and no entry is lost to migration.
func TestRunEngineAutoGrow(t *testing.T) {
	d, err := directory.BuildNamed("sharded-4^grow=0.5(cuckoo-4x64)", testCores)
	if err != nil {
		t.Fatal(err)
	}
	dir := d.(*directory.ShardedDirectory)
	baseCap := dir.Capacity()
	// A footprint that overruns the base capacity (so growth triggers)
	// but fits the grown directory with cuckoo headroom — the paper's
	// profiles dwarf this test-sized directory and would measure
	// overload, not migration.
	prof := workload.Profile{
		Name: "tiny", Class: "test", Table2: "test",
		CodeBlocks: 96, SharedBlocks: 192, PrivateBlocks: 64,
		CodeFrac: 0.3, SharedFrac: 0.3, WriteFrac: 0.2,
		ZipfCode: 0.9, ZipfShared: 0.85, ZipfPrivate: 0.75,
	}
	res, err := ReplayWorkload(dir, prof, testCores, 7, 60_000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, dir, res, 60_000)
	if res.Resizes.Started == 0 {
		t.Fatalf("no online resize triggered: %+v (capacity %d, entries %d)",
			res.Resizes, res.Capacity, res.Entries())
	}
	if res.Resizes.MigrationForced != 0 {
		t.Errorf("%d entries lost to forced migration evictions", res.Resizes.MigrationForced)
	}
	dir.FinishResizes()
	if dir.Capacity() <= baseCap {
		t.Errorf("capacity %d did not grow from %d", dir.Capacity(), baseCap)
	}
	if !strings.Contains(res.String(), "online resizes") {
		t.Errorf("Result.String does not report the resizes: %s", res)
	}
	// The lossless-migration invariant, end to end: every tracked block
	// visits the census exactly once.
	seen := map[uint64]bool{}
	dir.ForEach(func(a, _ uint64) bool {
		if seen[a] {
			t.Fatalf("addr %#x duplicated across old/new tables", a)
		}
		seen[a] = true
		return true
	})
	if len(seen) != res.Entries() {
		t.Errorf("census %d entries, ShardLens total %d", len(seen), res.Entries())
	}
}

// TestRunHonorsGrowPolicy: a default-options replay of the apache
// stream over an undersized ^grow directory grows it online instead of
// overflowing it — resizes complete and no entry is forcibly evicted.
func TestRunHonorsGrowPolicy(t *testing.T) {
	const n = 400_000
	d, err := directory.BuildNamed("sharded-8^grow=0.85(cuckoo-4x512)", testCores)
	if err != nil {
		t.Fatal(err)
	}
	dir := d.(*directory.ShardedDirectory)
	prof, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(dir, Synthesize(prof, testCores, 0, n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, dir, res, n)
	if res.Resizes.Completed == 0 {
		t.Fatalf("no online resize completed: %+v", res.Resizes)
	}
	if res.Stats.ForcedEvictions != 0 {
		t.Fatalf("%d forced invalidations: the ^grow policy was not honoured (%s)", res.Stats.ForcedEvictions, res)
	}
}
