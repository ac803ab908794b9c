package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/qos"
)

const (
	// batchSize is the accesses per SubmitBatch call.
	batchSize = 64
	// numClients is the closed-loop client count: no more client
	// goroutines than the 2-CPU hosts the benchmark targets have.
	numClients = 2
)

// rig is one sharded directory with an engine over it; slices holds
// the timing decorators when the rig is traced.
type rig struct {
	dir    *directory.ShardedDirectory
	eng    *engine.Engine
	slices []*timedDir
}

// newRig builds the directory and engine (default options). A non-nil
// tracer wraps every slice in a timing decorator.
func newRig(g geom, t *tracer) (*rig, error) {
	r := &rig{}
	spec := g.slice()
	dir, err := directory.NewShardedHome(g.shards, g.home, func(int) directory.Directory {
		d := directory.MustBuild(spec)
		if t == nil {
			return d
		}
		td := newTimedDir(d, t, nil)
		td.off = true
		r.slices = append(r.slices, td)
		return td
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(dir, engine.Options{})
	if err != nil {
		return nil, err
	}
	r.dir, r.eng = dir, eng
	return r, nil
}

// clientResult is what one closed-loop client saw.
type clientResult struct {
	batches, accesses, failed uint64
	firstErr                  error
	lat                       []float64 // ns, SubmitBatch call to ticket done
	ends                      []float64 // ns since the phase started, per completed batch
	submit, wait              []float64 // ns, traced runs only
	clientNs                  float64   // total client.batch span time
}

// loadResult merges the clients of one closed-loop phase.
type loadResult struct {
	clients []clientResult
	elapsed time.Duration
}

func (l loadResult) accesses() (n uint64) {
	for _, c := range l.clients {
		n += c.accesses
	}
	return n
}

func (l loadResult) failed() (n uint64) {
	for _, c := range l.clients {
		n += c.failed
	}
	return n
}

func (l loadResult) batches() (n uint64) {
	for _, c := range l.clients {
		n += c.batches
	}
	return n
}

func (l loadResult) collect(f func(c clientResult) []float64) []float64 {
	var out []float64
	for _, c := range l.clients {
		out = append(out, f(c)...)
	}
	return out
}

func (l loadResult) firstErr() error {
	for _, c := range l.clients {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// drive runs numClients closed-loop clients, each keeping one batch
// outstanding: client c submits batches c, c+numClients, ... cycling
// over its share. Every client makes at least passes passes over its
// share and keeps going until d has elapsed. A
// non-nil tracer records client.batch spans with engine.submit and
// engine.wait children.
func drive(eng *engine.Engine, batches [][]directory.Access, passes int, d time.Duration, t *tracer) loadResult {
	res := loadResult{clients: make([]clientResult, numClients)}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < numClients; c++ {
		var rec *recorder
		if t != nil {
			rec = t.recorder()
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res.clients[c] = client(eng, batches, c, passes, start, deadline, rec)
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func client(eng *engine.Engine, batches [][]directory.Access, c, passes int, start, deadline time.Time, rec *recorder) clientResult {
	ctx := context.Background()
	var mine [][]directory.Access
	for i := c; i < len(batches); i += numClients {
		mine = append(mine, batches[i])
	}
	var cr clientResult
	fail := func(n int, err error) {
		cr.failed += uint64(n)
		if cr.firstErr == nil {
			cr.firstErr = err
		}
	}
	for i := 0; len(mine) > 0; i++ {
		t0 := time.Now()
		if i >= passes*len(mine) && !t0.Before(deadline) {
			break
		}
		b := mine[i%len(mine)]
		tk, err := eng.SubmitBatch(ctx, b)
		t1 := time.Now()
		if err != nil {
			fail(len(b), fmt.Errorf("SubmitBatch: %w", err))
			continue
		}
		err = tk.Wait(ctx)
		t2 := time.Now()
		if err != nil {
			fail(len(b), fmt.Errorf("ticket: %w", err))
		} else if ops := tk.Ops(); len(ops) != len(b) {
			fail(len(b), fmt.Errorf("ticket returned %d ops for %d accesses", len(ops), len(b)))
		} else {
			cr.accesses += uint64(len(b))
		}
		cr.batches++
		cr.lat = append(cr.lat, float64(t2.Sub(t0)))
		cr.ends = append(cr.ends, float64(t2.Sub(start)))
		if rec != nil {
			te := time.Now()
			id := rec.next()
			rec.add("engine.submit", rec.next(), id, stamp(t0), stamp(t1), 0)
			rec.add("engine.wait", rec.next(), id, stamp(t1), stamp(t2), 0)
			rec.add("client.batch", id, 0, stamp(t0), stamp(te), int64(t2.Sub(t0)))
			cr.submit = append(cr.submit, float64(t1.Sub(t0)))
			cr.wait = append(cr.wait, float64(t2.Sub(t1)))
			cr.clientNs += float64(te.Sub(t0))
		}
	}
	return cr
}

// enginePhase is one set-up plus measured phase of an engine rig.
type enginePhase struct {
	rig        *rig
	setup      time.Duration
	warm, meas loadResult
	proc       procStats
	statsWarm  engine.Stats
	statsEnd   engine.Stats
	ctrWarm    directory.ShardCounters
	ctrEnd     directory.ShardCounters
	closeErr   error
}

// setupEngine builds a rig and warms it with one closed-loop pass over
// warm; a traced rig's decorators stay off until measure.
func setupEngine(g geom, warm [][]directory.Access, t *tracer) (*enginePhase, error) {
	t0 := time.Now()
	r, err := newRig(g, t)
	if err != nil {
		return nil, err
	}
	p := &enginePhase{rig: r}
	p.warm = drive(r.eng, warm, 1, 0, nil)
	p.setup = time.Since(t0)
	return p, nil
}

// measure runs closed-loop load over batches for at least passes
// passes and at least d, then closes the engine so its counters are
// final.
func (p *enginePhase) measure(batches [][]directory.Access, passes int, d time.Duration, t *tracer) {
	r := p.rig
	for _, s := range r.slices {
		s.off = false
	}
	p.statsWarm, p.ctrWarm = r.eng.Stats(), r.dir.Counters()
	p0 := readProc()
	p.meas = drive(r.eng, batches, passes, d, t)
	p.proc = readProc().sub(p0)
	p.closeErr = r.eng.Close()
	p.statsEnd, p.ctrEnd = r.eng.Stats(), r.dir.Counters()
}

// check applies the engine correctness gate: every ticket completed
// cleanly with one Op per access, the engine accounts for every access
// it was given, and the directory applied exactly the measured
// accesses.
func (p *enginePhase) check(rep *report, label string) {
	for _, l := range []loadResult{p.warm, p.meas} {
		if err := l.firstErr(); err != nil {
			rep.check(false, "%s: %v", label, err)
		}
	}
	rep.check(p.closeErr == nil, "%s: close: %v", label, p.closeErr)
	st := p.statsEnd
	given := p.warm.accesses() + p.warm.failed() + p.meas.accesses() + p.meas.failed()
	rep.check(st.SubmittedAccesses == given && st.CompletedAccesses == given,
		"%s: engine submitted %d completed %d, clients gave %d", label, st.SubmittedAccesses, st.CompletedAccesses, given)
	applied := p.ctrEnd.Ops() - p.ctrWarm.Ops()
	rep.check(applied == p.meas.accesses(),
		"%s: directory applied %d operations in the measured phase, clients completed %d", label, applied, p.meas.accesses())
	fg := st.Classes[qos.Foreground]
	rep.check(st.Rejected == 0 && st.Shed == 0 && st.ErredAccesses == 0,
		"%s: engine rejected %d, shed %d, erred %d", label, st.Rejected, st.Shed, st.ErredAccesses)
	rep.check(fg.CompletedAccesses == st.CompletedAccesses,
		"%s: foreground completed %d of %d accesses", label, fg.CompletedAccesses, st.CompletedAccesses)
}

// delta returns the counter growth from a to b.
func delta(b, a directory.ShardCounters) directory.ShardCounters {
	return directory.ShardCounters{
		Reads: b.Reads - a.Reads, Writes: b.Writes - a.Writes, Evicts: b.Evicts - a.Evicts,
		Inserts: b.Inserts - a.Inserts, Attempts: b.Attempts - a.Attempts,
		Forced: b.Forced - a.Forced, ForcedBlocks: b.ForcedBlocks - a.ForcedBlocks,
	}
}

// crossCheck replays a short stream through an engine with one client
// (one batch outstanding) and through sequential direct ApplyShardOps
// calls on a second directory of the same geometry, and requires the
// two to agree op for op and in their final Len, Inserts, Attempts and
// Forced. The geometry is shrunk so the stream overflows it and the
// displacement and forced-eviction paths are compared too.
func crossCheck(g geom, accs []directory.Access, rep *report) {
	g.sets = max(64, g.sets/32)
	viaEngine, err := newRig(g, nil)
	if err != nil {
		rep.check(false, "cross-check: %v", err)
		return
	}
	direct, err := directory.NewShardedHome(g.shards, g.home, func(int) directory.Directory { return directory.MustBuild(g.slice()) })
	if err != nil {
		rep.check(false, "cross-check: %v", err)
		return
	}
	ctx := context.Background()
	parts := make([][]directory.Access, g.shards)
	idx := make([][]int, g.shards)
	ops := make([]directory.Op, batchSize)
	mismatch := 0
	for _, b := range batchesOf(accs, batchSize) {
		tk, err := viaEngine.eng.SubmitBatch(ctx, b)
		if err == nil {
			err = tk.Wait(ctx)
		}
		if err != nil {
			rep.check(false, "cross-check: engine: %v", err)
			return
		}
		got := tk.Ops()
		for h := range parts {
			parts[h], idx[h] = parts[h][:0], idx[h][:0]
		}
		for i, a := range b {
			h := direct.ShardOf(a.Addr)
			parts[h] = append(parts[h], a)
			idx[h] = append(idx[h], i)
		}
		for h, part := range parts {
			if len(part) == 0 {
				continue
			}
			direct.ApplyShardOps(h, part, ops[:len(part)])
			for k, i := range idx[h] {
				if !sameOp(got[i], ops[k]) {
					mismatch++
				}
			}
		}
	}
	if err := viaEngine.eng.Close(); err != nil {
		rep.check(false, "cross-check: close: %v", err)
	}
	a, b := viaEngine.dir.Counters(), direct.Counters()
	rep.check(mismatch == 0, "cross-check: %d ops differ between the engine and direct ApplyShardOps", mismatch)
	rep.check(viaEngine.dir.Len() == direct.Len() && a.Inserts == b.Inserts && a.Attempts == b.Attempts && a.Forced == b.Forced,
		"cross-check: engine len/inserts/attempts/forced %d/%d/%d/%d, direct %d/%d/%d/%d",
		viaEngine.dir.Len(), a.Inserts, a.Attempts, a.Forced, direct.Len(), b.Inserts, b.Attempts, b.Forced)
	note("cross-check: %d accesses on %s: len %d inserts %d attempts %d forced %d, engine == direct ApplyShardOps: %v",
		len(accs), g, direct.Len(), b.Inserts, b.Attempts, b.Forced, mismatch == 0)
}

func sameOp(a, b directory.Op) bool {
	if a.Invalidate != b.Invalidate || a.Attempts != b.Attempts || len(a.Forced) != len(b.Forced) {
		return false
	}
	for i := range a.Forced {
		if a.Forced[i] != b.Forced[i] {
			return false
		}
	}
	return true
}
