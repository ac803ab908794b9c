package main

import (
	"math"
	"time"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/coherence"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/event"
)

// simChunk is the simulated references per timed Run call (16 per
// core): the simulators' analogue of a client batch.
const simChunk = 256

// simWindow is the simulated references in one measurement window,
// enough calls that each window's 99th percentile has more than ten
// samples beyond it.
const simWindow = 1 << 19

// simSnap holds a simulator's statistics at one point: simulated
// counts only, so two runs of one seed must produce equal snapshots.
type simSnap struct {
	refs                                  uint64
	hits, misses, upgrades, invalidations uint64
	inserts, attempts, forced             uint64
	dirLen, dirCap                        int
	occupancy                             float64
	cycles, meshMsgs, meshBytes           uint64
	missLatency                           float64
}

// sim is the part of a simulator the benchmark drives.
type sim interface {
	run(n int)
	resetStats()
	snap(refs uint64) simSnap
	// check audits caches against the directory; it may end the
	// simulation (the protocol simulator drains first).
	check() error
}

func dirSnap(s *simSnap, ds *directory.Stats, slices []directory.Directory) {
	s.inserts = ds.Events.Get(core.EvInsertTag)
	s.attempts = uint64(math.Round(ds.Attempts.Mean() * float64(ds.Attempts.Count())))
	s.forced = ds.ForcedEvictions
	for _, d := range slices {
		s.dirLen += d.Len()
		s.dirCap += d.Capacity()
	}
}

type functionalSim struct{ s *cmpsim.System }

func (f functionalSim) run(n int)    { f.s.Run(n) }
func (f functionalSim) resetStats()  { f.s.ResetStats() }
func (f functionalSim) check() error { return f.s.CheckConsistency() }
func (f functionalSim) snap(refs uint64) simSnap {
	cs := f.s.CacheStats()
	s := simSnap{refs: refs, hits: cs.Hits, misses: cs.Misses, upgrades: cs.Upgrades,
		invalidations: cs.Invalidations, occupancy: f.s.MeanOccupancy()}
	dirSnap(&s, f.s.DirStats(), f.s.Slices())
	return s
}

type timedSim struct {
	s      *coherence.System
	slices []directory.Directory
	start  event.Time
}

func (t *timedSim) run(n int)    { t.s.Run(uint64(n)) }
func (t *timedSim) resetStats()  { t.s.ResetStats(); t.start = t.s.Now() }
func (t *timedSim) check() error { t.s.Drain(); return t.s.CheckConsistency() }
func (t *timedSim) snap(refs uint64) simSnap {
	cs, ds, mesh := t.s.CoreStats(), t.s.DirStats(), t.s.MeshStats()
	s := simSnap{refs: refs, hits: cs.Hits, misses: cs.Misses, upgrades: cs.Upgrades,
		invalidations: ds.Invalidations, cycles: uint64(t.s.Now() - t.start),
		meshMsgs: mesh.Messages, meshBytes: mesh.Bytes, missLatency: t.s.AvgMissLatency()}
	dirSnap(&s, t.s.DirectoryStats(), t.slices)
	s.occupancy = float64(s.dirLen) / float64(s.dirCap)
	return s
}

// newSim builds the simulator of kind k over slices of geometry g. A
// non-nil tracer decorates every slice (collected into the result),
// and a non-nil capture records the slices' event stream.
func newSim(k kind, g geom, profile string, seed uint64, t *tracer, c *capture) (sim, []*timedDir) {
	prof := mustProfile(profile)
	var decorated []*timedDir
	var build func(slice, numCaches int) directory.Directory
	if t != nil {
		build = sliceFactory(g.slice(), t, c, &decorated)
	} else {
		build = directory.SliceFactory(g.slice())
	}
	var slices []directory.Directory
	collect := func(slice, numCaches int) directory.Directory {
		d := build(slice, numCaches)
		slices = append(slices, d)
		return d
	}
	if k == cmpsimKind {
		return functionalSim{cmpsim.New(cmpsim.DefaultConfig(cmpsim.SharedL2), prof, seed, collect)}, decorated
	}
	s := coherence.New(coherence.DefaultConfig(), prof, seed, collect)
	return &timedSim{s: s, slices: slices}, decorated
}

// simPhase is one set-up plus measured phase of a simulator.
type simPhase struct {
	sys     sim
	slices  []*timedDir
	setup   time.Duration
	refs    uint64
	chunks  []float64 // ns per simChunk references
	ends    []float64 // ns since the phase started, per chunk
	elapsed time.Duration
	exact   simSnap
	proc    procStats
}

// setupSim builds a simulator and warms it with warm references, then
// zeroes its statistics (decorators start counting from there).
func setupSim(k kind, g geom, profile string, seed uint64, warm int, t *tracer, c *capture) *simPhase {
	t0 := time.Now()
	sys, slices := newSim(k, g, profile, seed, t, c)
	for _, d := range slices {
		d.off = true
	}
	sys.run(warm)
	sys.resetStats()
	p := &simPhase{sys: sys, slices: slices, setup: time.Since(t0)}
	for _, d := range slices {
		d.off = false
	}
	return p
}

// measure runs the simulator in simChunk-reference calls for at least d
// and at least minRefs references, snapshotting the simulated
// statistics at exactly exact references (exact <= minRefs).
func (p *simPhase) measure(exact, minRefs int, d time.Duration, rec *recorder) {
	p0 := readProc()
	start := time.Now()
	for int(p.refs) < minRefs || time.Since(start) < d {
		c0 := time.Now()
		p.sys.run(simChunk)
		c1 := time.Now()
		p.chunks = append(p.chunks, float64(c1.Sub(c0)))
		p.ends = append(p.ends, float64(c1.Sub(start)))
		if rec != nil {
			rec.add("sim.run", rec.next(), 0, stamp(c0), stamp(c1), 0)
		}
		p.refs += simChunk
		if int(p.refs) == exact {
			p.exact = p.sys.snap(p.refs)
		}
	}
	p.elapsed = time.Since(start)
	p.proc = readProc().sub(p0)
}

// selfNsPerRef is the simulator's own host time per reference: run
// time minus the slices' estimated time minus generator time.
func (p *simPhase) selfNsPerRef(nextNs float64) float64 {
	slice := mergeSlices(p.slices).estimatedNs()
	return (sum(p.chunks)-slice)/float64(p.refs) - nextNs
}
