package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/workload"
)

// kind says which system a workload's end-to-end path runs.
type kind int

const (
	engineKind    kind = iota // closed-loop clients over engine.Engine
	cmpsimKind                // cmpsim functional simulator
	coherenceKind             // coherence protocol simulator
)

// geom is a sharded cuckoo directory: shards slices of ways x sets,
// tracking numCaches caches, homed by home.
type geom struct {
	shards, ways, sets, numCaches int
	home                          directory.Home
}

func (g geom) String() string {
	return fmt.Sprintf("%d shards x cuckoo-%dx%d (%d entries, %d caches, home %s)",
		g.shards, g.ways, g.sets, g.shards*g.ways*g.sets, g.numCaches, g.home)
}

// slice is the spec of one shard.
func (g geom) slice() directory.Spec {
	return directory.Spec{
		Org:       directory.OrgCuckoo,
		NumCaches: g.numCaches,
		Geometry:  directory.Geometry{Ways: g.ways, Sets: g.sets},
	}
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name    string
	kind    kind
	profile string
	cores   int
	// dir is the directory the workload's own path runs: the engine's
	// sharded directory, or the simulators' per-tile slices (one shard
	// per tile, low-bit homing, as the simulators interleave).
	dir geom
	// streamLen is the pre-generated access stream of an engine
	// workload; warm-up makes one pass over it and the measured phase
	// cycles over it.
	streamLen int
	// warmRefs is a simulator's warm-up length; exactRefs the measured
	// reference count at which its simulated statistics are
	// snapshotted (the measured phase runs at least this long).
	warmRefs, exactRefs int
}

func (w workloadDef) geometry() string {
	return fmt.Sprintf("profile %s, %d cores, %s", w.profile, w.cores, w.dir)
}

// Simulator shapes shared by the sim workloads and by the simulator
// replays other workloads run in their traced pass.
var (
	functionalGeom = geom{shards: 16, ways: 4, sets: 512, numCaches: 32, home: directory.HomeInterleave}
	timedGeom      = geom{shards: 16, ways: 3, sets: 8192, numCaches: 16, home: directory.HomeInterleave}
)

var workloads = []workloadDef{
	{
		name: "oltp-fit", kind: engineKind, profile: "oracle", cores: 16,
		dir:       geom{shards: 8, ways: 4, sets: 16384, numCaches: 16, home: directory.HomeMix},
		streamLen: 1 << 21,
	},
	{
		name: "scan-overflow", kind: engineKind, profile: "ocean", cores: 16,
		dir:       geom{shards: 8, ways: 4, sets: 32768, numCaches: 16, home: directory.HomeMix},
		streamLen: 1 << 21,
	},
	{
		name: "sim-functional", kind: cmpsimKind, profile: "oracle", cores: 16,
		dir:      functionalGeom,
		warmRefs: 1 << 20, exactRefs: 1 << 20,
	},
	{
		name: "sim-timed", kind: coherenceKind, profile: "apache", cores: 16,
		dir:      timedGeom,
		warmRefs: 1 << 18, exactRefs: 1 << 18,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func mustProfile(name string) workload.Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// accessStream generates n accesses of the profile interleaved
// round-robin over cores (the order replay.Synthesize produces), each
// core acting as its own cache.
func accessStream(prof workload.Profile, cores int, seed uint64, n int) []directory.Access {
	gens := make([]*workload.Generator, cores)
	for c := range gens {
		gens[c] = workload.NewGenerator(prof, c, cores, seed)
	}
	out := make([]directory.Access, n)
	for i := range out {
		c := i % cores
		a := gens[c].Next()
		k := directory.AccessRead
		if a.Write {
			k = directory.AccessWrite
		}
		out[i] = directory.Access{Kind: k, Addr: a.Addr, Cache: c}
	}
	return out
}

// digest is an FNV-1a fingerprint of an access stream.
func digest(accs []directory.Access) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for _, a := range accs {
		b[0] = byte(a.Kind)
		binary.LittleEndian.PutUint64(b[1:], a.Addr)
		binary.LittleEndian.PutUint64(b[9:], uint64(a.Cache))
		h.Write(b[:])
	}
	return h.Sum64()
}

// batchesOf splits accs into consecutive batches of size n (the last
// one may be short).
func batchesOf(accs []directory.Access, n int) [][]directory.Access {
	var out [][]directory.Access
	for lo := 0; lo < len(accs); lo += n {
		out = append(out, accs[lo:min(lo+n, len(accs))])
	}
	return out
}

// shardStream returns, in order, the accesses of accs that home onto
// shard h of dir.
func shardStream(dir *directory.ShardedDirectory, accs []directory.Access, h int) []directory.Access {
	var out []directory.Access
	for _, a := range accs {
		if dir.ShardOf(a.Addr) == h {
			out = append(out, a)
		}
	}
	return out
}
