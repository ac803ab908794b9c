package directory

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/core"
)

// exact is an unbounded precise directory slice backed by a map. It is the
// functional model shared by three organizations whose behaviour (though
// not their energy or area) is conflict-free:
//
//   - Ideal: the testing oracle.
//   - Duplicate-Tag (Piranha [7], §3.1): mirrors the private cache tag
//     arrays, so by construction there is "always sufficient space in the
//     directory to track all cached blocks" — it never forces an
//     invalidation. The constructor takes the mirrored cache geometry and
//     *enforces* the mirroring invariant: a (cache, cache-set) pair can
//     never hold more blocks than the cache's associativity. Violations
//     panic, which catches protocol bugs (a fill without the preceding
//     eviction) in integration tests.
//   - In-cache (§3.2, §5.6): sharer vectors embedded in the inclusive
//     shared cache's tags. Tag capacity is the L2's, which dwarfs the
//     tracked block count, so conflicts never force invalidations
//     (the L2's own evictions are outside this model's scope; the paper
//     treats in-cache as conflict-free and charges it area instead).
type exact struct {
	name       string
	numCaches  int
	nominalCap int // capacity used for occupancy reporting (0 = none)
	entries    map[uint64]uint64
	stats      *Stats

	// Duplicate-tag mirroring enforcement (nil when not applicable).
	dupSets  int
	dupAssoc int
	setLoad  map[dupKey]int
}

type dupKey struct {
	cache int
	set   uint64
}

// NewIdeal builds the unbounded exact reference directory. nominalCap, if
// non-zero, is the capacity against which occupancy is reported (the "1x"
// worst-case block count of Figure 8).
func NewIdeal(numCaches, nominalCap int) Directory {
	return newExact("ideal", numCaches, nominalCap)
}

// NewInCache builds the inclusive in-cache directory model. l2Frames is
// the number of shared-cache frames in this slice (its tag capacity).
func NewInCache(numCaches, l2Frames int) Directory {
	d := newExact("in-cache", numCaches, l2Frames)
	return d
}

// NewDuplicateTag builds the Duplicate-Tag directory model for caches with
// the given geometry. cacheSets is the number of sets of each mirrored
// private cache that map to this slice; cacheAssoc is their associativity.
func NewDuplicateTag(numCaches, cacheSets, cacheAssoc int) Directory {
	if cacheSets <= 0 || cacheSets&(cacheSets-1) != 0 {
		panic(fmt.Sprintf("directory: cacheSets = %d, need a power of two", cacheSets))
	}
	if cacheAssoc <= 0 {
		panic("directory: non-positive cacheAssoc")
	}
	d := newExact("duplicate-tag", numCaches, numCaches*cacheSets*cacheAssoc)
	d.dupSets = cacheSets
	d.dupAssoc = cacheAssoc
	d.setLoad = make(map[dupKey]int)
	return d
}

func newExact(name string, numCaches, nominalCap int) *exact {
	if numCaches <= 0 || numCaches > 64 {
		panic(fmt.Sprintf("directory: numCaches = %d", numCaches))
	}
	if nominalCap < 0 {
		panic("directory: negative nominal capacity")
	}
	return &exact{
		name:       name,
		numCaches:  numCaches,
		nominalCap: nominalCap,
		entries:    make(map[uint64]uint64),
		stats:      core.NewDirStats(1),
	}
}

// Name implements Directory.
func (e *exact) Name() string { return e.name }

// NumCaches implements Directory.
func (e *exact) NumCaches() int { return e.numCaches }

// Capacity implements Directory.
func (e *exact) Capacity() int { return e.nominalCap }

// Len implements Directory.
func (e *exact) Len() int { return len(e.entries) }

// Stats implements Directory.
func (e *exact) Stats() *Stats { return e.stats }

// ResetStats implements Directory.
func (e *exact) ResetStats() { e.stats = core.NewDirStats(1) }

// Lookup implements Directory.
func (e *exact) Lookup(addr uint64) (uint64, bool) {
	m, ok := e.entries[addr]
	return m, ok
}

// ForEach implements Directory.
func (e *exact) ForEach(fn func(addr, sharers uint64) bool) {
	for a, m := range e.entries {
		if !fn(a, m) {
			return
		}
	}
}

// allocate serves a miss: it tracks addr with cache as the sole sharer.
func (e *exact) allocate(addr uint64, cache int) Op {
	e.trackFill(addr, cache)
	e.entries[addr] = bit(cache)
	e.stats.RecordInsert(1, len(e.entries), e.nominalCap)
	return Op{Attempts: 1}
}

// trackFill enforces the duplicate-tag mirroring invariant on fills.
func (e *exact) trackFill(addr uint64, cache int) {
	if e.setLoad == nil {
		return
	}
	k := dupKey{cache: cache, set: addr % uint64(e.dupSets)}
	if e.setLoad[k] >= e.dupAssoc {
		panic(fmt.Sprintf(
			"directory: duplicate-tag overflow — cache %d set %d already holds %d blocks (assoc %d); the cache must evict before filling",
			cache, k.set, e.setLoad[k], e.dupAssoc))
	}
	e.setLoad[k]++
}

func (e *exact) trackEvict(addr uint64, cache int) {
	if e.setLoad == nil {
		return
	}
	k := dupKey{cache: cache, set: addr % uint64(e.dupSets)}
	if e.setLoad[k] > 0 {
		e.setLoad[k]--
	}
}

// Read implements Directory.
func (e *exact) Read(addr uint64, cache int) Op {
	checkCache(cache, e.numCaches)
	m, ok := e.entries[addr]
	if ok {
		if m&bit(cache) == 0 {
			e.trackFill(addr, cache)
			e.entries[addr] = e.stats.ReadHit(m, bit(cache))
		}
		return Op{}
	}
	return e.allocate(addr, cache)
}

// Write implements Directory.
func (e *exact) Write(addr uint64, cache int) Op {
	checkCache(cache, e.numCaches)
	m, ok := e.entries[addr]
	if ok {
		inv := e.stats.WriteHit(m, bit(cache))
		if m&bit(cache) == 0 {
			e.trackFill(addr, cache)
		}
		// Invalidated sharers vacate their cache frames.
		for inv := inv; inv != 0; inv &= inv - 1 {
			e.trackEvict(addr, bits.TrailingZeros64(inv))
		}
		e.entries[addr] = bit(cache)
		return Op{Invalidate: inv}
	}
	return e.allocate(addr, cache)
}

// Evict implements Directory.
func (e *exact) Evict(addr uint64, cache int) {
	checkCache(cache, e.numCaches)
	m, ok := e.entries[addr]
	if !ok || m&bit(cache) == 0 {
		return
	}
	e.trackEvict(addr, cache)
	if m = e.stats.EvictHit(m, bit(cache)); m == 0 {
		delete(e.entries, addr)
	} else {
		e.entries[addr] = m
	}
}

var _ Directory = (*exact)(nil)
