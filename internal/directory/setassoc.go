package directory

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/core"
	"cuckoodir/internal/hashfn"
)

// setAssoc implements the classic Sparse, skewed-associative and Elbow
// directories; they differ only in how ways are indexed and in whether an
// insertion may displace one entry:
//
//   - Sparse (Gupta et al. [17], §3.2): every way uses the same low-order
//     index bits, so a set is A physically adjacent slots and conflicts
//     are transitive. On overflow the LRU entry of the set is evicted,
//     forcing invalidation of the cached blocks it tracked.
//   - Skewed (Seznec [33], §5.4's "Skewed 2x"): each way has its own
//     Seznec-Bodin hash, which breaks much of the conflict transitivity,
//     but — unlike the Cuckoo directory — insertion still picks a victim
//     from the A candidate slots rather than displacing entries to their
//     alternate locations. Victims are the LRU candidate.
//   - Elbow (Spjuth, Karlsson and Hagersten, §6): skewed indexing, and an
//     insertion that finds every candidate slot taken first tries ONE
//     displacement — it moves a candidate whose slot in another way is
//     vacant there — before evicting the LRU candidate. The paper places
//     it between Skewed and Cuckoo: "the Elbow cache is limited to one
//     displacement per insertion and requires multiple lookups to select
//     a displacement victim, resulting in a complex and power-hungry
//     design that experiences more forced invalidations than the Cuckoo
//     directory." The elbow experiment measures that ordering.
type setAssoc struct {
	name string
	ways int
	sets int
	// ix is the devirtualized per-way index pipeline, resolved once from
	// the organization's hash family (see internal/hashfn.Indexer) — the
	// same probing idiom the cuckoo table's hot path uses.
	ix        hashfn.Indexer
	slots     []saEntry
	used      int
	lruClock  uint64
	numCaches int
	stats     *Stats
	// elbow enables the one-displacement insertion; its attempt
	// histogram spans 1..2 (2 = an insertion that displaced).
	elbow bool
	// Displacements counts the elbow moves made, each costing the extra
	// lookups the paper calls out.
	Displacements uint64
}

type saEntry struct {
	addr    uint64
	sharers uint64
	lru     uint64
	valid   bool
}

// NewSparse builds a classic Sparse directory slice with the given
// associativity and set count (capacity = ways*sets).
func NewSparse(ways, sets, numCaches int) Directory {
	return newSetAssoc("sparse", ways, sets, numCaches, hashfn.XorFold{})
}

// NewSkewed builds a skewed-associative directory slice.
func NewSkewed(ways, sets, numCaches int) Directory {
	return newSetAssoc("skewed", ways, sets, numCaches,
		hashfn.NewSkew(bits.TrailingZeros(uint(sets))))
}

// NewElbow builds an Elbow directory slice: skewed, with at most one
// displacement per insertion.
func NewElbow(ways, sets, numCaches int) Directory {
	if ways <= 1 {
		panic("directory: Elbow needs >= 2 ways")
	}
	s := newSetAssoc("elbow", ways, sets, numCaches,
		hashfn.NewSkew(bits.TrailingZeros(uint(sets))))
	s.elbow = true
	s.ResetStats()
	return s
}

func newSetAssoc(name string, ways, sets, numCaches int, h hashfn.Family) *setAssoc {
	if ways <= 0 {
		panic(fmt.Sprintf("directory: ways = %d", ways))
	}
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("directory: sets = %d, need a power of two", sets))
	}
	if numCaches <= 0 || numCaches > 64 {
		panic(fmt.Sprintf("directory: numCaches = %d", numCaches))
	}
	return &setAssoc{
		name:      name,
		ways:      ways,
		sets:      sets,
		ix:        hashfn.NewIndexer(h, ways, uint64(sets-1)),
		slots:     make([]saEntry, ways*sets),
		numCaches: numCaches,
		stats:     core.NewDirStats(1),
	}
}

// Name implements Directory.
func (s *setAssoc) Name() string { return s.name }

// NumCaches implements Directory.
func (s *setAssoc) NumCaches() int { return s.numCaches }

// Capacity implements Directory.
func (s *setAssoc) Capacity() int { return s.ways * s.sets }

// Len implements Directory.
func (s *setAssoc) Len() int { return s.used }

// Stats implements Directory.
func (s *setAssoc) Stats() *Stats { return s.stats }

// ResetStats implements Directory.
func (s *setAssoc) ResetStats() {
	maxAttempts := 1
	if s.elbow {
		maxAttempts = 2
	}
	s.stats = core.NewDirStats(maxAttempts)
	s.Displacements = 0
}

// slotIdx returns the slot of (way, addr).
func (s *setAssoc) slotIdx(way int, addr uint64) int {
	return way*s.sets + int(s.ix.Index(way, addr))
}

// find returns the entry tracking addr, or nil. The candidate slots of
// all ways are batch-indexed in one pass when the way count allows.
func (s *setAssoc) find(addr uint64) *saEntry {
	if s.ix.Batched() {
		var idx [hashfn.MaxWays]uint64
		s.ix.IndexAll(addr, &idx)
		for w := 0; w < s.ways; w++ {
			e := &s.slots[w*s.sets+int(idx[w])]
			if e.valid && e.addr == addr {
				return e
			}
		}
		return nil
	}
	for w := 0; w < s.ways; w++ {
		e := &s.slots[s.slotIdx(w, addr)]
		if e.valid && e.addr == addr {
			return e
		}
	}
	return nil
}

// Lookup implements Directory.
func (s *setAssoc) Lookup(addr uint64) (uint64, bool) {
	if e := s.find(addr); e != nil {
		return e.sharers, true
	}
	return 0, false
}

// ForEach implements Directory.
func (s *setAssoc) ForEach(fn func(addr, sharers uint64) bool) {
	for i := range s.slots {
		if s.slots[i].valid {
			if !fn(s.slots[i].addr, s.slots[i].sharers) {
				return
			}
		}
	}
}

// touch updates the entry's LRU stamp.
func (s *setAssoc) touch(e *saEntry) {
	s.lruClock++
	e.lru = s.lruClock
}

// insert allocates an entry for addr, evicting the LRU candidate when all
// eligible slots are occupied (and, for Elbow, no candidate can move).
func (s *setAssoc) insert(addr, sharers uint64) *Forced {
	// Insertions are far rarer than lookups (one per allocated entry),
	// so a single per-way indexed loop beats duplicating the victim
	// policy across batched/unbatched variants.
	var victim *saEntry
	for w := 0; w < s.ways; w++ {
		e := &s.slots[s.slotIdx(w, addr)]
		if !e.valid {
			victim = e
			break
		}
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	attempts := 1
	if victim.valid && s.elbow {
		if freed := s.elbowMove(addr); freed != nil {
			victim, attempts = freed, 2
		}
	}
	var forced *Forced
	if victim.valid {
		forced = &Forced{Addr: victim.addr, Sharers: victim.sharers}
		s.used--
		s.stats.RecordForced(victim.sharers)
	}
	*victim = saEntry{addr: addr, sharers: sharers, valid: true}
	s.touch(victim)
	s.used++
	s.stats.RecordInsert(attempts, s.used, s.Capacity())
	return forced
}

// elbowMove makes the one displacement an Elbow insertion may: it moves
// the first candidate of addr (in way order) whose slot in another way is
// vacant there, and returns the slot it freed, or nil when no candidate
// can move.
func (s *setAssoc) elbowMove(addr uint64) *saEntry {
	for w := 0; w < s.ways; w++ {
		cand := &s.slots[s.slotIdx(w, addr)]
		for w2 := 0; w2 < s.ways; w2++ {
			if w2 == w {
				continue
			}
			if alt := &s.slots[s.slotIdx(w2, cand.addr)]; !alt.valid {
				*alt = *cand
				cand.valid = false
				s.Displacements++
				return cand
			}
		}
	}
	return nil
}

// allocate serves a miss: it inserts addr with cache as the sole sharer.
func (s *setAssoc) allocate(addr uint64, cache int) Op {
	op := Op{Attempts: 1}
	if f := s.insert(addr, bit(cache)); f != nil {
		op.Forced = append(op.Forced, *f)
	}
	return op
}

// Read implements Directory.
func (s *setAssoc) Read(addr uint64, cache int) Op {
	checkCache(cache, s.numCaches)
	if e := s.find(addr); e != nil {
		e.sharers = s.stats.ReadHit(e.sharers, bit(cache))
		s.touch(e)
		return Op{}
	}
	return s.allocate(addr, cache)
}

// Write implements Directory.
func (s *setAssoc) Write(addr uint64, cache int) Op {
	checkCache(cache, s.numCaches)
	if e := s.find(addr); e != nil {
		inv := s.stats.WriteHit(e.sharers, bit(cache))
		e.sharers = bit(cache)
		s.touch(e)
		return Op{Invalidate: inv}
	}
	return s.allocate(addr, cache)
}

// Evict implements Directory.
func (s *setAssoc) Evict(addr uint64, cache int) {
	checkCache(cache, s.numCaches)
	e := s.find(addr)
	if e == nil || e.sharers&bit(cache) == 0 {
		return
	}
	if e.sharers = s.stats.EvictHit(e.sharers, bit(cache)); e.sharers == 0 {
		e.valid = false
		s.used--
	}
}

var _ Directory = (*setAssoc)(nil)
