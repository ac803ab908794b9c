// Routing tests: the counting-sort submission path checked op for op
// against direct per-shard application, its structural invariants, and
// its per-submission allocation budget.

package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/rng"
)

// applyDirect applies accs one at a time on each access's home shard —
// the unrouted reference — and returns the per-access Ops.
func applyDirect(ref *directory.ShardedDirectory, accs []directory.Access) []directory.Op {
	ops := make([]directory.Op, len(accs))
	for i := range accs {
		ref.ApplyShardOps(ref.ShardOf(accs[i].Addr), accs[i:i+1], ops[i:i+1])
	}
	return ops
}

// sameDirectory compares counters, tracked-block count and per-address
// sharers of two directories.
func sameDirectory(t *testing.T, got, want *directory.ShardedDirectory) {
	t.Helper()
	if gc, wc := got.Counters(), want.Counters(); gc != wc {
		t.Fatalf("counters diverge:\nengine    %+v\nreference %+v", gc, wc)
	}
	sameState(t, got, want)
}

// routingBatch draws a batch of 1..300 accesses. With oneDrainer set,
// every access homes onto the same (random) drainer of D.
func routingBatch(r *rng.Source, dir *directory.ShardedDirectory, D int, oneDrainer bool) []directory.Access {
	n := 1 + int(r.Uint64()%300)
	target := int(r.Uint64() % uint64(D))
	accs := make([]directory.Access, 0, n)
	for len(accs) < n {
		a := randomAccesses(r.Uint64(), 1)[0]
		if oneDrainer && dir.ShardOf(a.Addr)%D != target {
			continue
		}
		accs = append(accs, a)
	}
	return accs
}

// touchedDrainers counts the distinct drainers accs homes onto.
func touchedDrainers(dir *directory.ShardedDirectory, accs []directory.Access, D int) int {
	seen := map[int]bool{}
	for _, a := range accs {
		seen[dir.ShardOf(a.Addr)%D] = true
	}
	return len(seen)
}

// checkRoute asserts route's structural contract for one batch: one
// request per touched drainer in ascending drainer order, each holding
// exactly its drainer's accesses in batch order and capped at its own
// length; a recording batch on one drainer aliases the caller's slice
// with no scatter indices, and every other batch is copied.
func checkRoute(t *testing.T, eng *Engine, accs []directory.Access, recording bool) {
	t.Helper()
	D := eng.opt.Drainers
	reqs := eng.route(nil, accs, qos.Foreground, recording)
	if len(reqs) != touchedDrainers(eng.dir, accs, D) {
		t.Fatalf("route made %d requests for %d touched drainers", len(reqs), touchedDrainers(eng.dir, accs, D))
	}
	if len(reqs) == 1 && recording {
		r := reqs[0]
		if &r.accs[0] != &accs[0] || len(r.accs) != len(accs) || r.idxs != nil {
			t.Fatalf("one-drainer recording batch was not sent as-is")
		}
		return
	}
	placed := 0
	for j, r := range reqs {
		if j > 0 && r.drainer <= reqs[j-1].drainer {
			t.Fatalf("request %d: drainer %d after %d", j, r.drainer, reqs[j-1].drainer)
		}
		if cap(r.accs) != len(r.accs) {
			t.Fatalf("drainer %d: sub-batch len %d cap %d exposes its neighbour", r.drainer, len(r.accs), cap(r.accs))
		}
		if &r.accs[0] == &accs[0] {
			t.Fatalf("drainer %d: sub-batch aliases the caller's slice", r.drainer)
		}
		if recording != (r.idxs != nil) || (recording && len(r.idxs) != len(r.accs)) {
			t.Fatalf("drainer %d: recording=%v with %d idxs for %d accesses", r.drainer, recording, len(r.idxs), len(r.accs))
		}
		var want []directory.Access
		var wantIdx []int32
		for i, a := range accs {
			if eng.dir.ShardOf(a.Addr)%D == int(r.drainer) {
				want = append(want, a)
				wantIdx = append(wantIdx, int32(i))
			}
		}
		if !reflect.DeepEqual(r.accs, want) {
			t.Fatalf("drainer %d: sub-batch differs from its accesses in batch order", r.drainer)
		}
		if recording && !reflect.DeepEqual(r.idxs, wantIdx) {
			t.Fatalf("drainer %d: scatter indices %v, want %v", r.drainer, r.idxs, wantIdx)
		}
		placed += len(r.accs)
	}
	if placed != len(accs) {
		t.Fatalf("route placed %d of %d accesses", placed, len(accs))
	}
}

// TestSubmitRoutingMatchesDirect: random batches, a quarter of them
// homing entirely onto one drainer, submitted under every drainer
// count and completion mode, leave exactly the directory (and, where
// recorded, exactly the Ops) of applying each access directly on its
// home shard, and each batch enqueues one request per drainer it
// touches. The scribble mode overwrites every detached batch right
// after Submit returns while the drainers are parked behind a stall, so
// any routing that aliased a detached batch would apply the garbage.
func TestSubmitRoutingMatchesDirect(t *testing.T) {
	const batches = 60
	ctx := context.Background()
	for _, D := range []int{1, 2, 3, 8} {
		for mi, mode := range []string{"ticketed", "ondone", "detached", "scribble"} {
			t.Run(fmt.Sprintf("drainers=%d/%s", D, mode), func(t *testing.T) {
				dir, ref := testDir(t, 8), testDir(t, 8)
				opt := Options{Drainers: D}
				var stall *faults.Armed
				if mode == "scribble" {
					opt.Faults = faults.New()
					stall = opt.Faults.Arm(faults.DrainerStall, faults.Trigger{Key: faults.AnyKey})
				}
				eng, err := New(dir, opt)
				if err != nil {
					t.Fatal(err)
				}
				if stall != nil {
					// Park every drainer inside a one-access plug so the
					// batches below queue behind it unread.
					for q := 0; q < D; q++ {
						plug := []directory.Access{{Kind: directory.AccessWrite, Addr: addrOnShard(dir, q, 1<<20), Cache: 1}}
						applyDirect(ref, plug)
						if _, err := eng.Submit(ctx, plug, SubmitOptions{Detached: true}); err != nil {
							t.Fatal(err)
						}
					}
					waitFor(t, "every drainer parked", func() bool { return opt.Faults.Fired(faults.DrainerStall) == uint64(D) })
				}
				r := rng.New(uint64(100*D + mi))
				want := make([][]directory.Op, batches)
				got := make([][]directory.Op, batches)
				tickets := make([]*Ticket, batches)
				var done sync.WaitGroup
				for b := 0; b < batches; b++ {
					accs := routingBatch(r, dir, D, b%4 == 0)
					recording := mode == "ticketed" || mode == "ondone"
					if D > 1 {
						checkRoute(t, eng, accs, recording)
					}
					want[b] = applyDirect(ref, accs)
					touched := touchedDrainers(dir, accs, D)
					before := eng.Stats().SubmittedRequests
					switch mode {
					case "ticketed":
						tickets[b], err = eng.SubmitBatch(ctx, accs)
					case "ondone":
						done.Add(1)
						_, err = eng.Submit(ctx, accs, SubmitOptions{OnDone: func(ops []directory.Op, err error) {
							if err == nil {
								got[b] = append([]directory.Op(nil), ops...)
							}
							done.Done()
						}})
					default:
						_, err = eng.Submit(ctx, accs, SubmitOptions{Detached: true})
						if mode == "scribble" {
							for i := range accs {
								accs[i] = directory.Access{Kind: directory.AccessWrite, Addr: 1<<30 + uint64(i), Cache: 0}
							}
						}
					}
					if err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					if d := eng.Stats().SubmittedRequests - before; d != uint64(touched) {
						t.Fatalf("batch %d: %d requests enqueued, want %d (drainers touched)", b, d, touched)
					}
				}
				if stall != nil {
					stall.Release()
				}
				if err := eng.Close(); err != nil {
					t.Fatal(err)
				}
				done.Wait()
				for b, tk := range tickets {
					if tk != nil {
						got[b] = tk.Ops()
					}
				}
				if mode == "ticketed" || mode == "ondone" {
					for b := range want {
						if !reflect.DeepEqual(got[b], want[b]) {
							t.Fatalf("batch %d: Ops differ from direct application", b)
						}
					}
				}
				sameDirectory(t, dir, ref)
				if st := eng.Stats(); st.ErredAccesses != 0 || st.ContainedPanics != 0 {
					t.Fatalf("stats %+v: erred or contained work", st)
				}
			})
		}
	}
}

// TestSubmitAllocs pins the per-submission allocation budget over 8
// shards: routing allocates a fixed handful of objects whatever the
// drainer count — the sub-batch array, its scatter indices and the
// request slice, plus the ticket, its done channel and its Ops when the
// submission records results. The drainers allocate nothing once warm,
// so the process-wide count is the submission's own.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ctx := context.Background()
	batch := randomAccesses(5, 64)
	for _, D := range []int{1, 3, 8} {
		eng, err := New(testDir(t, 8), Options{Drainers: D})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name  string
			bound float64
			run   func() error
		}{
			{"ticketed/64", 7, func() error {
				tk, err := eng.SubmitBatch(ctx, batch)
				if err != nil {
					return err
				}
				return tk.Wait(ctx)
			}},
			{"ticketed/1", 3, func() error {
				tk, err := eng.SubmitBatch(ctx, batch[:1])
				if err != nil {
					return err
				}
				return tk.Wait(ctx)
			}},
			{"detached/64", 3, func() error {
				_, err := eng.Submit(ctx, batch, SubmitOptions{Detached: true})
				return err
			}},
		} {
			var runErr error
			f := func() {
				if err := tc.run(); err != nil && runErr == nil {
					runErr = err
				}
			}
			// Warm the drainers' scratch buffers so their one-time
			// growth stays out of the count.
			for i := 0; i < 100; i++ {
				f()
			}
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(500, f)
			if runErr != nil {
				t.Fatalf("drainers=%d %s: %v", D, tc.name, runErr)
			}
			t.Logf("drainers=%d %s: %.0f allocations", D, tc.name, got)
			if got > tc.bound {
				t.Errorf("drainers=%d %s: %.0f allocations per submission, want <= %.0f", D, tc.name, got, tc.bound)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
