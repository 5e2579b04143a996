package stage

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"stint/internal/detect"
)

// TestGraphSealOrdersMergeAfterStages checks the drain contract: Wait
// returns only after every stage has returned, so a merge the producer runs
// after Wait sees the results of every stage.
func TestGraphSealOrdersMergeAfterStages(t *testing.T) {
	g := NewGraph()
	var stagesDone atomic.Int32
	for i := 0; i < 4; i++ {
		g.Go(func() {
			time.Sleep(time.Millisecond)
			stagesDone.Add(1)
		})
	}
	g.Wait()
	if n := stagesDone.Load(); n != 4 {
		t.Fatalf("merge would run with %d/4 stages done", n)
	}
}

// TestGraphCleanRunDoesNotAbort checks a clean run leaves the failure
// channel open and Wait raises nothing.
func TestGraphCleanRunDoesNotAbort(t *testing.T) {
	g := NewGraph()
	g.Go(func() {})
	var got any
	func() {
		defer func() { got = recover() }()
		g.Wait()
	}()
	if got != nil {
		t.Fatalf("Wait re-panicked %v on a clean run", got)
	}
	select {
	case <-g.failing:
		t.Fatal("failure channel closed on a clean run")
	default:
	}
}

// TestGraphEmpty pins the degenerate graph of the bare executor: no
// stages, Wait returns.
func TestGraphEmpty(t *testing.T) {
	NewGraph().Wait()
}

// TestGraphStagePanicPropagatesThroughWait pins the teardown contract: with
// two stages panicking, the failure channel closes (once: closing it twice
// would crash the process) and Wait re-panics the first failure on the
// caller's goroutine.
func TestGraphStagePanicPropagatesThroughWait(t *testing.T) {
	g := NewGraph()
	g.Go(func() { panic("stage failure") })
	g.Go(func() { panic("second failure") })
	var got any
	func() {
		defer func() { got = recover() }()
		g.Wait()
	}()
	if got != "stage failure" && got != "second failure" {
		t.Fatalf("Wait re-panicked %v, want one of the stage failures", got)
	}
	select {
	case <-g.failing:
	default:
		t.Fatal("failure channel still open after a stage panic")
	}
}

// TestSendRecvUnblockOnFailure: a Send blocked on a full channel and a Recv
// blocked on an empty one both return false once a stage panics, and Recv
// reports whether it waited.
func TestSendRecvUnblockOnFailure(t *testing.T) {
	g := NewGraph()
	full, empty := make(chan int, 1), make(chan int, 1)
	full <- 1
	if _, ok, waited := Recv(g, full); !ok || waited {
		t.Fatalf("Recv on a ready channel: ok=%v waited=%v, want true, false", ok, waited)
	}
	full <- 1
	sent, got := make(chan bool), make(chan [2]bool)
	go func() { sent <- Send(g, full, 2) }()
	go func() {
		_, ok, waited := Recv(g, empty)
		got <- [2]bool{ok, waited}
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-sent:
		t.Fatal("Send returned on a full channel of a healthy graph")
	case <-got:
		t.Fatal("Recv returned on an empty channel of a healthy graph")
	default:
	}
	g.Go(func() { panic("stage failure") })
	if <-sent {
		t.Fatal("Send on a full channel reported true after a stage failure")
	}
	if r := <-got; r[0] || !r[1] {
		t.Fatalf("Recv on an empty channel after a stage failure: ok=%v waited=%v, want false, true", r[0], r[1])
	}
	func() {
		defer func() { recover() }()
		g.Wait()
	}()
}

func TestMeterAccumulates(t *testing.T) {
	var m Meter
	t0 := time.Now().Add(-10 * time.Millisecond)
	m.Add(t0)
	m.Add(t0)
	if b := m.Busy(); b < 20*time.Millisecond {
		t.Fatalf("Busy() = %v, want >= 20ms", b)
	}
}

// race builds a distinguishable race for collector tests.
func race(addr uint64, cur int32) detect.Race {
	return detect.Race{Addr: addr, Size: 4, Prev: cur - 1, Cur: cur, CurWrite: true}
}

// TestCollectorKeepsSmallestCanonical feeds races in scrambled order and
// checks the collector retains the bound smallest under the canonical key,
// sorted.
func TestCollectorKeepsSmallestCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const total, keep = 200, 16
	seqs := rng.Perm(total)
	c := NewCollector(keep)
	for _, s := range seqs {
		c.Add(int32(s), race(uint64(s)*8, int32(s)))
	}
	got := c.Sorted()
	if len(got) != keep {
		t.Fatalf("retained %d races, want %d", len(got), keep)
	}
	for i, r := range got {
		if r.Cur != int32(i) {
			t.Fatalf("race %d has Cur %d, want %d (smallest seqs, ascending)", i, r.Cur, i)
		}
	}
}

// TestCollectorMergeMatchesSingle verifies the sharded merge property:
// races split across per-worker collectors and merged give the same slice
// as one collector fed everything.
func TestCollectorMergeMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const total, keep, workers = 300, 24, 4
	one := NewCollector(keep)
	parts := make([]*Collector, workers)
	for i := range parts {
		parts[i] = NewCollector(keep)
	}
	for _, s := range rng.Perm(total) {
		r := race(uint64(s)*4, int32(s))
		one.Add(int32(s), r)
		parts[rng.Intn(workers)].Add(int32(s), r)
	}
	merged := NewCollector(keep)
	for _, p := range parts {
		merged.Merge(p)
	}
	a, b := one.Sorted(), merged.Sorted()
	if len(a) != len(b) {
		t.Fatalf("merged retained %d races, single retained %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("race %d differs: single %+v, merged %+v", i, a[i], b[i])
		}
	}
}

// TestCollectorTieBreakOrder pins the canonical tie-break chain on equal
// sequential ranks: reads before writes, then address, size, previous
// access kind, and previous strand.
func TestCollectorTieBreakOrder(t *testing.T) {
	rs := []detect.Race{
		{Addr: 8, Size: 4, Prev: 1, Cur: 9, CurWrite: false},
		{Addr: 8, Size: 4, Prev: 1, Cur: 9, CurWrite: true},
		{Addr: 16, Size: 4, Prev: 1, Cur: 9, CurWrite: true},
		{Addr: 16, Size: 8, Prev: 1, Cur: 9, CurWrite: true},
		{Addr: 16, Size: 8, Prev: 1, Cur: 9, PrevWrite: true, CurWrite: true},
		{Addr: 16, Size: 8, Prev: 3, Cur: 9, PrevWrite: true, CurWrite: true},
	}
	want := append([]detect.Race(nil), rs...)
	perm := rand.New(rand.NewSource(3)).Perm(len(rs))
	c := NewCollector(len(rs))
	for _, i := range perm {
		c.Add(7, rs[i])
	}
	got := c.Sorted()
	if len(got) != len(want) {
		t.Fatalf("retained %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCollectorZeroBound checks MaxRacesRecorded=0 semantics: nothing
// retained, no panic.
func TestCollectorZeroBound(t *testing.T) {
	c := NewCollector(0)
	c.Add(1, race(8, 1))
	if got := c.Sorted(); got != nil {
		t.Fatalf("Sorted() = %v, want nil", got)
	}
}

// TestCollectorSortedIsSorted cross-checks Sorted's heap-sort against the
// stdlib on random inputs.
func TestCollectorSortedIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		keep := 1 + rng.Intn(n)
		var all []keyedRace
		c := NewCollector(keep)
		for i := 0; i < n; i++ {
			kr := keyedRace{seq: int32(rng.Intn(20)), r: race(uint64(rng.Intn(10))*4, int32(rng.Intn(20)))}
			all = append(all, kr)
			c.addKeyed(kr)
		}
		sort.Slice(all, func(i, j int) bool { return raceKeyLess(all[i], all[j]) })
		got := c.Sorted()
		for i, r := range got {
			if r != all[i].r {
				t.Fatalf("trial %d position %d: got %+v, want %+v", trial, i, r, all[i].r)
			}
		}
	}
}
