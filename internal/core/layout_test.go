package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestNodeLayout pins what the footprint figures and the noscan slab rest
// on: a node is 24 bytes and holds nothing the garbage collector follows.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 24 || NodeBytes != 24 {
		t.Fatalf("unsafe.Sizeof(node{}) = %d, NodeBytes = %d, want 24", got, NodeBytes)
	}
	typ := reflect.TypeOf(node{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint16, reflect.Int32, reflect.Uint32:
		default:
			t.Errorf("node.%s is a %s: the slab must stay pointer-free", f.Name, f.Type.Kind())
		}
	}
}

// moveSlabs makes newTestTree build trees whose pool reallocates its slab on
// every get, so a *node or slab base held across newNode goes stale at once
// — deterministically, rather than once per doubling.
var moveSlabs bool

func newTestTree() *Tree {
	tr := NewTree()
	tr.pool.moveSlab = moveSlabs
	return tr
}

// TestNoStalePointerAcrossGrowth reruns the oracle property suite, the
// finger twin and the fuzz seed corpus over moving slabs: a write through a
// stale *node lands in a dead copy of the slab and shows as a lost update.
func TestNoStalePointerAcrossGrowth(t *testing.T) {
	moveSlabs = true
	defer func() { moveSlabs = false }()
	t.Run("RandomWriteSessions", TestRandomWriteSessions)
	t.Run("RandomReadSessions", TestRandomReadSessions)
	t.Run("RandomMixedSessions", TestRandomMixedSessions)
	t.Run("QuickWriteProjection", TestQuickWriteProjection)
	t.Run("QuickReadProjection", TestQuickReadProjection)
	t.Run("FingerMatchesRootWalk", TestFingerMatchesRootWalk)
	for i, seed := range fuzzSeeds {
		t.Run(fmt.Sprintf("FuzzSeed%d", i), func(t *testing.T) { fuzzTreeAgainstOracle(t, seed) })
	}
}

// TestSpan: a tree takes intervals inside [base, base+65535] — offset 65535
// as an end included, which is what lets the engine hand it whole pages —
// reports them in absolute positions, and refuses anything else by name.
func TestSpan(t *testing.T) {
	const base = 7 << 14 // the engine's page 7, in words
	tr := NewTree()
	tr.SetBase(base)
	lo := func(a, b int32) bool { return a > b }
	tr.InsertWrite(Interval{Start: base, End: base + 1<<14, Acc: 1}, nil) // the engine's whole page
	tr.InsertWrite(Interval{Start: base + 1<<14, End: base + maxSpan, Acc: 2}, nil)
	tr.InsertRead(Interval{Start: base + 10, End: base + 20, Acc: 3}, lo, nil)
	tr.checkInvariants()
	var got []overlapRec
	tr.Query(Interval{Start: base + 1<<14 - 1, End: base + maxSpan, Acc: 4}, func(acc int32, lo, hi uint64) {
		got = append(got, overlapRec{acc, lo, hi})
	})
	want := []overlapRec{{1, base + 1<<14 - 1, base + 1<<14}, {2, base + 1<<14, base + maxSpan}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query reported %v, want %v", got, want)
	}
	if ivs := intervals(tr); ivs[0] != (Interval{Start: base, End: base + 10, Acc: 1}) || len(ivs) != 4 {
		t.Fatalf("Walk reports %v, want four absolute intervals from [base, base+10)", ivs)
	}

	for name, x := range map[string]Interval{
		"below base":    {Start: base - 1, End: base + 1},
		"past the span": {Start: base, End: base + maxSpan + 1},
	} {
		for op, do := range map[string]func(){
			"Query":       func() { tr.Query(x, nil) },
			"InsertWrite": func() { tr.InsertWrite(x, nil) },
			"InsertRead":  func() { tr.InsertRead(x, lo, nil) },
		} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "outside the tree's span") {
						t.Errorf("%s %s: recovered %q, want the span panic", op, name, msg)
					}
				}()
				do()
			}()
		}
	}
	tr.checkInvariants()

	defer func() {
		if recover() == nil {
			t.Error("SetBase on a non-empty tree did not panic")
		}
	}()
	tr.SetBase(0)
}
