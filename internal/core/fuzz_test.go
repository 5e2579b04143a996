package core

import (
	"testing"
)

// FuzzTreeAgainstOracle decodes the fuzz input as a sequence of interval
// operations and checks every tree invariant and the byte-projection
// equivalence after each step — for the read tree, also that it holds one
// node per maximal run of the projection. Each tree is a twin
// (finger_test.go), so the same input also hunts for a step where finger
// search and the root walk disagree. Run with `go test -fuzz=FuzzTree ./internal/core`;
// the seed corpus runs on every ordinary `go test`.
func FuzzTreeAgainstOracle(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(fuzzTreeAgainstOracle)
}

var fuzzSeeds = [][]byte{
	{0x01, 10, 20, 0x82, 15, 25, 0x43, 5, 30},
	{0x00, 0, 255, 0x81, 0, 255, 0x02, 10, 11},
	{0x40, 100, 10, 0x41, 90, 30, 0x42, 80, 50},
}

func fuzzTreeAgainstOracle(t *testing.T, data []byte) {
	wtw, rtw := newTwin(), newTwin()
	wt, rt := wtw.tr, rtw.tr
	wo, ro := newWordOracle(), newWordOracle()
	// leftOf by descending accessor ID: deterministic and total.
	lo := func(a, b int32) bool { return a > b }
	acc := int32(0)
	for i := 0; i+2 < len(data); i += 3 {
		op := data[i]
		start := uint64(data[i+1])
		length := uint64(data[i+2]%64) + 1
		iv := Interval{Start: start, End: start + length, Acc: acc}
		acc++
		switch op % 3 {
		case 0:
			os := newOverlapSet(t)
			want := wo.expectedOverlaps(iv)
			wtw.apply(t, iv, os.fn, func(tr *Tree, cb OverlapFunc) { tr.InsertWrite(iv, cb) })
			comparePairSets(t, "fuzz write", os.pairs, want)
			wo.applyWrite(iv)
		case 1:
			// Eight readers, named by the op byte's top bits, come back again
			// and again, so reads meet nodes of their own reader to join.
			iv.Acc = int32(op >> 5)
			rtw.checkedRead(t, ro, iv, lo)
		default:
			checkedQuery(t, wt, wo, iv)
			checkedQuery(t, rt, ro, iv)
			wtw.apply(t, iv, nil, func(tr *Tree, cb OverlapFunc) { tr.Query(iv, cb) })
			rtw.apply(t, iv, nil, func(tr *Tree, cb OverlapFunc) { tr.Query(iv, cb) })
		}
	}
	compareProjection(t, "fuzz final write tree", wt, wo)
	compareProjection(t, "fuzz final read tree", rt, ro)
}
