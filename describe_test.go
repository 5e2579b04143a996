package stint

import (
	"strings"
	"testing"
)

func TestResolveRoundTrip(t *testing.T) {
	r, _ := NewRunner(Options{})
	a := r.Arena()
	b1 := a.AllocWords("first", 100)
	b2 := a.AllocFloat64("second", 50)
	for _, c := range []struct {
		buf  *Buffer
		elem int
	}{
		{b1, 0}, {b1, 50}, {b1, 99}, {b2, 0}, {b2, 49},
	} {
		gotBuf, gotElem := a.Resolve(c.buf.Addr(c.elem))
		if gotBuf != c.buf || gotElem != c.elem {
			t.Errorf("Resolve(%s[%d]) = (%v, %d)", c.buf.Name(), c.elem, gotBuf, gotElem)
		}
		// Mid-element addresses resolve to the same element.
		gotBuf, gotElem = a.Resolve(c.buf.Addr(c.elem) + 1)
		if gotBuf != c.buf || gotElem != c.elem {
			t.Errorf("Resolve(mid-element) = (%v, %d), want (%s, %d)", gotBuf, gotElem, c.buf.Name(), c.elem)
		}
	}
}

func TestResolveOutsideBuffers(t *testing.T) {
	r, _ := NewRunner(Options{})
	a := r.Arena()
	b := a.AllocWords("only", 4)
	if buf, _ := a.Resolve(0); buf != nil {
		t.Error("address 0 resolved to a buffer")
	}
	if buf, _ := a.Resolve(b.Base() + b.Bytes()); buf != nil {
		t.Error("one-past-end resolved to a buffer")
	}
	if buf, _ := a.Resolve(b.Base() - 1); buf != nil {
		t.Error("address below first buffer resolved")
	}
}

// describe runs a racy program under d on a fresh Runner and describes its
// first race: the harness names a program's buffers b0, b1, ...
func describe(t *testing.T, d Detector, acts ...act) string {
	p := newProgram([]bufSpec{{64, 1}}, acts)
	h := newHarness(t, nil, 1)
	r, bufs := h.newRunner(Options{Detector: d}, p)
	out := h.run(r, bufs, p, -1)
	if out.err != nil || !out.rep.Racy() {
		t.Fatalf("no race to describe: %v", out.err)
	}
	return r.DescribeRace(out.rep.Races[0])
}

func TestDescribeRace(t *testing.T) {
	desc := describe(t, DetectorSTINT, spawn(storeN(8, 16)), storeN(8, 16), syncAct)
	if !strings.Contains(desc, "b0[8:24]") || !strings.Contains(desc, "write by strand") {
		t.Errorf("DescribeRace = %q, want the element range b0[8:24] and the access kinds", desc)
	}
}

func TestDescribeRaceSingleElement(t *testing.T) {
	if desc := describe(t, DetectorVanilla, spawn(store(3)), store(3), syncAct); !strings.Contains(desc, "b0[3]") {
		t.Errorf("DescribeRace = %q, want b0[3]", desc)
	}
}

func TestDescribeRaceUnresolvedFallsBack(t *testing.T) {
	r, _ := NewRunner(Options{})
	rc := Race{Addr: 0x10, Size: 4, Prev: 1, Cur: 2, PrevWrite: true, CurWrite: true}
	desc := r.DescribeRace(rc)
	if !strings.Contains(desc, "0x10") {
		t.Errorf("fallback description %q lacks the raw address", desc)
	}
}
