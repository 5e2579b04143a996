package oracle

import "testing"

func TestNoAccessesNoRaces(t *testing.T) {
	g := NewDAG()
	d := New(g)
	if len(d.RacingWords()) != 0 {
		t.Fatal("empty oracle reports races")
	}
}

func TestParallelWritesDetected(t *testing.T) {
	g := NewDAG()
	d := New(g)
	g.Spawn()
	d.Write(0x1000, 4)
	g.Restore()
	d.Write(0x1000, 4)
	g.Sync()
	racy := d.RacingWords()
	if !racy[0x1000] || len(racy) != 1 {
		t.Fatalf("RacingWords = %v, want {0x1000}", racy)
	}
}

func TestSeriesWritesClean(t *testing.T) {
	g := NewDAG()
	d := New(g)
	d.Write(0x1000, 4)
	g.Spawn()
	d.Write(0x1000, 4)
	g.Restore()
	g.Sync()
	d.Write(0x1000, 4) // after sync
	if racy := d.RacingWords(); len(racy) != 0 {
		t.Fatalf("series writes flagged: %v", racy)
	}
}

func TestReadReadClean(t *testing.T) {
	g := NewDAG()
	d := New(g)
	g.Spawn()
	d.Read(0x1000, 4)
	g.Restore()
	d.Read(0x1000, 4)
	g.Sync()
	if racy := d.RacingWords(); len(racy) != 0 {
		t.Fatalf("read-read flagged: %v", racy)
	}
}

func TestRangeHooksExpandToWords(t *testing.T) {
	g := NewDAG()
	d := New(g)
	g.Spawn()
	d.WriteRange(0x1000, 4, 4) // words 0x1000..0x100c
	g.Restore()
	d.ReadRange(0x1008, 2, 4) // words 0x1008, 0x100c
	g.Sync()
	racy := d.RacingWords()
	if len(racy) != 2 || !racy[0x1008] || !racy[0x100c] {
		t.Fatalf("RacingWords = %v, want exactly {0x1008, 0x100c}", racy)
	}
}

func TestUnalignedAccessCoversWords(t *testing.T) {
	g := NewDAG()
	d := New(g)
	g.Spawn()
	d.Write(0x1002, 4) // straddles words 0x1000 and 0x1004
	g.Restore()
	d.Read(0x1004, 4)
	g.Sync()
	if racy := d.RacingWords(); !racy[0x1004] {
		t.Fatalf("straddled word missed: %v", racy)
	}
}
