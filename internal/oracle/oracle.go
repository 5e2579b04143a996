// Package oracle provides a brute-force reference race detector for tests,
// and a brute-force reachability for fork-join programs to drive it with.
//
// The Detector records every strand that read or wrote each shadow word and
// checks each strand's first read and first write of a word against every
// earlier accessor of the word, asking its Reach only the detectors' one
// question. RacingWords is the ground truth every real detector is compared
// against: by Feng–Leiserson, a sound-and-complete detector reports a race
// on a word if and only if that word has one. It is O(accesses × strands).
package oracle

import (
	"maps"
	"math/big"
	"slices"

	"stint/internal/detect"
	"stint/internal/mem"
)

// Detector is the brute-force detector. Its access methods are a
// stint.Tracer's, so a DAG and a Detector over it make up a Tracer.
type Detector struct {
	reach            detect.Reach
	readers, writers map[mem.Addr][]int32 // each word's accessors, each once
	racy             map[mem.Addr]bool
}

// New returns an oracle over the given reachability structure.
func New(reach detect.Reach) *Detector {
	return &Detector{reach, map[mem.Addr][]int32{}, map[mem.Addr][]int32{}, map[mem.Addr]bool{}}
}

func (d *Detector) access(addr mem.Addr, size uint64, write bool) {
	cur := d.reach.CurrentID()
	parallel := func(accessors []int32) bool { return slices.ContainsFunc(accessors, d.reach.ParallelWithCurrent) }
	for a := addr &^ 3; a < addr+size; a += mem.WordSize {
		race := false
		switch {
		case write && !slices.Contains(d.writers[a], cur):
			race = parallel(d.writers[a]) || parallel(d.readers[a])
			d.writers[a] = append(d.writers[a], cur)
		case !write && !slices.Contains(d.readers[a], cur):
			race = parallel(d.writers[a])
			d.readers[a] = append(d.readers[a], cur)
		}
		if race {
			d.racy[a] = true
		}
	}
}

// Read and Write record an access; ReadRange and WriteRange record
// count elements of elemBytes each.
func (d *Detector) Read(addr mem.Addr, size uint64)  { d.access(addr, size, false) }
func (d *Detector) Write(addr mem.Addr, size uint64) { d.access(addr, size, true) }
func (d *Detector) ReadRange(addr mem.Addr, count int, elemBytes uint64) {
	d.access(addr, uint64(count)*elemBytes, false)
}
func (d *Detector) WriteRange(addr mem.Addr, count int, elemBytes uint64) {
	d.access(addr, uint64(count)*elemBytes, true)
}

// RacingWords returns the set of word addresses with at least one pair of
// logically parallel conflicting accesses.
func (d *Detector) RacingWords() map[mem.Addr]bool { return maps.Clone(d.racy) }

// DAG is the series-parallel DAG of one serial fork-join execution, built
// from its structure events alone — Spawn, Restore and Sync, as a
// stint.Tracer receives them — with strands numbered as stint/internal/spord
// numbers them (per spawn: child, continuation, and on a block's first spawn
// its sync strand). Reachability is the ancestor closure of its edges, so it
// shares nothing with the structures it is the reference for.
type DAG struct {
	anc    []*big.Int // anc[s]: the strands that precede s, as bits
	frames []dagFrame
	cur    int32
}

// dagFrame is a running task: its reserved sync strand (-1: none), the
// strands that sync joins, and the parent's continuation.
type dagFrame struct {
	sync, cont int32
	joined     *big.Int
}

// NewDAG returns a DAG holding the root strand, which is current.
func NewDAG() *DAG {
	g := &DAG{frames: []dagFrame{{sync: -1, cont: -1, joined: new(big.Int)}}}
	g.cur = g.strand(new(big.Int))
	return g
}

func (g *DAG) strand(anc *big.Int) int32 {
	g.anc = append(g.anc, anc)
	return int32(len(g.anc) - 1)
}

// throughCur returns the current strand and the strands that precede it.
func (g *DAG) throughCur() *big.Int { return new(big.Int).SetBit(g.anc[g.cur], int(g.cur), 1) }

// Spawn starts a child task from the current strand.
func (g *DAG) Spawn() {
	top, below := &g.frames[len(g.frames)-1], g.throughCur()
	child, cont := g.strand(below), g.strand(below)
	if top.sync < 0 {
		top.sync = g.strand(nil)
	}
	g.frames = append(g.frames, dagFrame{sync: -1, cont: cont, joined: new(big.Int)})
	g.cur = child
}

// Restore returns from the current task, which has synced, to its parent's
// continuation; the task's final strand joins at the parent's next sync.
func (g *DAG) Restore() {
	cont := g.frames[len(g.frames)-1].cont
	g.frames = g.frames[:len(g.frames)-1]
	top := &g.frames[len(g.frames)-1]
	top.joined.Or(top.joined, g.throughCur())
	g.cur = cont
}

// Sync joins the current task's outstanding children, if it has any.
func (g *DAG) Sync() {
	if top := &g.frames[len(g.frames)-1]; top.sync >= 0 {
		s := top.sync
		g.anc[s] = top.joined.Or(top.joined, g.throughCur())
		top.sync, top.joined = -1, new(big.Int)
		g.cur = s
	}
}

// CurrentID returns the current strand.
func (g *DAG) CurrentID() int32 { return g.cur }

// ParallelWithCurrent reports whether strand stored, which ran, is parallel
// with the current strand.
func (g *DAG) ParallelWithCurrent(stored int32) bool {
	return stored != g.cur && g.anc[g.cur].Bit(int(stored)) == 0
}
