package detect

import "stint/internal/core"

// SameWriterTouches walks every history page's write tree of e, an engine
// New built for STINT, and returns how many pairs of touching nodes have one
// writer, and how many nodes there are.
func SameWriterTouches(e Engine) (pairs, nodes int) {
	e.(*inline).hist.(*treeEngine).pages.Range(func(_ uint64, p *histPage) {
		var last core.Interval
		p.write.Walk(func(iv core.Interval) {
			if nodes++; last.End == iv.Start && last.Acc == iv.Acc && last.Start < last.End {
				pairs++
			}
			last = iv
		})
	})
	return pairs, nodes
}
