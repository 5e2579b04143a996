package stint

// Seams for the harness's external legs (package stint_test), which the
// workloads and trace packages, both importing stint, cannot reach from
// inside it.
var (
	PipeModes        = pipeModes
	AssertSameReport = assertSameReport
)

// RaceEnabled reports a -race build, where the goroutine executor keeps no
// Task frames.
const RaceEnabled = raceEnabled

// GenProgram is the harness's random-shape program for seed, in
// decodeProgram's byte code.
func GenProgram(seed int64) []byte { return genProgram(seed, shapeRandom) }

// ProgramBody allocates the buffers of the program data encodes on r's
// Arena and returns its body.
func ProgramBody(r *Runner, data []byte) TaskFunc {
	p := decodeProgram(data)
	bufs := p.alloc(r)
	return func(t *Task) { runActs(t, bufs, p.acts, -1) }
}

// ParallelRetained returns what a warm ParallelDetect Runner keeps for its
// executor and merge: the reorder walk's byte store, parked-chunk records
// and task queues (stage.Reorder.Retained), and the Task frames on hand.
func (r *Runner) ParallelRetained() (storeBytes, chunks, queues, frames int) {
	storeBytes, chunks, queues = r.warm.as.reorder.Retained()
	return storeBytes, chunks, queues, len(r.warm.frames.free)
}

// SerialRetained returns how many strand records and union-find entries a
// warm sync Runner keeps (spord.SP.Retained).
func (r *Runner) SerialRetained() int { return r.warm.rp.sp.Retained() }
