package stint

// Seams for the harness's external legs (package stint_test), which the
// workloads and trace packages, both importing stint, cannot reach from
// inside it.
var (
	PipeModes        = pipeModes
	AssertSameReport = assertSameReport
)

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
