package bc

// sourceKernel runs one source's sweeps and adds its dependency
// contributions to sink. A kernel owns whatever scratch it needs, so one
// kernel serves one source at a time.
type sourceKernel func(s int32, sink scoreSink)

// sweep is one source computation of runSources and the drawn sources it
// answers for. Every kernel sweeps each drawn source once (weight 1); the
// folded k = 0 run (fold.go) sweeps each distinct core source once, for
// itself and for its drawn pendants.
type sweep struct {
	s      int32
	weight int32 // drawn sources the sweep answers for
	leaves int32 // how many of them are pendants folded into s
}

// slot is what one in-flight source owns: a private score stripe and a
// kernel with its scratch. The kernel is built by the first source that
// draws the slot, so the scratch is first touched on a worker.
type slot struct {
	local  []float64
	kernel sourceKernel
}

// scoreSink is the accumulation target of one in-flight sweep: its slot's
// stripe, which no other sweep writes until the slot is returned, so plain
// adds suffice. scale is the estimator's n/|sources| times the sweep's
// weight; leaf is n/|sources| times its leaves, which only the Brandes
// kernel reads.
type scoreSink struct {
	local []float64
	scale float64
	leaf  float64
}

func (sk scoreSink) add(v int32, x float64) {
	sk.local[v] += sk.scale * x
}
