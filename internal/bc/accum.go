package bc

// sourceKernel runs one source's sweeps and adds its dependency
// contributions to sink. A kernel owns whatever scratch it needs, so one
// kernel serves one source at a time.
type sourceKernel func(s int32, sink scoreSink)

// slot is what one in-flight source owns: a private score stripe and a
// kernel with its scratch. The kernel is built by the first source that
// draws the slot, so the scratch is first touched on a worker.
type slot struct {
	sink   scoreSink
	kernel sourceKernel
}

// scoreSink is the accumulation target of one in-flight source: its
// slot's stripe, which no other source writes until the slot is returned,
// so plain adds suffice.
type scoreSink struct {
	local []float64
	scale float64
}

func (sk scoreSink) add(v int32, x float64) {
	sk.local[v] += sk.scale * x
}
