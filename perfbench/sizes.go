package main

// sizes are the workloads' stated sizes.
type sizes struct {
	sweep  sweepSize
	serve  serveSize
	attack attackSize
}

// defaultSizes are the sizes the benchmark measures and the references
// were captured at.
func defaultSizes() sizes {
	return sizes{
		sweep:  sweepSize{scale: 8, programs: 12, machines: 4},
		serve:  serveSize{requests: 2000, degradeAfter: 5},
		attack: attackSize{trials: 16},
	}
}

// tinySizes keep each workload to a second or two for the smoke tests. The
// attack matrix at 4 trials is the size BENCH_table3.json was recorded at.
func tinySizes() sizes {
	return sizes{
		sweep:  sweepSize{scale: 64, programs: 2, machines: 1},
		serve:  serveSize{requests: 150, degradeAfter: 140},
		attack: attackSize{trials: table3Trials},
	}
}
