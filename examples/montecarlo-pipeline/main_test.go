package main

// Example runs MonteCarlo's synthesized 62-core layout and measures how
// much of the aggregation overlapped the simulations.
func Example() {
	main()
	// Output:
	// synthesized 62-core layout (aggregate placement):
	//   aggregate on cores [0]; simulate replicated on 62 cores
	//
	// total: 256502 cycles, 193 invocations
	// aggregation work: 157284 cycles, of which 92118 (59%) overlapped simulation
	//
	// The aggregate task runs on its own core concurrently with the
	// simulate instantiations: the pipelined heterogeneous implementation
	// the paper's synthesizer surprised its authors with (Section 5.4).
}
