package main

// Example compiles a small program, runs it sequentially, synthesizes an
// 8-core layout and runs that.
func Example() {
	main()
	// Output:
	// == sequential run ==
	// total hits: 6084
	// cycles: 12035893
	//
	// == synthesized 8-core layout ==
	// layout(8 cores)
	//   core 0: mergeResult, processText
	//   core 1: processText, startup
	//   core 2: processText
	//   core 3: processText
	//   core 4: processText
	//   core 5: processText
	//   core 6: processText
	//   core 7: processText
	// (26 candidate layouts evaluated by the scheduling simulator)
	//
	// == 8-core run ==
	// total hits: 6084
	// cycles: 1510450  speedup: 8.0x
}
