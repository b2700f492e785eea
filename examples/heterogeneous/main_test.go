package main

// Example synthesizes Fractal for a machine of 8 nominal and 8 half-speed
// cores, runs it on the engine beside a homogeneous 16-core run, and holds
// the simulator's estimate for the mixed machine to the run.
func Example() {
	main()
	// Output:
	// homogeneous 16-core run:      1901313 cycles
	// 8 fast + 8 half-speed run:    2597924 cycles (12 core-equivalents)
	// simulator estimate:           2608260 cycles (0.4% error)
	// busy cycles on fast cores: 19886362, on slow cores: 18822602
	// merge task hosted on core(s) [0] (slowdown 1.0)
}
