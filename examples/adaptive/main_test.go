package main

// Example runs the field re-optimization loop: a layout synthesized from a
// small input's profile runs the field workload while the engine records
// a new profile, and the layout synthesized from that one is faster.
func Example() {
	main()
	// Output:
	// deployed layout (from small-input profile): 12570085 cycles on field workload
	// re-optimized layout (from field profile):   4803340 cycles on field workload
	// re-optimization gain: 61.8%
}
