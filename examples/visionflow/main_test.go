package main

// Example prints Tracking's task flow graph and its three phases' work on
// 16 cores.
func Example() {
	main()
	// Output:
	// == task flow (Figure 8 analog, Graphviz DOT) ==
	// digraph taskflow {
	//   rankdir=LR;
	//   node [shape=box style=rounded fontsize=10];
	//   "startup";
	//   "genImage";
	//   "blurPiece";
	//   "extractFeature";
	//   "mergeFeatures";
	//   "trackFeature";
	//   "mergeTrack";
	//   "blurPiece" -> "extractFeature";
	//   "extractFeature" -> "mergeFeatures";
	//   "genImage" -> "blurPiece";
	//   "mergeFeatures" -> "mergeTrack";
	//   "mergeFeatures" -> "trackFeature";
	//   "trackFeature" -> "mergeTrack";
	//   "startup" -> "genImage" [style=dashed label="48.0"];
	//   "startup" -> "mergeFeatures" [style=dashed label="1.0"];
	// }
	// == 16-core execution ==
	// total: 8256453 cycles
	//   image processing     97 invocations,   54725250 busy cycles
	//   feature extraction   96 invocations,   42924469 busy cycles
	//   feature tracking     96 invocations,   20399843 busy cycles
}
