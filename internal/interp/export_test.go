package interp

// FlatOps flattens in's program and returns the opcode of every flattened
// instruction, superinstructions included.
func FlatOps(in *Interp) []int {
	in.prepare()
	var ops []int
	for _, ff := range in.fp.flat {
		for i := range ff.code {
			ops = append(ops, int(ff.code[i].op))
		}
	}
	return ops
}
