package schedsim

// Visited simulates once, on scratch of its own, and returns the run's
// result and the parameter-set entries its dispatch walked
// (sched.Sets.Visited).
func (s *Simulator) Visited(opts Options) (*Result, int64, error) {
	st := s.newState()
	res, err := s.runOn(st, opts)
	return res, st.loop.Sets.Visited, err
}
