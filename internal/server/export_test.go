package server

// OnePassFeedRequest and OnePassFeedResponse report whether the feed
// codec reads data on its one-pass path, without handing it to
// encoding/json.
func OnePassFeedRequest(data []byte) bool {
	s := scanner{b: data}
	scanFeedRequest(&s)
	return s.done()
}

func OnePassFeedResponse(data []byte) bool {
	s := scanner{b: data}
	scanFeedResponse(&s)
	return s.done()
}

// ParkedSuffix reports how many logged batches a parked session's revive
// replays after its checkpoint, and whether it has one.
func (s *Server) ParkedSuffix(id string) (feeds int, ckpt bool) {
	s.sessMu.Lock()
	sn := s.sessions[id]
	s.sessMu.Unlock()
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return len(sn.suffix), sn.ckpt != nil
}

// CloseWAL closes the server's write-ahead log under its live sessions, so
// the next append fails.
func (s *Server) CloseWAL() error { return s.wal.Close() }

// OpenSessions reports how many entries the session-path scans (parking,
// /varz, drain) walk.
func (s *Server) OpenSessions() int { return len(s.openSessions()) }

// WithWALSegmentBytes returns cfg with the write-ahead log rotating its
// segments at n bytes.
func WithWALSegmentBytes(cfg Config, n int64) Config {
	cfg.walSegmentBytes = n
	return cfg
}

// LockSession holds session id's lock, as a running engine batch does,
// until the returned unlock is called.
func (s *Server) LockSession(id string) (unlock func()) {
	s.sessMu.Lock()
	sn := s.sessions[id]
	s.sessMu.Unlock()
	sn.mu.Lock()
	return sn.mu.Unlock
}

// PendingFeeds reports how many feeds wait on session id's queue.
func (s *Server) PendingFeeds(id string) int {
	s.sessMu.Lock()
	sn := s.sessions[id]
	s.sessMu.Unlock()
	sn.qmu.Lock()
	defer sn.qmu.Unlock()
	return len(sn.pending)
}

// HoldCreates stops every later session create between its admission and
// its boot: the create sends its session's ID on admitted and waits until
// release is called.
func (s *Server) HoldCreates() (admitted <-chan string, release func()) {
	ids, gate := make(chan string, 1), make(chan struct{})
	s.sessMu.Lock()
	s.admitted = func(id string) {
		ids <- id
		<-gate
	}
	s.sessMu.Unlock()
	return ids, func() { close(gate) }
}
