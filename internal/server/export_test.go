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
