package relnet

// DataSeq reports whether datagram b is a DATA segment and, if so, its
// sequence number.
func DataSeq(b []byte) (uint64, bool) {
	h, err := decodeSeg(b)
	return h.seq, err == nil && h.kind == segData
}
