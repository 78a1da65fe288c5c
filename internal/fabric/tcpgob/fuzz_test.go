package tcpgob

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzFrameDecode feeds arbitrary frame bodies to the decoder: it must
// never panic, never allocate more than a constant multiple of its input
// (a hostile count cannot size an allocation), and anything it accepts
// must re-encode to the identical bytes — the encoding is canonical.
// Seeded from the oracle table, so every kind and optional section starts
// in the corpus.
func FuzzFrameDecode(f *testing.F) {
	for _, tc := range oracleFrames() {
		body := appendFrame(nil, &tc.f)[4:]
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// TotalAlloc is process-wide and the fuzz worker's own goroutines
		// allocate too; decoding is deterministic, so the smallest of a few
		// measurements is the decoder's.
		limit, got := uint64(32*len(body)+4096), ^uint64(0)
		var fr frame
		var err error
		for try := 0; try < 5 && got > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fr, err = decodeFrame(body)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), got, limit)
		}
		if err != nil {
			return
		}
		wire := appendFrame(nil, &fr)
		if int(le.Uint32(wire)) != len(body) || !bytes.Equal(wire[4:], body) {
			t.Fatalf("accepted a non-canonical %s frame:\n in  %x\n out %x", kindName(fr.kind), body, wire[4:])
		}
	})
}
