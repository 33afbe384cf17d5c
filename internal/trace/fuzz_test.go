package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceRoundTrip exercises the text codec, the form a user-supplied
// trace file reaches: arbitrary (mostly malformed) input bytes must never
// panic the decoder, whatever decodes must re-encode and decode to
// itself, and arbitrary record streams must survive an encode/decode
// round trip exactly.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("# comment\n\n0 r 5\n"), uint8(1))
	f.Add([]byte("0 R 16\n1 W 4096\n"), uint8(2))
	f.Add([]byte("0 R 18446744073709551616\n"), uint8(3))
	f.Add([]byte("9999999999999999999999 R 1\n"), uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, salt uint8) {
		// 1. Malformed input must error or succeed, never panic.
		if tr, err := ReadText(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := tr.WriteText(&buf); err != nil {
				t.Fatalf("text re-encode failed: %v", err)
			}
			back, err := ReadText(&buf)
			if err != nil {
				t.Fatalf("text re-decode failed: %v", err)
			}
			if !equal(tr, back) {
				t.Fatalf("text round trip changed the trace: %v vs %v", tr.Records, back.Records)
			}
		}

		// 2. A synthetic trace derived from the fuzz input must round-trip
		// exactly.
		syn := &Trace{}
		for i, b := range data {
			if i >= 64 {
				break
			}
			kind := Read
			if b&1 == 1 {
				kind = Write
			}
			syn.Append(int(b>>4), kind, uint64(b)*uint64(salt+1)<<(uint(i)%32))
		}
		var buf bytes.Buffer
		if err := syn.WriteText(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("decode of just-encoded trace: %v", err)
		}
		if !equal(syn, got) {
			t.Fatalf("round trip: got %v want %v", got.Records, syn.Records)
		}
	})
}
