package load

import (
	"bytes"
	"testing"
)

// FuzzDecodeLine hardens the session-log decoder: session logs are
// replay inputs that may come from older builds, other machines, or
// truncated files, so DecodeLine must never panic and must only accept
// records that re-encode losslessly.
func FuzzDecodeLine(f *testing.F) {
	valid, err := EncodeLine(&Record{
		Request: Request{Seq: 3, RID: "lg000003-deadbeef", Op: OpExplain,
			User: "Paul", WNI: "C", Mode: "remove", Method: "powerset", OffsetUS: 1200},
		StartUS: 1300, Status: 200, LatencyUS: 4500, Attempts: 2,
		Degraded: true, DegradedLevel: "partial", CacheHits: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"v":1,"seq":0,"rid":"r","op":"recommend","user":"u","offset_us":0,"n":10,"start_us":0,"status":503,"latency_us":9,"err":"saturated"}`))
	f.Add([]byte(`{"v":2,"seq":0,"rid":"r","op":"explain","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1}`))
	f.Add([]byte(`{"v":1}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{"v":1,"seq":0,"rid":"r","op":"explain","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1}{"v":1}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeLine(line)
		if err != nil {
			return
		}
		// Accepted records must survive an encode/decode round trip
		// unchanged — otherwise a replay would diverge from the capture.
		enc, err := EncodeLine(rec)
		if err != nil {
			t.Fatalf("accepted record failed to encode: %v", err)
		}
		rec2, err := DecodeLine(enc)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v\nline: %s", err, enc)
		}
		enc2, err := EncodeLine(rec2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip unstable:\n%s\n%s", enc, enc2)
		}
	})
}
