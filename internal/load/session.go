package load

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// LogVersion is the session-log record version. Decoding rejects
// records stamped with any other version, so format changes fail
// loudly at read time instead of producing silently-wrong replays.
const LogVersion = 1

// Record is one request/response pair of a session log: the request as
// issued (replayable verbatim) plus the observed outcome.
type Record struct {
	// V is the record format version (LogVersion).
	V int `json:"v"`
	Request
	// StartUS is when the request was actually dispatched, microseconds
	// from run start (OffsetUS is when it was scheduled; the difference
	// is scheduler lag).
	StartUS int64 `json:"start_us"`
	// Status is the HTTP status of the call's outcome: the final
	// response status, or 0 when no response arrived (transport error,
	// context expiry).
	Status int `json:"status"`
	// LatencyUS is the logical call's wall time in microseconds,
	// retries and backoff included — what the caller experienced.
	LatencyUS int64 `json:"latency_us"`
	// Err is the terminal error string for failed calls.
	Err string `json:"err,omitempty"`
	// Attempts is how many HTTP attempts the call took.
	Attempts int `json:"attempts,omitempty"`
	// Degraded marks a below-full-fidelity explanation;
	// DegradedLevel names the degradation ("partial").
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedLevel string `json:"degraded_level,omitempty"`
	// Cache tally from the server's response headers.
	CacheHits   int64 `json:"cache_h,omitempty"`
	CacheMisses int64 `json:"cache_m,omitempty"`
}

// EncodeLine renders r as one JSONL line (newline included).
func EncodeLine(r *Record) ([]byte, error) {
	r.V = LogVersion
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("load: encoding record %d: %w", r.Seq, err)
	}
	return append(b, '\n'), nil
}

// DecodeLine parses one session-log line, rejecting version skew and
// structurally broken records.
func DecodeLine(line []byte) (*Record, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return nil, fmt.Errorf("load: empty session-log line")
	}
	var r Record
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("load: bad session-log line: %w", err)
	}
	// Reject trailing garbage after the JSON object ("{...}{...}").
	if dec.More() {
		return nil, fmt.Errorf("load: trailing data after session-log record")
	}
	if r.V != LogVersion {
		return nil, fmt.Errorf("load: session-log version %d, this build reads %d", r.V, LogVersion)
	}
	if r.RID == "" {
		return nil, fmt.Errorf("load: record %d has no rid", r.Seq)
	}
	if r.Seq < 0 {
		return nil, fmt.Errorf("load: negative seq %d", r.Seq)
	}
	switch r.Op {
	case OpExplain, OpRecommend, OpDiagnose:
	default:
		return nil, fmt.Errorf("load: record %d has unknown op %q", r.Seq, r.Op)
	}
	return &r, nil
}

// WriteLog writes records as JSONL.
func WriteLog(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for i := range recs {
		line, err := EncodeLine(&recs[i])
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLog parses a JSONL session log, skipping blank lines. Any
// malformed or version-skewed record fails the whole read with its
// line number — a session log is a replay input, not a best-effort
// diagnostic, so partial reads would silently change the workload.
func ReadLog(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		rec, err := DecodeLine(sc.Bytes())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		recs = append(recs, *rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("load: reading session log: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("load: session log has no records")
	}
	return recs, nil
}

// Requests extracts the replayable request stream from a session log,
// in recorded order.
func Requests(recs []Record) []Request {
	reqs := make([]Request, len(recs))
	for i := range recs {
		reqs[i] = recs[i].Request
	}
	return reqs
}
