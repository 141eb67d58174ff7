package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
)

// Request-correlation headers shared with the server. The client sends
// the same X-Emigre-Request-Id on every attempt of one logical call
// (plus a 1-based X-Emigre-Attempt counter), so server-side captures
// can group retries; the server echoes the ID on the response.
const (
	RequestIDHeader = "X-Emigre-Request-Id"
	AttemptHeader   = "X-Emigre-Attempt"

	cacheTallyHeader = "X-Emigre-Cache"
)

type requestIDKey struct{}

// WithRequestID pins the correlation ID used for every attempt of calls
// made under ctx, instead of a random per-call ID. Replay tools use it
// to re-send recorded IDs.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// requestID returns the pinned ID under ctx, or a fresh random one.
func requestID(ctx context.Context) string {
	if id, _ := ctx.Value(requestIDKey{}).(string); id != "" {
		return id
	}
	return newRequestID()
}

// newRequestID mints a 16-hex-char random correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a static
		// fallback keeps requests flowing and is visibly synthetic.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// MaxRequestIDLen bounds the inbound correlation IDs AdoptRequestID
// accepts.
const MaxRequestIDLen = 64

// AdoptRequestID returns the correlation ID to serve a request under:
// its X-Emigre-Request-Id when that is at most MaxRequestIDLen bytes of
// printable ASCII without spaces or quotes — so it embeds safely in
// access logs and response headers — and a freshly minted one
// otherwise. A rejected ID is replaced, not truncated, so an ID is
// either the caller's exact string or unambiguously minted. The server
// and the router both adopt IDs with it.
func AdoptRequestID(h http.Header) string {
	id := h.Get(RequestIDHeader)
	if id == "" || len(id) > MaxRequestIDLen {
		return newRequestID()
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' || c == '"' {
			return newRequestID()
		}
	}
	return id
}

// Meta is the per-call wire metadata the server exposes in headers:
// the echoed correlation ID and the request's cache tally, plus how
// many attempts the call took client-side.
type Meta struct {
	// RequestID is the correlation ID the call was made (and echoed)
	// under.
	RequestID string
	// Attempts is the number of HTTP attempts this logical call took.
	Attempts int
	// CacheHits/CacheMisses are the server's PPR-cache tallies for this
	// request (X-Emigre-Cache, "3h/1m"); zero when the header is absent.
	CacheHits   int64
	CacheMisses int64
}

// fill parses the server's response headers into m.
func (m *Meta) fill(h http.Header) {
	if m == nil {
		return
	}
	if id := h.Get(RequestIDHeader); id != "" {
		m.RequestID = id
	}
	m.CacheHits, m.CacheMisses = parseTally(h.Get(cacheTallyHeader), "h", "m")
}

// parseTally decodes the server's "<a><suffixA>/<b><suffixB>" tally
// header ("3h/1m"); malformed or absent values read as 0.
func parseTally(s, suffixA, suffixB string) (int64, int64) {
	left, right, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0
	}
	a, okA := strings.CutSuffix(left, suffixA)
	b, okB := strings.CutSuffix(right, suffixB)
	if !okA || !okB {
		return 0, 0
	}
	av, errA := strconv.ParseInt(a, 10, 64)
	bv, errB := strconv.ParseInt(b, 10, 64)
	if errA != nil || errB != nil {
		return 0, 0
	}
	return av, bv
}
