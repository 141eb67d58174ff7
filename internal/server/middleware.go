package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/pprcache"
)

// RequestIDHeader carries the request correlation ID. Clients may send
// one (the resilient client sends the same ID for every retry of a
// logical call, so capture tools can group attempts); the server
// generates one otherwise, and always echoes it on the response.
const RequestIDHeader = "X-Emigre-Request-Id"

// CacheTallyHeader carries the PPR-cache hit/miss count ("3h/1m") of
// the work this request triggered — the same numbers the access log
// carries, exposed on the wire so load-test session logs can record
// them per request.
const CacheTallyHeader = "X-Emigre-Cache"

// maxRequestIDLen bounds accepted client-supplied IDs; longer ones are
// replaced, not truncated, so an ID is either the client's exact string
// or unambiguously server-minted.
const maxRequestIDLen = 64

// requestInfo accumulates per-request details the logging middleware
// cannot see on its own (the number of CHECK invocations a search ran
// and how many of them the rival gate settled),
// and hands the middleware-created cache tally to handlers so they can
// surface it as a response header before the body is written.
type requestInfo struct {
	tests    int
	gated    int
	hasTests bool
	rid      string
	rs       *pprcache.RequestStats
}

type requestInfoKey struct{}

// infoFrom returns the request's info record, or nil when the request
// did not pass through the middleware (direct handler tests).
func infoFrom(ctx context.Context) *requestInfo {
	info, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return info
}

// recordTests notes the CHECK count, and the gated share of it, for the
// request log line.
func recordTests(ctx context.Context, st emigre.ExplainStats) {
	if info := infoFrom(ctx); info != nil {
		info.tests, info.gated = st.Tests, st.Gated
		info.hasTests = true
	}
}

// newRequestID mints a 16-hex-char random correlation ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a static
		// fallback keeps request serving alive and is visibly synthetic.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a client-supplied ID only when it is short
// and printable-ASCII without spaces or quotes, so IDs embed safely in
// the access log and response headers.
func sanitizeRequestID(s string) string {
	if s == "" || len(s) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '"' {
			return ""
		}
	}
	return s
}

// setTallyHeaders exposes the request's cache tally as a response
// header. Handlers call it after their search work completes and before
// the first body write.
func setTallyHeaders(w http.ResponseWriter, ctx context.Context) {
	if info := infoFrom(ctx); info != nil && info.rs != nil {
		w.Header().Set(CacheTallyHeader,
			strconv.FormatInt(info.rs.Hits(), 10)+"h/"+strconv.FormatInt(info.rs.Misses(), 10)+"m")
	}
}

// statusWriter captures the response status for logging and panic
// recovery, passing interface upgrades (http.Flusher, io.ReaderFrom)
// through to the wrapped writer so streaming handlers and sendfile
// still work behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the wrapped writer to http.ResponseController, the
// stdlib's interface-upgrade convention for middleware writers.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush implements http.Flusher when the wrapped writer does. Flushing
// an unwritten response commits an implicit 200, exactly like Write.
func (w *statusWriter) Flush() {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom preserves the wrapped writer's io.ReaderFrom fast path
// (sendfile on *http.response); io.Copy degrades gracefully when the
// wrapped writer does not implement it.
func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return io.Copy(w.ResponseWriter, src)
}

// withMiddleware wraps the route tree with panic recovery and
// structured request logging: one line per request with method, path,
// status, duration, (for explanation requests) the CHECK count and how
// many of those the rival gate rejected and (when the vector cache is
// enabled) the request's cache hit/miss tally.
func (s *Server) withMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		info := &requestInfo{}
		ctx := context.WithValue(r.Context(), requestInfoKey{}, info)
		var rs *pprcache.RequestStats
		if s.cache != nil {
			rs = &pprcache.RequestStats{}
			ctx = pprcache.WithRequestStats(ctx, rs)
		}
		info.rs = rs
		info.rid = sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if info.rid == "" {
			info.rid = newRequestID()
		}
		w.Header().Set(RequestIDHeader, info.rid)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					s.writeErr(sw, http.StatusInternalServerError, errors.New("internal server error"))
				}
				// When the handler had already written a status before
				// panicking, that status is what the client observed —
				// the request log must not claim a 500 that never
				// reached the wire. The panic line above carries the
				// fault; sw.status stays the on-wire truth.
			}
			elapsed := time.Since(start)
			s.routeFor(r.URL.Path).observe(sw.status, elapsed)
			line := ""
			if info.hasTests {
				line = " tests=" + strconv.Itoa(info.tests) + " gated=" + strconv.Itoa(info.gated)
			}
			if rs != nil && (rs.Hits() > 0 || rs.Misses() > 0) {
				line += " cache=" + strconv.FormatInt(rs.Hits(), 10) + "h/" + strconv.FormatInt(rs.Misses(), 10) + "m"
			}
			s.log.Printf("%s %s %d %s rid=%s%s",
				r.Method, r.URL.Path, sw.status, elapsed.Round(time.Microsecond), info.rid, line)
		}()
		next.ServeHTTP(sw, r)
	})
}
