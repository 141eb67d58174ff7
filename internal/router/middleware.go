package router

import (
	"context"
	"net/http"
	"runtime/debug"
	"time"

	"github.com/why-not-xai/emigre/client"
)

type requestIDKey struct{}

// requestIDFrom returns the correlation ID the middleware pinned on
// the request context (adopted or minted from the request's own header
// when the middleware is absent, as in direct handler tests).
func requestIDFrom(r *http.Request) string {
	if id, _ := r.Context().Value(requestIDKey{}).(string); id != "" {
		return id
	}
	return client.AdoptRequestID(r.Header)
}

// statusWriter captures the response status for the request log.
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

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withMiddleware adds panic recovery, correlation-ID adoption/echo and
// one access-log line per request. The same X-Emigre-Request-Id flows
// inbound → router log → every upstream leg → backend log, so one grep
// follows a request across the whole topology.
func (rt *Router) withMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := client.AdoptRequestID(r.Header)
		w.Header().Set(client.RequestIDHeader, rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				rt.log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, "internal router error")
				}
			}
			rt.log.Printf("%s %s %d %s rid=%s backend=%s",
				r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond),
				rid, sw.Header().Get(BackendHeader))
		}()
		next.ServeHTTP(sw, r)
	})
}
