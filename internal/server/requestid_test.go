package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// doWithHeaders is do() plus request headers.
func doWithHeaders(t *testing.T, h http.Handler, method, path string, body any, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRequestIDGeneratedAndLogged: a request without an ID gets a
// server-minted one, echoed on the response and recorded in the access
// log as rid=.
func TestRequestIDGeneratedAndLogged(t *testing.T) {
	var buf syncBuffer
	srv, _ := newTestServerCfg(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	rec := do(t, srv.Handler(), "GET", "/healthz", nil)
	rid := rec.Header().Get(RequestIDHeader)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(rid) {
		t.Fatalf("generated ID %q, want 16 hex chars", rid)
	}
	if !strings.Contains(buf.String(), "rid="+rid) {
		t.Fatalf("access log missing rid=%s:\n%s", rid, buf.String())
	}
}

// TestRequestIDEchoed: a well-formed client ID is echoed verbatim; a
// malformed one is replaced with a server-minted ID.
func TestRequestIDEchoed(t *testing.T) {
	var buf syncBuffer
	srv, _ := newTestServerCfg(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })

	rec := doWithHeaders(t, srv.Handler(), "GET", "/healthz", nil,
		map[string]string{RequestIDHeader: "loadgen-0042-a"})
	if got := rec.Header().Get(RequestIDHeader); got != "loadgen-0042-a" {
		t.Fatalf("echoed ID = %q, want loadgen-0042-a", got)
	}
	if !strings.Contains(buf.String(), "rid=loadgen-0042-a") {
		t.Fatalf("access log missing client rid:\n%s", buf.String())
	}

	for _, bad := range []string{
		"has space", "quote\"inside", "ctrl\x01char",
		strings.Repeat("x", maxRequestIDLen+1),
	} {
		rec := doWithHeaders(t, srv.Handler(), "GET", "/healthz", nil,
			map[string]string{RequestIDHeader: bad})
		got := rec.Header().Get(RequestIDHeader)
		if got == bad || got == "" {
			t.Errorf("malformed ID %q must be replaced, got %q", bad, got)
		}
	}
}

// TestExplainTallyHeaders: /explain exposes the request's cache tally
// as a parseable response header.
func TestExplainTallyHeaders(t *testing.T) {
	srv, _ := newTestServer(t)
	body := map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "remove"}
	rec := do(t, srv.Handler(), "POST", "/explain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	cache := rec.Header().Get(CacheTallyHeader)
	if !regexp.MustCompile(`^\d+h/\d+m$`).MatchString(cache) {
		t.Errorf("%s = %q, want <n>h/<m>m", CacheTallyHeader, cache)
	}
	if cache == "0h/0m" {
		t.Errorf("an explain with caching enabled must touch the cache, got %q", cache)
	}
}

// TestRecommendTallyHeader: /recommend exposes the forward-vector cache
// tally too.
func TestRecommendTallyHeader(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv.Handler(), "GET", "/recommend?user=Paul&n=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if cache := rec.Header().Get(CacheTallyHeader); !regexp.MustCompile(`^\d+h/\d+m$`).MatchString(cache) {
		t.Errorf("%s = %q, want <n>h/<m>m", CacheTallyHeader, cache)
	}
}
