package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/fault"
	"github.com/why-not-xai/emigre/internal/testleak"
)

// TestExplainDeadline504 maps an expired search deadline to 504: with a
// nanosecond budget the first cancellation poll inside the search trips,
// well before any PPR work completes.
func TestExplainDeadline504(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) { c.ExplainTimeout = time.Nanosecond })
	start := time.Now()
	rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "wni": "The Hobbit", "mode": "remove", "method": "exhaustive",
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("504 took %v, want well under 1s", elapsed)
	}
	var body client.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("504 body is not JSON: %s", rec.Body.String())
	}
	if body.Error == "" {
		t.Fatal("504 body has no error message")
	}
}

// TestExplainRequestTimeoutMS: a per-request timeout_ms tightens the
// server deadline without any server reconfiguration. Every CHECK is
// slowed by a failpoint far past the 1ms budget, so the search cannot
// outrun the clock: the answer is a 504 or a degraded 200, and it comes
// long before the sleep would have ended under the 30s server deadline.
func TestExplainRequestTimeoutMS(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	srv, _ := newTestServer(t) // default 30s server deadline
	if err := fault.Apply("emigre.check=sleep(5s)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "wni": "The Hobbit", "mode": "remove",
		"method": "exhaustive", "timeout_ms": 1,
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("answer took %v: the 1ms request budget did not cut the 5s CHECK", elapsed)
	}
	switch rec.Code {
	case http.StatusGatewayTimeout:
		// the 1ms budget expired mid-search, as intended
	case http.StatusOK:
		// The squeezed search answered with its partial — equally proof
		// the 1ms deadline applied, as long as the response says so.
		var body client.ExplainResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("200 body is not JSON: %s", rec.Body.String())
		}
		if !body.Degraded {
			t.Fatalf("200 within 1ms budget but degraded=false: %s", rec.Body.String())
		}
		if rec.Header().Get("X-Emigre-Degraded") == "" {
			t.Fatal("degraded response missing X-Emigre-Degraded header")
		}
	default:
		t.Fatalf("status = %d, want 504 or degraded 200: %s", rec.Code, rec.Body.String())
	}
}

// TestSaturation503 fills the admission gate and verifies the next
// request is shed immediately with 503 + Retry-After instead of queueing.
func TestSaturation503(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = -1 // no queue: reject as soon as the slot is taken
	})
	// Occupy the only slot as a stand-in for an in-flight explanation.
	if err := srv.adm.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.ReleaseObserved(1, 0)

	rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "wni": "Harry Potter",
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After header")
	}
	var body client.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("503 body = %s", rec.Body.String())
	}

	// Diagnose goes through the same gate.
	rec = do(t, srv.Handler(), "POST", "/diagnose", map[string]any{
		"user": "Paul", "wni": "The Hobbit",
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("diagnose status = %d, want 503", rec.Code)
	}
}

// TestQueuedRequestTimesOut: with a queue, a request that cannot get a
// slot before its deadline leaves with 504 instead of waiting forever.
func TestQueuedRequestTimesOut(t *testing.T) {
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.QueueDepth = 4
		c.ExplainTimeout = 20 * time.Millisecond
	})
	if err := srv.adm.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.ReleaseObserved(1, 0)

	start := time.Now()
	rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "wni": "Harry Potter",
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("queued timeout took %v", elapsed)
	}
}

// TestPanicRecovery: a handler panic becomes a 500 JSON response and a
// log line, never a crashed process or an empty reply.
func TestPanicRecovery(t *testing.T) {
	var buf syncBuffer
	srv, _ := newTestServerCfg(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := do(t, srv.Handler(), "GET", "/boom", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body client.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("500 body = %s", rec.Body.String())
	}
	if out := buf.String(); !strings.Contains(out, "kaboom") || !strings.Contains(out, "500") {
		t.Fatalf("log output missing panic details:\n%s", out)
	}
}

// TestRequestLogging: every request produces a line with method, path,
// status; explanation requests also log the CHECK count.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	srv, _ := newTestServerCfg(t, func(c *Config) { c.Logger = log.New(&buf, "", 0) })
	do(t, srv.Handler(), "GET", "/healthz", nil)
	rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d: %s", rec.Code, rec.Body.String())
	}
	out := buf.String()
	if !strings.Contains(out, "GET /healthz 200") {
		t.Fatalf("missing healthz log line:\n%s", out)
	}
	if !strings.Contains(out, "POST /explain 200") || !strings.Contains(out, "tests=") || !strings.Contains(out, " gated=") {
		t.Fatalf("missing explain log line with tests and gated counts:\n%s", out)
	}
}

// TestReadyzDraining: /readyz flips to 503 after SetDraining while
// /healthz stays 200 (the process is alive, just not accepting work).
func TestReadyzDraining(t *testing.T) {
	srv, _ := newTestServer(t)
	if rec := do(t, srv.Handler(), "GET", "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz status = %d, want 200", rec.Code)
	}
	srv.SetDraining()
	rec := do(t, srv.Handler(), "GET", "/readyz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("readyz body = %s", rec.Body.String())
	}
	if rec := do(t, srv.Handler(), "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz status while draining = %d, want 200", rec.Code)
	}
}

// TestGracefulDrain exercises the shutdown path end to end with a real
// listener: a request in flight when Shutdown starts still gets its
// response, and Shutdown returns cleanly once it is delivered.
func TestGracefulDrain(t *testing.T) {
	testleak.Check(t)
	srv, _ := newTestServer(t)
	inHandler := make(chan struct{})
	srv.mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		time.Sleep(150 * time.Millisecond)
		fmt.Fprint(w, `{"slow":"done"}`)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	type result struct {
		status int
		body   string
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: string(b)}
	}()

	<-inHandler // the request is now in flight
	srv.SetDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK || !strings.Contains(res.body, "done") {
		t.Fatalf("in-flight response = %d %q", res.status, res.body)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
}

// TestConcurrentExplains: several simultaneous explanations on the
// shared server must all succeed (run with -race to check the engines).
func TestConcurrentExplains(t *testing.T) {
	testleak.Check(t)
	srv, _ := newTestServerCfg(t, func(c *Config) {
		c.MaxConcurrent = 4
		c.QueueDepth = 16
	})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
				"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset",
			})
			if rec.Code != http.StatusOK {
				errs <- fmt.Sprintf("status %d: %s", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
