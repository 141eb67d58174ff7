package load

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/client"
	"github.com/why-not-xai/emigre/internal/obs"
	"github.com/why-not-xai/emigre/internal/testleak"
)

func testConfig() Config {
	return Config{
		Seed:     42,
		Count:    200,
		Users:    []string{"Paul", "Alice", "Dan", "Greg", "Hank", "Clara", "Fiona"},
		Items:    []string{"Harry Potter", "Candide", "C", "Python"},
		UserSkew: 1.2,
		ItemSkew: 1.5,
		OpMix:    map[string]float64{OpExplain: 0.7, OpRecommend: 0.25, OpDiagnose: 0.05},
		ModeMix:  map[string]float64{"remove": 0.6, "add": 0.4},
		MethodMix: map[string]float64{
			"powerset": 0.5, "incremental": 0.5,
		},
		Arrival: ArrivalPoisson,
		Rate:    500,
	}
}

// TestGenerateDeterministic: same seed + config = byte-identical
// stream; a different seed diverges.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("same seed produced different streams")
	}
	cfg := testConfig()
	cfg.Seed = 43
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := json.Marshal(c)
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGenerateShape: mixes, arrival offsets and skew all materialize.
func TestGenerateShape(t *testing.T) {
	reqs, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	users := map[string]int{}
	rids := map[string]bool{}
	lastOffset := int64(-1)
	for _, r := range reqs {
		ops[r.Op]++
		users[r.User]++
		if rids[r.RID] {
			t.Fatalf("duplicate rid %s", r.RID)
		}
		rids[r.RID] = true
		if r.OffsetUS < lastOffset {
			t.Fatalf("offsets not monotone: %d after %d", r.OffsetUS, lastOffset)
		}
		lastOffset = r.OffsetUS
		switch r.Op {
		case OpExplain:
			if r.WNI == "" || r.Mode == "" || r.Method == "" {
				t.Fatalf("incomplete explain request: %+v", r)
			}
		case OpRecommend:
			if r.N != 10 {
				t.Fatalf("recommend without default n: %+v", r)
			}
		case OpDiagnose:
			if r.WNI == "" || r.Mode == "" {
				t.Fatalf("incomplete diagnose request: %+v", r)
			}
		}
	}
	if ops[OpExplain] == 0 || ops[OpRecommend] == 0 {
		t.Fatalf("op mix did not materialize: %v", ops)
	}
	if ops[OpExplain] < ops[OpRecommend] {
		t.Fatalf("explain weighted 0.7 vs 0.25 but drew less: %v", ops)
	}
	// Zipf skew: the most popular user must dominate a uniform share.
	maxUser := 0
	for _, n := range users {
		if n > maxUser {
			maxUser = n
		}
	}
	if maxUser <= len(reqs)/len(testConfig().Users) {
		t.Fatalf("user skew did not concentrate traffic: %v", users)
	}
	if lastOffset <= 0 {
		t.Fatal("poisson offsets never advanced")
	}
}

func TestGenerateRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Count = 0 },
		func(c *Config) { c.Users = nil },
		func(c *Config) { c.Items = nil },
		func(c *Config) { c.UserSkew = 0.5 },
		func(c *Config) { c.OpMix = map[string]float64{"nope": 1} },
		func(c *Config) { c.OpMix = map[string]float64{OpExplain: -1} },
		func(c *Config) { c.Arrival = "bursty" },
		func(c *Config) { c.Rate = 0 },
		func(c *Config) { c.ModeMix = map[string]float64{"remove": 0} },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestSessionLogRoundTrip: encode → decode is lossless.
func TestSessionLogRoundTrip(t *testing.T) {
	recs := []Record{
		{Request: Request{Seq: 0, RID: "a1", Op: OpExplain, User: "Paul", WNI: "C",
			Mode: "remove", Method: "powerset", OffsetUS: 10},
			Status: 200, LatencyUS: 1500, Attempts: 1, Degraded: true,
			DegradedLevel: "partial", CacheHits: 3, CacheMisses: 1},
		{Request: Request{Seq: 1, RID: "a2", Op: OpRecommend, User: "Alice", N: 10, OffsetUS: 20},
			Status: 503, LatencyUS: 900, Err: "server returned 503: saturated"},
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(recs)
	jb, _ := json.Marshal(got)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("round trip lost data:\n%s\n%s", ja, jb)
	}
}

func TestDecodeLineRejects(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"{not json",
		`{"v":2,"seq":0,"rid":"x","op":"explain","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1}`,
		`{"v":1,"seq":0,"rid":"","op":"explain","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1}`,
		`{"v":1,"seq":-2,"rid":"x","op":"explain","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1}`,
		`{"v":1,"seq":0,"rid":"x","op":"mutate","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1}`,
		`{"v":1,"seq":0,"rid":"x","op":"explain","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1,"bogus":true}`,
		`{"v":1,"seq":0,"rid":"x","op":"explain","user":"u","offset_us":0,"start_us":0,"status":200,"latency_us":1}{"v":1}`,
	}
	for _, in := range cases {
		if _, err := DecodeLine([]byte(in)); err == nil {
			t.Errorf("DecodeLine(%q): expected error", in)
		}
	}
}

// stubServer records incoming requests in arrival order and returns
// canned JSON per endpoint.
type stubServer struct {
	mu   sync.Mutex
	seen []stubHit
}

type stubHit struct {
	Path string
	RID  string
	Body string
}

func (s *stubServer) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.Body != nil {
			body, _ = readAll(r)
		}
		s.mu.Lock()
		s.seen = append(s.seen, stubHit{
			Path: r.URL.Path + "?" + r.URL.RawQuery,
			RID:  r.Header.Get(client.RequestIDHeader),
			Body: string(body),
		})
		s.mu.Unlock()
		w.Header().Set(client.RequestIDHeader, r.Header.Get(client.RequestIDHeader))
		w.Header().Set("X-Emigre-Cache", "2h/1m")
		switch r.URL.Path {
		case "/explain":
			json.NewEncoder(w).Encode(map[string]any{
				"mode": "remove", "method": "powerset", "verified": true,
				"degraded": true, "degraded_level": "partial",
			})
		case "/recommend":
			json.NewEncoder(w).Encode(map[string]any{"user": 1, "items": []any{}})
		case "/diagnose":
			json.NewEncoder(w).Encode(map[string]any{"kind": "k", "detail": "d"})
		default:
			http.NotFound(w, r)
		}
	})
}

func readAll(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

func (s *stubServer) hits() []stubHit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]stubHit(nil), s.seen...)
}

func newLoadClient(t *testing.T, url string) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{BaseURL: url, MaxAttempts: 2,
		BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestReplayReproducesRecordedSequence is the tentpole acceptance test:
// capture a run, replay its session log single-worker, and require the
// server to see the same request sequence — order, paths, bodies and
// logical IDs — both times.
func TestReplayReproducesRecordedSequence(t *testing.T) {
	testleak.Check(t) // Run's worker pool must not outlive the run
	cfg := testConfig()
	cfg.Count = 40
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Capture run: closed-loop single worker for a deterministic
	// arrival order at the server.
	capture := &stubServer{}
	ts := httptest.NewServer(capture.handler())
	defer ts.Close()
	recs, err := Run(context.Background(), RunConfig{
		Client:   newLoadClient(t, ts.URL),
		Requests: reqs,
		Closed:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(reqs) {
		t.Fatalf("recorded %d of %d requests", len(recs), len(reqs))
	}

	// Session log round trip: write, read back, extract the stream.
	var buf bytes.Buffer
	if err := WriteLog(&buf, recs); err != nil {
		t.Fatal(err)
	}
	replayRecs, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replayReqs := Requests(replayRecs)
	ja, _ := json.Marshal(reqs)
	jb, _ := json.Marshal(replayReqs)
	if !bytes.Equal(ja, jb) {
		t.Fatal("request stream did not survive the session log")
	}

	// Replay run against a second server.
	replay := &stubServer{}
	ts2 := httptest.NewServer(replay.handler())
	defer ts2.Close()
	if _, err := Run(context.Background(), RunConfig{
		Client:   newLoadClient(t, ts2.URL),
		Requests: replayReqs,
		Closed:   true,
	}); err != nil {
		t.Fatal(err)
	}

	a, b := capture.hits(), replay.hits()
	if len(a) != len(b) {
		t.Fatalf("capture saw %d requests, replay saw %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs:\ncapture: %+v\nreplay:  %+v", i, a[i], b[i])
		}
	}
	if a[0].RID == "" {
		t.Fatal("requests carried no logical IDs")
	}
}

// TestRunRecordsOutcomes: statuses, latencies, degraded marks and
// header tallies all land in the records.
func TestRunRecordsOutcomes(t *testing.T) {
	testleak.Check(t)
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	reqs := []Request{
		{Seq: 0, RID: "r0", Op: OpExplain, User: "u", WNI: "x", Mode: "remove", Method: "powerset"},
		{Seq: 1, RID: "r1", Op: OpRecommend, User: "u", N: 5},
		{Seq: 2, RID: "r2", Op: OpDiagnose, User: "u", WNI: "x", Mode: "remove"},
	}
	recs, err := Run(context.Background(), RunConfig{
		Client: newLoadClient(t, ts.URL), Requests: reqs, Closed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("records not ordered by seq: %+v", recs)
		}
		if r.Status != 200 {
			t.Errorf("record %d status = %d", i, r.Status)
		}
		if r.Attempts != 1 {
			t.Errorf("record %d attempts = %d", i, r.Attempts)
		}
		if r.CacheHits != 2 || r.CacheMisses != 1 {
			t.Errorf("record %d tallies = %+v", i, r)
		}
	}
	if !recs[0].Degraded || recs[0].DegradedLevel != "partial" {
		t.Errorf("explain degraded marks lost: %+v", recs[0])
	}
}

// TestRunOpenLoopPacing: open-loop dispatch honors scheduled offsets
// (scaled by Speed) rather than firing everything at once.
func TestRunOpenLoopPacing(t *testing.T) {
	testleak.Check(t)
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()
	reqs := []Request{
		{Seq: 0, RID: "p0", Op: OpRecommend, User: "u", N: 1, OffsetUS: 0},
		{Seq: 1, RID: "p1", Op: OpRecommend, User: "u", N: 1, OffsetUS: 120_000},
	}
	start := time.Now()
	recs, err := Run(context.Background(), RunConfig{
		Client: newLoadClient(t, ts.URL), Requests: reqs, Speed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("run finished in %v, want >= 100ms (second request scheduled at +120ms)", elapsed)
	}
	if recs[1].StartUS < 100_000 {
		t.Fatalf("request 1 dispatched at %dus, want >= 100ms", recs[1].StartUS)
	}
	// Speed 2 halves the schedule.
	start = time.Now()
	if _, err := Run(context.Background(), RunConfig{
		Client: newLoadClient(t, ts.URL), Requests: reqs, Speed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 110*time.Millisecond {
		t.Fatalf("2x replay took %v, want ~60ms schedule", elapsed)
	}
}

// TestBuildReport: percentile math, per-op slicing, scrape deltas and
// the benchfmt projection.
func TestBuildReport(t *testing.T) {
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{
			Request:   Request{Seq: i, RID: "x", Op: OpExplain, User: "u"},
			Status:    200,
			LatencyUS: int64((i + 1) * 1000), // 1ms..100ms
			Attempts:  1,
		})
	}
	recs[99].Status = 503
	recs[99].Err = "saturated"
	recs[42].Degraded = true
	recs[42].DegradedLevel = "partial"
	recs = append(recs, Record{
		Request: Request{Seq: 100, RID: "y", Op: OpRecommend, User: "u"},
		Status:  200, LatencyUS: 500, Attempts: 1,
	})

	before, err := obs.ParseExposition([]byte("# TYPE emigre_admission_rejections_total counter\nemigre_admission_rejections_total 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := obs.ParseExposition([]byte("# TYPE emigre_admission_rejections_total counter\nemigre_admission_rejections_total 7\n"))
	if err != nil {
		t.Fatal(err)
	}

	rep := BuildReport(recs, before, after, 10)
	if rep.Requests != 101 || rep.QPS != 10.1 {
		t.Errorf("totals: %+v", rep)
	}
	ex := rep.Endpoints[OpExplain]
	if ex == nil || ex.Count != 100 || ex.Errors != 1 {
		t.Fatalf("explain slice: %+v", ex)
	}
	if ex.Latency.P50 != 50_000 || ex.Latency.P99 != 99_000 || ex.Latency.Max != 100_000 {
		t.Errorf("percentiles: %+v", ex.Latency)
	}
	if ex.Degraded["partial"] != 1 {
		t.Errorf("degraded histogram: %+v", ex.Degraded)
	}
	if ex.Rate503 != 0.01 {
		t.Errorf("rate_503 = %v", ex.Rate503)
	}
	if rep.MetricsDelta["emigre_admission_rejections_total"] != 5 {
		t.Errorf("metrics delta: %+v", rep.MetricsDelta)
	}

	bf := rep.ToBenchFmt("test run")
	if got := bf.Result("loadgen/explain"); got == nil || got.Metrics["p99_us"] != 99_000 {
		t.Errorf("benchfmt explain: %+v", got)
	} else if got.Metrics["ns/op"] != got.Metrics["mean_us"]*1e3 {
		t.Errorf("benchfmt ns/op not derived from mean: %+v", got.Metrics)
	}
	total := bf.Result("loadgen/total")
	if total == nil || total.Iterations != 101 {
		t.Errorf("benchfmt total: %+v", total)
	}
	if total.Metrics["qps"] != 10.1 {
		t.Errorf("benchfmt qps: %v", total.Metrics)
	}
	if !strings.Contains(rep.Render(), "explain") {
		t.Error("Render missing endpoint lines")
	}
}
