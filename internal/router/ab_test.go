package router

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/internal/server"
	"github.com/why-not-xai/emigre/internal/testleak"
)

// newBooksBackend boots a real emigre-server over the books graph —
// the A/B tests compare the router against the genuine article, not a
// fake.
func newBooksBackend(t *testing.T) *httptest.Server {
	t.Helper()
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	rc := emigre.DefaultRecommenderConfig(books.Types.Item)
	rc.Beta = 1
	rec, err := emigre.NewRecommender(books.Graph, rc)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Graph:       books.Graph,
		Recommender: rec,
		Options: emigre.Options{
			AllowedEdgeTypes: books.ActionEdgeTypes(),
			AddEdgeType:      books.Types.Rated,
		},
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// durationRe scrubs the only legitimately nondeterministic byte range
// of an explain response before comparison.
var durationRe = regexp.MustCompile(`"duration_us":\d+`)

func normalizeDuration(b []byte) []byte {
	return durationRe.ReplaceAll(b, []byte(`"duration_us":0`))
}

func postRaw(t *testing.T, baseURL, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func getRaw(t *testing.T, baseURL, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(baseURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRoutedExplainByteIdenticalToDirect is the A/B acceptance check:
// an explain response served through the router is byte-identical to
// the same question asked directly of a backend, modulo duration_us.
// Run under -race in CI.
func TestRoutedExplainByteIdenticalToDirect(t *testing.T) {
	testleak.Check(t, "emigre") // backend search worker pools drain asynchronously
	back1, back2 := newBooksBackend(t), newBooksBackend(t)

	rt, err := New(Config{
		Backends:      []string{back1.URL, back2.URL},
		ProbeInterval: 50 * time.Millisecond,
		FailoverLegs:  2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	questions := []map[string]any{
		{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset"},
		{"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "exhaustive"},
		{"user": "Paul", "items": []string{"Harry Potter", "The Hobbit"}, "mode": "add"},
		{"user": "Paul", "category": "Fantasy", "mode": "add"},
	}
	for i, q := range questions {
		directStatus, direct := postRaw(t, back1.URL, "/explain", q)
		routedStatus, routed := postRaw(t, front.URL, "/explain", q)
		if directStatus != http.StatusOK || routedStatus != http.StatusOK {
			t.Fatalf("q%d: direct=%d routed=%d: %s / %s", i, directStatus, routedStatus, direct, routed)
		}
		if !bytes.Equal(normalizeDuration(direct), normalizeDuration(routed)) {
			t.Fatalf("q%d: routed response differs from direct:\ndirect: %s\nrouted: %s", i, direct, routed)
		}
	}
	// Error shapes must mirror too: a 422 from the backend arrives
	// unchanged through the router.
	q := map[string]any{"user": "Paul", "wni": "Python"}
	directStatus, direct := postRaw(t, back1.URL, "/explain", q)
	routedStatus, routed := postRaw(t, front.URL, "/explain", q)
	if directStatus != http.StatusUnprocessableEntity || routedStatus != directStatus {
		t.Fatalf("422 mirror: direct=%d routed=%d", directStatus, routedStatus)
	}
	if !bytes.Equal(direct, routed) {
		t.Fatalf("422 body differs:\ndirect: %s\nrouted: %s", direct, routed)
	}
}

// TestRoutedRecommendByteIdenticalToDirect: same identity contract for
// the read-side endpoint.
func TestRoutedRecommendByteIdenticalToDirect(t *testing.T) {
	testleak.Check(t, "emigre")
	back := newBooksBackend(t)
	rt, err := New(Config{
		Backends:      []string{back.URL},
		ProbeInterval: 50 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	directStatus, direct := getRaw(t, back.URL, "/recommend?user=Paul&n=5")
	routedStatus, routed := getRaw(t, front.URL, "/recommend?user=Paul&n=5")
	if directStatus != http.StatusOK || routedStatus != http.StatusOK {
		t.Fatalf("direct=%d routed=%d", directStatus, routedStatus)
	}
	if !bytes.Equal(direct, routed) {
		t.Fatalf("recommend differs:\ndirect: %s\nrouted: %s", direct, routed)
	}

	q := map[string]any{"user": "Paul", "wni": "The Hobbit", "mode": "remove"}
	directStatus, direct = postRaw(t, back.URL, "/diagnose", q)
	routedStatus, routed = postRaw(t, front.URL, "/diagnose", q)
	if directStatus != http.StatusOK || routedStatus != http.StatusOK {
		t.Fatalf("diagnose: direct=%d routed=%d: %s / %s", directStatus, routedStatus, direct, routed)
	}
	if !bytes.Equal(direct, routed) {
		t.Fatalf("diagnose differs:\ndirect: %s\nrouted: %s", direct, routed)
	}
}
