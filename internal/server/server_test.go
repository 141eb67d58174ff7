package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	emigre "github.com/why-not-xai/emigre"
	"github.com/why-not-xai/emigre/client"
)

func newTestServer(t *testing.T) (*Server, *emigre.Books) {
	return newTestServerCfg(t, nil)
}

// newTestServerCfg builds a books-graph server, letting the test tweak
// the Config (timeouts, admission) before construction.
func newTestServerCfg(t *testing.T, mutate func(*Config)) (*Server, *emigre.Books) {
	t.Helper()
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	return newServerOver(t, books, mutate), books
}

// newServerOver builds a server over books as the test left it.
func newServerOver(t *testing.T, books *emigre.Books, mutate func(*Config)) *Server {
	t.Helper()
	cfg := emigre.DefaultRecommenderConfig(books.Types.Item)
	cfg.Beta = 1
	r, err := emigre.NewRecommender(books.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := Config{
		Graph:       books.Graph,
		Recommender: r,
		Options: emigre.Options{
			AllowedEdgeTypes: books.ActionEdgeTypes(),
			AddEdgeType:      books.Types.Rated,
		},
		Logger: log.New(io.Discard, "", 0),
	}
	if mutate != nil {
		mutate(&sc)
	}
	srv, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
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
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv.Handler(), "GET", "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestStats(t *testing.T) {
	srv, books := newTestServer(t)
	rec := do(t, srv.Handler(), "GET", "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Nodes int `json:"nodes"`
		Edges int `json:"edges"`
		Types []struct {
			NodeType string `json:"node_type"`
			Nodes    int    `json:"nodes"`
		} `json:"types"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Nodes != books.Graph.NumNodes() || body.Edges != books.Graph.NumEdges() {
		t.Fatalf("stats wrong: %+v", body)
	}
	if len(body.Types) != 3 {
		t.Fatalf("type rows = %d, want 3", len(body.Types))
	}
}

func TestRecommend(t *testing.T) {
	srv, books := newTestServer(t)
	rec := do(t, srv.Handler(), "GET", "/recommend?user=Paul&n=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Items []struct {
			Label string  `json:"label"`
			Score float64 `json:"score"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Items) != 3 || body.Items[0].Label != "Python" {
		t.Fatalf("recommendations wrong: %+v", body)
	}
	// A list size far above the item count returns every candidate; the
	// selection buffer is sized by the graph, not by the request.
	rec = do(t, srv.Handler(), "GET", "/recommend?user=Paul&n=1000000000", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("huge n status = %d: %s", rec.Code, rec.Body.String())
	}
	all, err := srv.r.TopN(books.Paul, books.Graph.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Items) != len(all) || body.Items[0].Label != "Python" {
		t.Fatalf("huge n returned %d items, want all %d candidates: %+v", len(body.Items), len(all), body)
	}
	// Bad inputs.
	if rec := do(t, srv.Handler(), "GET", "/recommend?user=Nobody", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown user status = %d", rec.Code)
	}
	if rec := do(t, srv.Handler(), "GET", "/recommend?user=Paul&n=-2", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad n status = %d", rec.Code)
	}
	// Trailing garbage must be rejected, not silently truncated the way
	// Sscanf-style parsing would.
	if rec := do(t, srv.Handler(), "GET", "/recommend?user=Paul&n=10abc", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("n=10abc status = %d, want 400", rec.Code)
	}
}

// TestRecommendNoCandidatesIs404: a user who has rated every item has
// nothing to be recommended. That is a definitive statement about the
// graph — the class "no explanation" answers with — not a server fault:
// a 500 would be retried by the client and failed over by the router.
func TestRecommendNoCandidatesIs404(t *testing.T) {
	books, err := emigre.NewBooks()
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range []emigre.NodeID{
		books.HarryPotter, books.LordOfTheRings, books.TheHobbit,
		books.Candide, books.TheAlchemist, books.Zadig,
		books.C, books.Python, books.Java,
	} {
		if !slices.ContainsFunc(books.Graph.OutEdgesOfType(books.Paul, emigre.NewEdgeTypeSet()), func(e emigre.Edge) bool { return e.To == item }) {
			if err := books.Graph.AddEdge(books.Paul, item, books.Types.Rated, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := newServerOver(t, books, nil)
	rec := do(t, srv.Handler(), "GET", "/recommend?user=Paul", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404: %s", rec.Code, rec.Body.String())
	}
	// Everyone else still gets a list.
	if rec := do(t, srv.Handler(), "GET", "/recommend?user=Alice", nil); rec.Code != http.StatusOK {
		t.Fatalf("Alice status = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestExplainSingle(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "wni": "Harry Potter", "mode": "remove", "method": "powerset",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body client.ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Edges) != 2 || !body.Verified {
		t.Fatalf("explanation wrong: %+v", body)
	}
	for _, e := range body.Edges {
		if e.Operation != "remove" {
			t.Fatalf("operation = %q, want remove", e.Operation)
		}
		if e.ToLabel != "Candide" && e.ToLabel != "C" {
			t.Fatalf("unexpected edge target %q", e.ToLabel)
		}
	}
	if !strings.Contains(body.Description, "Harry Potter") {
		t.Fatalf("description = %q", body.Description)
	}
}

func TestExplainGroupAndCategory(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "items": []string{"Harry Potter", "The Hobbit"}, "mode": "add",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("group status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(t, srv.Handler(), "POST", "/explain", map[string]any{
		"user": "Paul", "category": "Fantasy", "mode": "add",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("category status = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestExplainErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no target", map[string]any{"user": "Paul"}, http.StatusBadRequest},
		{"bad json", nil, http.StatusBadRequest},
		{"unknown user", map[string]any{"user": "Nobody", "wni": "C"}, http.StatusBadRequest},
		{"unknown wni", map[string]any{"user": "Paul", "wni": "Nothing"}, http.StatusBadRequest},
		{"bad mode", map[string]any{"user": "Paul", "wni": "Harry Potter", "mode": "sideways"}, http.StatusBadRequest},
		{"bad method", map[string]any{"user": "Paul", "wni": "Harry Potter", "method": "magic"}, http.StatusBadRequest},
		{"already top", map[string]any{"user": "Paul", "wni": "Python"}, http.StatusUnprocessableEntity},
		{"interacted item", map[string]any{"user": "Paul", "wni": "Candide"}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec *httptest.ResponseRecorder
			if tc.body == nil {
				req := httptest.NewRequest("POST", "/explain", strings.NewReader("{nope"))
				rec = httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, req)
			} else {
				rec = do(t, srv.Handler(), "POST", "/explain", tc.body)
			}
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
		})
	}
}

// TestExplainNoExplanationIs404 covers both ways a search ends without
// an answer. "Why not The Hobbit" in remove mode has none on the books
// graph (Harry Potter and others intercept): with the default budget
// the search space runs out, with a one-CHECK budget the budget does —
// the same 404, told apart by budget_exhausted.
func TestExplainNoExplanationIs404(t *testing.T) {
	for _, tc := range []struct {
		name     string
		method   string
		maxTests int
		want     bool
	}{
		{"exhaustive, search space exhausted", "exhaustive", 0, false},
		{"brute-force, search space exhausted", "brute-force", 0, false},
		{"brute-force, budget exhausted", "brute-force", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := newTestServerCfg(t, func(c *Config) { c.Options.MaxTests = tc.maxTests })
			rec := do(t, srv.Handler(), "POST", "/explain", map[string]any{
				"user": "Paul", "wni": "The Hobbit", "mode": "remove", "method": tc.method,
			})
			if rec.Code != http.StatusNotFound {
				t.Fatalf("status = %d, want 404: %s", rec.Code, rec.Body.String())
			}
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			if got, present := body["budget_exhausted"]; present != tc.want || (tc.want && got != true) {
				t.Fatalf("budget_exhausted = %v (present %v), want %v: %s", got, present, tc.want, rec.Body.String())
			}
			if msg, _ := body["error"].(string); msg == "" {
				t.Fatalf("404 without an error message: %s", rec.Body.String())
			}
		})
	}
}

func TestDiagnoseEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv.Handler(), "POST", "/diagnose", map[string]any{
		"user": "Paul", "wni": "The Hobbit", "mode": "remove",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Kind        string `json:"kind"`
		WorkingMode string `json:"working_mode"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "out-of-scope" {
		t.Fatalf("kind = %q, want out-of-scope", body.Kind)
	}
	if rec := do(t, srv.Handler(), "POST", "/diagnose", map[string]any{"user": "Nobody", "wni": "C"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown user status = %d", rec.Code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t)
	if rec := do(t, srv.Handler(), "GET", "/explain", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /explain status = %d, want 405", rec.Code)
	}
	if rec := do(t, srv.Handler(), "POST", "/stats", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats status = %d, want 405", rec.Code)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing graph should error")
	}
}

// TestRecommendBodyBytesMatchMapEncoding: the typed /recommend body
// encodes to the bytes of the map it replaced — keys in sorted order, an
// empty label omitted — on fixed values and on a served response.
func TestRecommendBodyBytesMatchMapEncoding(t *testing.T) {
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	items := []client.ScoredItem{{Node: 3, Label: "The Hobbit", Score: 0.25}, {Node: 5, Score: 1.5e-9}}
	if got, want := encode(client.RecommendResponse{Items: items, User: 7}), encode(map[string]any{"user": emigre.NodeID(7), "items": items}); got != want {
		t.Fatalf("typed body %s, map body %s", got, want)
	}
	if strings.Contains(encode(items[1]), "label") {
		t.Fatal("an empty label is encoded")
	}

	srv, _ := newTestServer(t)
	rec := do(t, srv.Handler(), "GET", "/recommend?user=Paul&n=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("%d: %s", rec.Code, rec.Body.String())
	}
	var body client.RecommendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if want := encode(map[string]any{"user": body.User, "items": body.Items}); rec.Body.String() != want {
		t.Fatalf("served body %s, map encoding %s", rec.Body.String(), want)
	}
}

// TestDiagnoseBodyBytesMatchMapEncoding: the typed /diagnose body is
// byte for byte the map encoding it replaced (sorted keys).
func TestDiagnoseBodyBytesMatchMapEncoding(t *testing.T) {
	srv, _ := newTestServer(t)
	rec := do(t, srv.Handler(), "POST", "/diagnose", map[string]any{
		"user": "Paul", "wni": "The Hobbit", "mode": "remove",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var body client.DiagnoseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]any{
		"kind": body.Kind, "detail": body.Detail, "actions": body.Actions, "working_mode": body.WorkingMode,
	}); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Fatalf("served body %s, map encoding %s", rec.Body.String(), want.String())
	}
}
