package hin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The encoding/json codec the hand-written one replaced, kept as the
// oracle: stdlibWriteJSON and stdlibReadJSON are the former WriteJSON
// and ReadJSON.

type stdGraph struct {
	Nodes []stdNode `json:"nodes"`
	Edges []stdEdge `json:"edges"`
}

type stdNode struct {
	ID    int    `json:"id"`
	Type  string `json:"type"`
	Label string `json:"label,omitempty"`
}

type stdEdge struct {
	From   int     `json:"from"`
	To     int     `json:"to"`
	Type   string  `json:"type"`
	Weight float64 `json:"weight"`
}

func stdlibWriteJSON(g *Graph, w io.Writer) error {
	jg := stdGraph{
		Nodes: make([]stdNode, g.NumNodes()),
		Edges: make([]stdEdge, 0, g.NumEdges()),
	}
	for v := 0; v < g.NumNodes(); v++ {
		jg.Nodes[v] = stdNode{ID: v, Type: g.types.NodeTypeName(g.ntype[v]), Label: g.labels[v]}
		for _, h := range g.out[v] {
			jg.Edges = append(jg.Edges, stdEdge{From: v, To: int(h.Node), Type: g.types.EdgeTypeName(h.Type), Weight: h.Weight})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jg)
}

func stdlibReadJSON(r io.Reader) (*Graph, error) {
	var jg stdGraph
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("hin: decoding graph JSON: %w", err)
	}
	g := NewGraph()
	for i, n := range jg.Nodes {
		if n.ID != i {
			return nil, fmt.Errorf("hin: node ids must be dense, got %d at position %d", n.ID, i)
		}
		if n.Label != "" {
			if _, exists := g.NodeByLabel(n.Label); exists {
				return nil, fmt.Errorf("hin: node %d: duplicate label %q", i, n.Label)
			}
		}
		g.AddNode(g.types.NodeType(n.Type), n.Label)
	}
	for _, e := range jg.Edges {
		if err := g.AddEdge(NodeID(e.From), NodeID(e.To), g.types.EdgeType(e.Type), e.Weight); err != nil {
			return nil, fmt.Errorf("hin: edge (%d,%d): %w", e.From, e.To, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// graphDiff describes how two graphs differ, "" when they are the
// same: type registries in ID order, nodes, and both adjacency lists in
// order, weights bit for bit.
func graphDiff(a, b *Graph) string {
	dump := func(g *Graph) string {
		var s strings.Builder
		r := g.Types()
		for i := 0; i < r.NumNodeTypes(); i++ {
			fmt.Fprintf(&s, "ntype %d %q\n", i, r.NodeTypeName(NodeTypeID(i)))
		}
		for i := 0; i < r.NumEdgeTypes(); i++ {
			fmt.Fprintf(&s, "etype %d %q\n", i, r.EdgeTypeName(EdgeTypeID(i)))
		}
		for v := 0; v < g.NumNodes(); v++ {
			fmt.Fprintf(&s, "node %d %d %q\n", v, g.ntype[v], g.labels[v])
			for _, h := range g.out[v] {
				fmt.Fprintf(&s, " out %d %d %x\n", h.Node, h.Type, math.Float64bits(h.Weight))
			}
			for _, h := range g.in[v] {
				fmt.Fprintf(&s, " in %d %d %x\n", h.Node, h.Type, math.Float64bits(h.Weight))
			}
		}
		return s.String()
	}
	if da, db := dump(a), dump(b); da != db {
		return fmt.Sprintf("got:\n%s\nwant:\n%s", da, db)
	}
	return ""
}

// schemaKeys are the file's field names.
var schemaKeys = []string{"nodes", "edges", "id", "type", "label", "from", "to", "weight"}

// exactUniqueKeys reports whether no object in data's first JSON value
// repeats a key or spells a field name in another case: the inputs on
// which ReadJSON must accept exactly what encoding/json accepts. A
// syntax error ends the walk with true: both must reject.
func exactUniqueKeys(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var walk func() (bool, error)
	walk = func() (bool, error) {
		tok, err := dec.Token()
		if err != nil {
			return true, err
		}
		switch tok {
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				kt, err := dec.Token()
				if err != nil {
					return true, err
				}
				key := kt.(string)
				if seen[key] {
					return false, nil
				}
				seen[key] = true
				for _, name := range schemaKeys {
					if key != name && strings.EqualFold(key, name) {
						return false, nil
					}
				}
				if ok, err := walk(); !ok || err != nil {
					return ok, err
				}
			}
			_, err := dec.Token()
			return true, err
		case json.Delim('['):
			for dec.More() {
				if ok, err := walk(); !ok || err != nil {
					return ok, err
				}
			}
			_, err := dec.Token()
			return true, err
		}
		return true, nil
	}
	ok, _ := walk()
	return ok
}

// checkReadMatchesStdlib holds ReadJSON to the oracle on one input.
func checkReadMatchesStdlib(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadJSON(bytes.NewReader(data))
	want, werr := stdlibReadJSON(bytes.NewReader(data))
	switch {
	case err == nil && werr != nil:
		t.Fatalf("ReadJSON accepted what encoding/json rejects (%v)\ninput: %q", werr, data)
	case err == nil:
		if d := graphDiff(got, want); d != "" {
			t.Fatalf("ReadJSON and encoding/json read different graphs from %q\n%s", data, d)
		}
	case werr == nil && exactUniqueKeys(data):
		t.Fatalf("ReadJSON rejected what encoding/json accepts: %v\ninput: %q", err, data)
	}
}

// nastyStrings are labels and type names that exercise every escaping
// and decoding rule of a JSON string.
var nastyStrings = []string{
	"", "plain", `q"uote`, `back\slash`, "<a href='x'>&amp;</a>", "tab\there", "nl\nline",
	"\b\f\r\x00\x01\x1f\x7f", "slash/", "ünïcödé ✓ 𝄞", "  ", "bad\xffutf8\xc3",
	"\xed\xa0\x80surrogate", "\ufffd",
}

// nastyWeights are positive finite weights at every float format edge.
var nastyWeights = []float64{
	1, 0.8, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e21, 123456789012345678,
	math.SmallestNonzeroFloat64, math.MaxFloat64, 2.5e-8, 1e-100, 0.1 + 0.2,
}

func nastyGraph(rng *rand.Rand, nodes, edges int) *Graph {
	g := NewGraph()
	pick := func() string { return nastyStrings[rng.Intn(len(nastyStrings))] }
	for i := 0; i < nodes; i++ {
		label := ""
		if rng.Intn(3) > 0 {
			label = fmt.Sprintf("%s-%d", pick(), i)
		}
		g.AddNode(g.types.NodeType(pick()), label)
	}
	for i := 0; i < edges && nodes > 1; i++ {
		a, b := NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes))
		w := nastyWeights[rng.Intn(len(nastyWeights))]
		if rng.Intn(2) == 0 {
			w = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		if a != b && w > 0 {
			_ = g.AddEdge(a, b, g.types.EdgeType(pick()), w)
		}
	}
	return g
}

func TestWriteJSONMatchesStdlib(t *testing.T) {
	tri, _ := buildTriangle(t)
	graphs := []*Graph{NewGraph(), tri}
	nodesOnly := NewGraph()
	nodesOnly.AddNode(nodesOnly.types.NodeType("user"), "")
	graphs = append(graphs, nodesOnly)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		graphs = append(graphs, nastyGraph(rng, rng.Intn(12), rng.Intn(40)))
	}
	for i, g := range graphs {
		var got, want bytes.Buffer
		if err := g.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := stdlibWriteJSON(g, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("graph %d: WriteJSON differs from encoding/json\ngot:\n%s\nwant:\n%s", i, got.Bytes(), want.Bytes())
		}
		checkReadMatchesStdlib(t, got.Bytes())
	}
}

// TestWriteJSONLargeGraph crosses the writer's and reader's buffer
// boundaries many times.
func TestWriteJSONLargeGraph(t *testing.T) {
	g := nastyGraph(rand.New(rand.NewSource(9)), 3000, 20000)
	var got, want bytes.Buffer
	if err := g.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := stdlibWriteJSON(g, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteJSON differs from encoding/json on a large graph")
	}
	// One byte per Read: every token straddles a refill.
	back, err := ReadJSON(&oneByteReader{data: got.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := stdlibReadJSON(bytes.NewReader(got.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := graphDiff(back, oracle); d != "" {
		t.Fatalf("one-byte reads and encoding/json read different graphs\n%.3000s", d)
	}
}

type oneByteReader struct{ data []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0] = r.data[0]
	r.data = r.data[1:]
	return 1, nil
}

// readJSONCases are inputs at the edges of what encoding/json accepts.
var readJSONCases = []string{
	``, ` `, `null`, ` null `, `null x`, `nullx`, `nul`, `{}`, `{} trailing garbage`, `[]`, `"x"`, `1`, `true`,
	`{"nodes":null,"edges":null}`, `{"nodes":[],"edges":[]}`, `{"nodes":[null]}`, `{"nodes":[null,null]}`,
	`{"edges":[{"from":0,"to":1,"type":"e","weight":1}],"nodes":[{"id":0,"type":"a"},{"id":1,"type":"b"}]}`,
	`{"nodes":[{"id":0,"type":"a","label":"x","extra":{"deep":[1,2,{"k":null}]}}],"other":[true,false]}`,
	`{"nodes":[{"id":0,"type":null,"label":null}]}`, `{"nodes":[{"id":null}]}`,
	`{"nodes":[{"id":0.0}]}`, `{"nodes":[{"id":1e0}]}`, `{"nodes":[{"id":-0}]}`, `{"nodes":[{"id":"0"}]}`,
	`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":4294967296,"to":1,"weight":1}]}`,
	`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"weight":1e400}]}`,
	`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"weight":1e-400}]}`,
	`{"nodes":[{"id":0},{"id":1}],"edges":[{"from":0,"to":1,"weight":0.5},{"from":1,"to":0}]}`,
	`{"nodes":[{"id":0},{"id":1}],"edges":[null]}`,
	`{"nodes":[{"id":9223372036854775807}]}`, `{"nodes":[{"id":9223372036854775808}]}`,
	`{"nodes":[{"id":01}]}`, `{"nodes":[{"id":-}]}`, `{"nodes":[{"id":1.}]}`, `{"nodes":[{"id":1e}]}`,
	`{"nodes":[{"id":0,"type":"é😀𐀀x\ud800A\udc00"}]}`,
	`{"nodes":[{"id":0,"type":"\/\b\f\n\r\t\"\\"}]}`, `{"nodes":[{"id":0,"type":"\x"}]}`,
	`{"nodes":[{"id":0,"type":"\u12"}]}`, "{\"nodes\":[{\"id\":0,\"type\":\"a\x01\"}]}",
	"{\"nodes\":[{\"id\":0,\"type\":\"\xff\xfe\xed\xa0\x80\"}]}",
	`{"nodes":[{"id":0,"label":"a"},{"id":1,"label":"a"}]}`, `{"nodes":[{"id":1}]}`,
	`{"nodes":[],}`, `{"nodes":[1]}`, `{"nodes":{}}`, `{"nodes":"x"}`, `{"nodes":[[]]}`, `{"nodes":[{"id":[]}]}`,
	`{"nodes":[{"type":1}]}`, `{"nodes":[{"label":true}]}`, `{"edges":[{"weight":"1"}]}`,
	`{"nodes":[],"nodes":[]}`, `{"NODES":[{"id":0}]}`, `{"nodes":[{"ID":5}]}`, `{"nodes":[{"id":0,"id":0}]}`,
	`{"nodes":[{"id":0,"id":0}]}`, `{"nodes":[{"id":0}]}`, `{"nodeſ":[]}`,
	`{"nodes":[] "edges":[]}`, `{"nodes" []}`, `{nodes:[]}`, `{"nodes":[]`, `{"a":tru}`, `{"a":nulL}`,
	"\ufeff{}", "\t\r\n{ \"nodes\" : [ { \"id\" : 0 } ] }",
	`{"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

func TestReadJSONMatchesStdlib(t *testing.T) {
	for _, in := range readJSONCases {
		checkReadMatchesStdlib(t, []byte(in))
	}
}

// FuzzReadJSONMatchesStdlib holds ReadJSON to encoding/json: whatever
// ReadJSON accepts, encoding/json accepts as the same graph, and on
// inputs with exact-case unique keys the two accept the same inputs.
func FuzzReadJSONMatchesStdlib(f *testing.F) {
	for _, in := range readJSONCases {
		if len(in) < 1000 {
			f.Add([]byte(in))
		}
	}
	var buf bytes.Buffer
	if err := nastyGraph(rand.New(rand.NewSource(1)), 4, 8).WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadMatchesStdlib(t, data)
	})
}
