package hin_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/why-not-xai/emigre/internal/dataset"
	"github.com/why-not-xai/emigre/internal/hin"
)

// liteGraph returns the ×1 Amazon-Lite graph, the file emigre-gen
// -preset lite writes, and that file's bytes.
func liteGraph(b *testing.B) (*hin.Graph, []byte) {
	b.Helper()
	a, err := dataset.Generate(dataset.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lite, _, err := a.Lite(dataset.DefaultLiteConfig())
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := lite.Graph.WriteJSON(&file); err != nil {
		b.Fatal(err)
	}
	return lite.Graph, file.Bytes()
}

func BenchmarkWriteJSON(b *testing.B) {
	g, file := liteGraph(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadJSON(b *testing.B) {
	_, file := liteGraph(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hin.ReadJSON(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
}
