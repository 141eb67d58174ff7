package dataset

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/why-not-xai/emigre/internal/hin"
)

func BenchmarkGenerateRaw(b *testing.B) {
	cfg := SmallConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := GenerateRaw(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGraph(b *testing.B) {
	raw, err := GenerateRaw(SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildGraph(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// scaledConfigs returns the paper-scale dataset and Lite configurations
// with users, items, categories and Lite's sampled users all ×k, so the
// per-category and per-user shape of the graph stays that of k = 1.
func scaledConfigs(k int) (Config, LiteConfig) {
	cfg := DefaultConfig()
	cfg.Users *= k
	cfg.Items *= k
	cfg.Categories *= k
	lcfg := DefaultLiteConfig()
	lcfg.SampleUsers *= k
	return cfg, lcfg
}

// BenchmarkGenerate runs the whole emigre-gen -preset lite pipeline at
// ×k scale and reports each stage's wall time as its own metric: raw
// synthesis, BuildGraph (§6.1 preprocessing incl. the review linker),
// the Lite extraction, WriteJSON and ReadJSON of the Lite graph. At
// k = 30 one iteration takes seconds; run it with -benchtime=1x.
func BenchmarkGenerate(b *testing.B) {
	for _, k := range []int{1, 10, 30} {
		b.Run(fmt.Sprintf("scale=%d", k), func(b *testing.B) {
			cfg, lcfg := scaledConfigs(k)
			var raw, build, lite, write, read time.Duration
			var file bytes.Buffer
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				r, err := GenerateRaw(cfg)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				a, err := BuildGraph(r)
				if err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				l, _, err := a.Lite(lcfg)
				if err != nil {
					b.Fatal(err)
				}
				t3 := time.Now()
				file.Reset()
				if err := l.Graph.WriteJSON(&file); err != nil {
					b.Fatal(err)
				}
				t4 := time.Now()
				if _, err := hin.ReadJSON(bytes.NewReader(file.Bytes())); err != nil {
					b.Fatal(err)
				}
				t5 := time.Now()
				raw += t1.Sub(t0)
				build += t2.Sub(t1)
				lite += t3.Sub(t2)
				write += t4.Sub(t3)
				read += t5.Sub(t4)
			}
			per := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(per(raw), "raw-ms")
			b.ReportMetric(per(build), "build-ms")
			b.ReportMetric(per(lite), "lite-ms")
			b.ReportMetric(per(write), "write-ms")
			b.ReportMetric(per(read), "read-ms")
		})
	}
}

func BenchmarkLiteExtraction(b *testing.B) {
	a, err := Generate(SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := LiteConfig{Seed: 1, SampleUsers: 10, MinActions: 5, MaxActions: 100, Hops: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.Lite(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewBooks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewBooks(); err != nil {
			b.Fatal(err)
		}
	}
}
