package emigre

import (
	"context"
	"errors"
	"testing"
)

// newBenchFixture builds the shared two-cluster fixture for benchmarks.
func newBenchFixture(b *testing.B, opts Options) *fixture {
	b.Helper()
	return newFixture(b, opts)
}

func BenchmarkExplainByMethod(b *testing.B) {
	for _, mode := range []Mode{Remove, Add, Combined} {
		for _, method := range []Method{Incremental, Powerset, Exhaustive} {
			b.Run(mode.String()+"/"+method.String(), func(b *testing.B) {
				f := newBenchFixture(b, Options{})
				q := f.query()
				for i := 0; i < b.N; i++ {
					if _, err := f.ex.ExplainWith(q, mode, method); err != nil &&
						!errors.Is(err, ErrNoExplanation) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSearchSpaceDefinition(b *testing.B) {
	for _, mode := range []Mode{Remove, Add, Combined, Reweight} {
		b.Run(mode.String(), func(b *testing.B) {
			f := newBenchFixture(b, Options{})
			q := f.query()
			for i := 0; i < b.N; i++ {
				if _, err := f.ex.newSession(context.Background(), q, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDiagnose(b *testing.B) {
	f := newBenchFixture(b, Options{})
	q := Query{User: f.ids["u"], WNI: f.ids["f3"]}
	for i := 0; i < b.N; i++ {
		if _, err := f.ex.Diagnose(q, Remove); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombinations(b *testing.B) {
	for _, c := range []int{2, 4} {
		b.Run(string(rune('0'+c)), func(b *testing.B) {
			count := 0
			for i := 0; i < b.N; i++ {
				combinations(16, c, func([]int) bool { count++; return true })
			}
			_ = count
		})
	}
}
