package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestDigestIgnoresOrderButNotAnswers(t *testing.T) {
	ops := []op{
		{Kind: opExplain, User: "u1", WNI: "i1", Mode: "remove", Method: "powerset"},
		{Kind: opExplain, User: "u2", WNI: "i2", Mode: "add", Method: "incremental"},
		{Kind: opRecommend, User: "u1"},
	}
	answers := []answer{
		{Status: statusAnswered, Edges: []string{"i9:rated", "i8:reviewed"}},
		{Status: statusNoExplanation},
		{Status: statusAnswered, Items: []string{"i1", "i2"}},
	}
	base := digest(ops, answers)
	if len(base) != 64 {
		t.Fatalf("digest %q is not a SHA-256 in hex", base)
	}
	swappedOps := []op{ops[2], ops[0], ops[1]}
	swappedAnswers := []answer{answers[2], answers[0], answers[1]}
	if got := digest(swappedOps, swappedAnswers); got != base {
		t.Error("the digest depends on arrival order")
	}
	for name, change := range map[string]func(a []answer){
		"status":     func(a []answer) { a[1].Status = statusAnswered },
		"edge order": func(a []answer) { a[0].Edges = []string{"i8:reviewed", "i9:rated"} },
		"an item":    func(a []answer) { a[2].Items = []string{"i1", "i3"} },
	} {
		changed := append([]answer{}, answers...)
		change(changed)
		if digest(ops, changed) == base {
			t.Errorf("changing %s leaves the digest unchanged", name)
		}
	}
}

func TestExpectedRoundTrips(t *testing.T) {
	exp, err := loadExpected(testExpectedFile)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "expected.json")
	if err := exp.save(path); err != nil {
		t.Fatal(err)
	}
	again, err := loadExpected(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exp, again) {
		t.Error("expected answers change when saved and loaded")
	}
	want, err := os.ReadFile(testExpectedFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("expected.json is not in the form save writes; regenerate it with -update-expected")
	}
}
