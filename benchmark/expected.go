package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// expectedFile holds the answers the program has to give: the sampled
// users with their top lists (which also define the question pool) and
// the outcome of every question a workload can ask. It is written by
// -update-expected from an in-process run whose every explanation was
// re-verified, and is read on every run.
const expectedFile = "benchmark/expected.json"

// Answer statuses. The driver's wider outcome taxonomy (outcome.go)
// files everything else under a failure.
const (
	statusAnswered      = "answered"
	statusNoExplanation = "no-explanation"
)

// answer is what the program said to one question, reduced to what has
// to repeat: the status and, by kind, the explanation's edges, the
// recommended items or the diagnosis.
type answer struct {
	Status string `json:"status"`
	// Edges are an explanation's edges as "<item label>:<edge type>",
	// in response order.
	Edges []string `json:"edges,omitempty"`
	// Items are a recommend's item labels, best first.
	Items []string `json:"items,omitempty"`
	// Diagnosis is a diagnose's "<kind>/<working mode>/<actions>".
	Diagnosis string `json:"diagnosis,omitempty"`
}

func (a answer) equal(b answer) bool {
	return a.Status == b.Status && slices.Equal(a.Edges, b.Edges) &&
		slices.Equal(a.Items, b.Items) && a.Diagnosis == b.Diagnosis
}

func (a answer) String() string {
	return a.Status + " " + strings.Join(a.Edges, ",") + strings.Join(a.Items, ",") + a.Diagnosis
}

type expectedUser struct {
	User string   `json:"user"`
	Top  []string `json:"top"`
}

type expected struct {
	// Users are the dataset's sampled users in node order, each with
	// their top-10 item labels.
	Users []expectedUser `json:"users"`
	// Answers maps op.key() to the expected answer of explain and
	// diagnose ops; recommends are checked against Users.
	Answers map[string]answer `json:"answers"`

	top map[string][]string
}

func loadExpected(path string) (*expected, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var exp expected
	if err := json.Unmarshal(raw, &exp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(exp.Users) == 0 {
		return nil, fmt.Errorf("%s lists no users", path)
	}
	exp.index()
	return &exp, nil
}

func (e *expected) index() {
	e.top = make(map[string][]string, len(e.Users))
	for _, u := range e.Users {
		e.top[u.User] = u.Top
	}
}

// save writes the file with one user or answer per line, answers in
// key order, so that a regenerated file diffs line by line.
func (e *expected) save(path string) error {
	var buf bytes.Buffer
	line := func(indent string, v any, last bool) error {
		raw, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf.WriteString(indent)
		buf.Write(raw)
		if !last {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
		return nil
	}
	buf.WriteString("{\n \"users\": [\n")
	for i, u := range e.Users {
		if err := line("  ", u, i == len(e.Users)-1); err != nil {
			return err
		}
	}
	buf.WriteString(" ],\n \"answers\": {\n")
	keys := make([]string, 0, len(e.Answers))
	for k := range e.Answers {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		buf.WriteString("  " + strconv.Quote(k) + ": ")
		if err := line("", e.Answers[k], i == len(keys)-1); err != nil {
			return err
		}
	}
	buf.WriteString(" }\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// answerFor returns the expected answer of o.
func (e *expected) answerFor(o op) (answer, error) {
	if o.Kind == opRecommend {
		top, ok := e.top[o.User]
		if !ok {
			return answer{}, fmt.Errorf("no expected top list for %s", o.User)
		}
		return answer{Status: statusAnswered, Items: top}, nil
	}
	a, ok := e.Answers[o.key()]
	if !ok {
		return answer{}, fmt.Errorf("no expected answer for %s (run with -update-expected after changing a workload)", o.key())
	}
	return a, nil
}

// digest folds ⟨question, status, content⟩ of every op, in question
// order, into one SHA-256: equal for any two runs that asked the same
// questions and got the same answers, whatever order they arrived in.
func digest(ops []op, answers []answer) string {
	lines := make([]string, len(ops))
	for i, o := range ops {
		lines[i] = o.key() + " " + answers[i].String()
	}
	slices.Sort(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
