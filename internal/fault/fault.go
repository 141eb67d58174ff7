// Package fault is a stdlib-only failpoint substrate: named injection
// sites planted at the critical seams of the serving stack (cache
// fills, PPR iteration loops, the CHECK step, handler I/O) that cost
// a single atomic load when disarmed and can be armed — by env var,
// flag, or a debug-listener HTTP API — to inject errors, added latency,
// or panics, either every time, probabilistically, or for a bounded
// number of firings.
//
// The package exists so resilience is a testable property instead of a
// hope: the chaos suite arms schedules of sites and asserts the stack's
// invariants (no deadlock, no cache poisoning, well-formed degraded
// answers, client convergence) under -race, and CI boots the real
// server with a failpoint schedule and drives the real client through
// it.
//
// # Sites
//
// A site is registered once, at package init of the code that hosts it:
//
//	var fillSite = fault.Register("pprcache.fill")
//
// and consulted on the hot path:
//
//	if err := fillSite.Hit(ctx); err != nil { return err }
//
// While no site in the process is armed, Hit is one atomic load of a
// package-global counter — the same cost for every site, regardless of
// how many are registered. Site names must be unique string literals;
// the emigre-vet faultsite analyzer enforces both properties.
//
// # Schedules
//
// A schedule is a semicolon-separated list of site=action entries:
//
//	pprcache.fill=error(injected fill)%0.3;ppr.forward.loop=sleep(2ms);server.response.write=error(io)*2
//
// Actions are error(msg), sleep(duration), and panic(msg); the msg and
// duration arguments are optional. The *N suffix fires the action N
// times and then disarms the site; %p (0 < p ≤ 1) fires it with
// probability p on each hit. "off" disarms a site. Apply installs a
// schedule, DisarmAll clears every site.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every error a failpoint
// injects, so tests and callers can tell injected failures from real
// ones with errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("fault: injected failure")

// InjectedError is the concrete error returned by an armed error-action
// site.
type InjectedError struct {
	// Site is the name of the failpoint that fired.
	Site string
	// Msg is the operator-supplied message from the schedule entry.
	Msg string
}

// Error implements error.
func (e *InjectedError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("fault: injected failure at site %q", e.Site)
	}
	return fmt.Sprintf("fault: injected failure at site %q: %s", e.Site, e.Msg)
}

// Unwrap exposes ErrInjected to errors.Is.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// kind is the action a rule performs when it fires.
type kind uint8

const (
	kindError kind = iota
	kindSleep
	kindPanic
)

// rule is one armed action. Immutable after installation except for the
// remaining counter; a site swaps whole rules atomically.
type rule struct {
	kind  kind
	msg   string
	delay time.Duration
	// prob is the per-hit firing probability; 1 fires on every hit.
	prob float64
	// remaining, when non-nil, bounds the number of firings: it counts
	// down on each firing and the site disarms when it reaches zero.
	remaining *atomic.Int64
	// total is the initial remaining value, kept for Status rendering.
	total int64
}

// String reconstructs the schedule syntax of the rule.
func (r *rule) String() string {
	var b strings.Builder
	switch r.kind {
	case kindSleep:
		b.WriteString("sleep(")
		b.WriteString(r.delay.String())
		b.WriteString(")")
	case kindPanic:
		b.WriteString("panic")
		if r.msg != "" {
			b.WriteString("(" + r.msg + ")")
		}
	default:
		b.WriteString("error")
		if r.msg != "" {
			b.WriteString("(" + r.msg + ")")
		}
	}
	if r.remaining != nil {
		left := r.remaining.Load()
		if left < 0 {
			left = 0
		}
		fmt.Fprintf(&b, "*%d", left)
	}
	if r.prob < 1 {
		fmt.Fprintf(&b, "%%%g", r.prob)
	}
	return b.String()
}

// Site is one named failpoint. Obtain sites with Register at package
// init; the zero value is not usable.
type Site struct {
	name string
	rule atomic.Pointer[rule]
	// hits counts Hit calls observed while the site was armed (disarmed
	// hits are not counted — the disabled path must stay load-only).
	hits atomic.Int64
	// injections counts hits on which the action actually fired (after
	// the probability and one-shot filters).
	injections atomic.Int64
}

// armedSites counts armed sites process-wide. It is the fast gate: Hit
// on any site returns immediately while it is zero, so a production
// process with no schedule applied pays one shared atomic load per
// planted site visit.
var armedSites atomic.Int64

// registry holds every registered site by name.
var registry = struct {
	mu    sync.Mutex
	sites map[string]*Site
}{sites: map[string]*Site{}}

// rng drives probabilistic rules. Seeded deterministically so chaos
// schedules replay; SetSeed reseeds for independent runs.
var rng = struct {
	mu sync.Mutex
	r  *rand.Rand
}{r: rand.New(rand.NewSource(1))}

// SetSeed reseeds the probabilistic-rule RNG. Schedules with %p rules
// replay deterministically for a fixed seed and hit order.
func SetSeed(seed int64) {
	rng.mu.Lock()
	rng.r = rand.New(rand.NewSource(seed))
	rng.mu.Unlock()
}

func rngFloat() float64 {
	rng.mu.Lock()
	f := rng.r.Float64()
	rng.mu.Unlock()
	return f
}

// Register creates and registers a failpoint site. It must be called
// once per name, from a package-level var initializer, with a string
// literal name (the emigre-vet faultsite analyzer enforces this); a
// duplicate or empty name panics.
func Register(name string) *Site {
	if name == "" {
		panic("fault: Register with empty site name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.sites[name]; dup {
		panic(fmt.Sprintf("fault: duplicate site name %q", name))
	}
	s := &Site{name: name}
	registry.sites[name] = s
	return s
}

// Lookup returns the site registered under name, or nil.
func Lookup(name string) *Site {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.sites[name]
}

// Sites returns every registered site, sorted by name.
func Sites() []*Site {
	registry.mu.Lock()
	out := make([]*Site, 0, len(registry.sites))
	for _, s := range registry.sites {
		out = append(out, s)
	}
	registry.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Armed reports whether the site currently has a rule installed. Health
// marker sites (server.health.*) are never Hit; /readyz consults Armed
// instead.
func (s *Site) Armed() bool { return s.rule.Load() != nil }

// Hits returns the number of Hit calls observed while armed.
func (s *Site) Hits() int64 { return s.hits.Load() }

// Injections returns the number of times the site's action fired.
func (s *Site) Injections() int64 { return s.injections.Load() }

// Hit consults the failpoint. Disarmed — the production state — it is
// one atomic load of the process-wide armed counter. Armed, it applies
// the rule: an error action returns an *InjectedError; a sleep action
// blocks for the configured delay (or until ctx is done, returning
// ctx.Err()); a panic action panics. ctx may be nil for sites without
// a request context (sleep then blocks unconditionally).
func (s *Site) Hit(ctx context.Context) error {
	if armedSites.Load() == 0 {
		return nil
	}
	return s.hitSlow(ctx)
}

func (s *Site) hitSlow(ctx context.Context) error {
	r := s.rule.Load()
	if r == nil {
		return nil
	}
	s.hits.Add(1)
	if r.prob < 1 && rngFloat() >= r.prob {
		return nil
	}
	if r.remaining != nil {
		left := r.remaining.Add(-1)
		if left < 0 {
			// Raced past exhaustion: another hit consumed the last shot.
			return nil
		}
		if left == 0 {
			s.disarmRule(r)
		}
	}
	s.injections.Add(1)
	switch r.kind {
	case kindSleep:
		if ctx == nil {
			time.Sleep(r.delay)
			return nil
		}
		t := time.NewTimer(r.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case kindPanic:
		panic(fmt.Sprintf("fault: injected panic at site %q: %s", s.name, r.msg))
	default:
		return &InjectedError{Site: s.name, Msg: r.msg}
	}
}

// arm installs a rule, replacing any previous one.
func (s *Site) arm(r *rule) {
	if s.rule.Swap(r) == nil {
		armedSites.Add(1)
	}
}

// Disarm removes the site's rule, if any.
func (s *Site) Disarm() {
	if s.rule.Swap(nil) != nil {
		armedSites.Add(-1)
	}
}

// disarmRule removes exactly the given rule (one-shot exhaustion); a
// concurrently installed replacement rule is left alone.
func (s *Site) disarmRule(r *rule) {
	if s.rule.CompareAndSwap(r, nil) {
		armedSites.Add(-1)
	}
}

// DisarmAll clears every site's rule. Chaos tests defer it so schedules
// never leak across tests.
func DisarmAll() {
	for _, s := range Sites() {
		s.Disarm()
	}
}

// ArmedCount returns the number of currently armed sites.
func ArmedCount() int64 { return armedSites.Load() }

// Status is one site's externally visible state, rendered by the HTTP
// handler and List.
type Status struct {
	Site       string `json:"site"`
	Armed      bool   `json:"armed"`
	Action     string `json:"action,omitempty"`
	Hits       int64  `json:"hits"`
	Injections int64  `json:"injections"`
}

// List returns the status of every registered site, sorted by name.
func List() []Status {
	sites := Sites()
	out := make([]Status, 0, len(sites))
	for _, s := range sites {
		st := Status{Site: s.name, Hits: s.hits.Load(), Injections: s.injections.Load()}
		if r := s.rule.Load(); r != nil {
			st.Armed = true
			st.Action = r.String()
		}
		out = append(out, st)
	}
	return out
}

// Apply installs a failpoint schedule: a semicolon-separated list of
// site=action entries (see the package comment for the grammar). It is
// all-or-nothing: on any parse or unknown-site error, no site is
// changed.
func Apply(spec string) error {
	type armEntry struct {
		site *Site
		r    *rule // nil = disarm
	}
	var entries []armEntry
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, action, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("fault: entry %q: want site=action", part)
		}
		name = strings.TrimSpace(name)
		site := Lookup(name)
		if site == nil {
			return fmt.Errorf("fault: unknown site %q (known: %s)", name, strings.Join(knownNames(), ", "))
		}
		action = strings.TrimSpace(action)
		if action == "off" {
			entries = append(entries, armEntry{site: site})
			continue
		}
		r, err := parseRule(action)
		if err != nil {
			return fmt.Errorf("fault: site %q: %w", name, err)
		}
		entries = append(entries, armEntry{site: site, r: r})
	}
	for _, e := range entries {
		if e.r == nil {
			e.site.Disarm()
		} else {
			e.site.arm(e.r)
		}
	}
	return nil
}

func knownNames() []string {
	sites := Sites()
	names := make([]string, len(sites))
	for i, s := range sites {
		names[i] = s.name
	}
	return names
}

// parseRule parses one action: verb[(arg)] with optional *N and %p
// suffixes in either order.
func parseRule(s string) (*rule, error) {
	r := &rule{prob: 1}

	// Suffix modifiers bind after the optional (arg), so scan them off
	// the tail. The arg itself may contain neither '*' nor '%' outside
	// parentheses; inside parentheses they are part of the message.
	body := s
	if i := strings.LastIndexByte(body, ')'); i >= 0 {
		suffix := body[i+1:]
		body = body[:i+1]
		if err := parseModifiers(r, suffix); err != nil {
			return nil, err
		}
	} else {
		// No parenthesized arg: modifiers start at the first '*' or '%'.
		if i := strings.IndexAny(body, "*%"); i >= 0 {
			if err := parseModifiers(r, body[i:]); err != nil {
				return nil, err
			}
			body = body[:i]
		}
	}

	verb, arg := body, ""
	if i := strings.IndexByte(body, '('); i >= 0 {
		if !strings.HasSuffix(body, ")") {
			return nil, fmt.Errorf("unbalanced parentheses in action %q", s)
		}
		verb, arg = body[:i], body[i+1:len(body)-1]
	}
	switch strings.TrimSpace(verb) {
	case "error":
		r.kind = kindError
		r.msg = arg
	case "panic":
		r.kind = kindPanic
		r.msg = arg
	case "sleep":
		d, err := time.ParseDuration(strings.TrimSpace(arg))
		if err != nil {
			return nil, fmt.Errorf("sleep action needs a duration: %w", err)
		}
		if d < 0 {
			return nil, fmt.Errorf("sleep action needs a non-negative duration, got %v", d)
		}
		r.kind = kindSleep
		r.delay = d
	default:
		return nil, fmt.Errorf("unknown action %q (want error, sleep, panic, or off)", verb)
	}
	return r, nil
}

// parseModifiers applies a "*N" and/or "%p" suffix string to r.
func parseModifiers(r *rule, s string) error {
	for s != "" {
		rest := s[1:]
		end := strings.IndexAny(rest, "*%")
		if end < 0 {
			end = len(rest)
		}
		val := strings.TrimSpace(rest[:end])
		switch s[0] {
		case '*':
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("one-shot count %q: want a positive integer", val)
			}
			var c atomic.Int64
			c.Store(n)
			r.remaining = &c
			r.total = n
		case '%':
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p <= 0 || p > 1 {
				return fmt.Errorf("probability %q: want 0 < p <= 1", val)
			}
			r.prob = p
		default:
			return fmt.Errorf("unexpected modifier %q", s)
		}
		s = rest[end:]
	}
	return nil
}
