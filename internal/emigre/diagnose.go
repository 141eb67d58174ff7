package emigre

import (
	"context"
	"errors"
	"fmt"
)

// FailureKind classifies why a Why-Not question could not be answered
// in a given mode — the meta-explanations sketched in §6.4 of the
// paper, which suggests presenting them to the user as a remedy for the
// low Remove-mode success rate.
type FailureKind int

const (
	// FailureNone: the question is answerable in the probed mode.
	FailureNone FailureKind = iota
	// FailureColdStart: the user has too few past actions for the mode
	// to work with ("Cold Start And Less Active Users", §6.4).
	FailureColdStart
	// FailureOutOfScope: the probed mode cannot answer, but another
	// mode can ("Out Of Scope Item", §6.4) — the case the Combined mode
	// was added for.
	FailureOutOfScope
	// FailurePopularItem: no mode answers within budget; the displaced
	// recommendation draws its score from other users' actions, beyond
	// this user's counterfactual reach ("Popular Item", §6.4, Figure 7).
	FailurePopularItem
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case FailureNone:
		return "none"
	case FailureColdStart:
		return "cold-start"
	case FailureOutOfScope:
		return "out-of-scope"
	case FailurePopularItem:
		return "popular-item"
	default:
		return fmt.Sprintf("failure(%d)", int(k))
	}
}

// Diagnosis is a meta-explanation for an unanswerable Why-Not question.
type Diagnosis struct {
	Kind FailureKind
	// Actions is the number of past actions available to Remove mode.
	Actions int
	// WorkingMode is set for FailureOutOfScope: a mode that does answer
	// the question.
	WorkingMode Mode
	// PopularInDegree is set for FailurePopularItem: the in-degree of
	// the recommendation that could not be displaced.
	PopularInDegree int
	// Detail is a one-line human-readable summary.
	Detail string
}

// DefaultColdStartThreshold is the action count at or below which a
// failure is attributed to user inactivity.
const DefaultColdStartThreshold = 5

// Diagnose explains why the query has no explanation in the probed
// mode. It returns FailureNone (with a nil error) when the probed mode
// actually answers the question. Probing uses the Exhaustive strategy,
// the most complete one. Query-validation errors (ErrNotWhyNotItem,
// ErrAlreadyTop) are returned unchanged.
func (e *Explainer) Diagnose(q Query, probed Mode) (*Diagnosis, error) {
	return e.DiagnoseContext(context.Background(), q, probed)
}

// DiagnoseContext is Diagnose with cancellation: the probes — each a
// full Exhaustive search — abort with a *CanceledError once ctx is
// done, so a diagnosis is never mis-classified from a half-run probe.
func (e *Explainer) DiagnoseContext(ctx context.Context, q Query, probed Mode) (*Diagnosis, error) {
	// The first probe validates the question: its errors, Definition
	// 4.1's included, are returned unchanged.
	if _, err := e.ExplainWithContext(ctx, q, probed, Exhaustive); err == nil {
		return &Diagnosis{Kind: FailureNone, Detail: "the question is answerable in this mode"}, nil
	} else if !errors.Is(err, ErrNoExplanation) {
		return nil, err
	}
	actions := len(e.g.OutEdgesOfType(q.User, e.opts.AllowedEdgeTypes))
	// Out-of-scope first: if any other mode answers, that is the most
	// actionable meta-explanation regardless of the user's activity.
	for _, other := range []Mode{Remove, Add, Combined, Reweight} {
		if other == probed {
			continue
		}
		_, err := e.ExplainWithContext(ctx, q, other, Exhaustive)
		if err == nil {
			return &Diagnosis{
				Kind:        FailureOutOfScope,
				Actions:     actions,
				WorkingMode: other,
				Detail:      fmt.Sprintf("out of scope for %s mode: %s mode answers it", probed, other),
			}, nil
		}
		if errors.Is(err, ErrCanceled) {
			return nil, err
		}
	}
	if actions <= DefaultColdStartThreshold {
		return &Diagnosis{
			Kind:    FailureColdStart,
			Actions: actions,
			Detail:  fmt.Sprintf("cold start: only %d past actions to work with", actions),
		}, nil
	}
	inDeg := 0
	current, err := e.r.RecommendContext(ctx, q.User)
	if err == nil {
		inDeg = e.g.InDegree(current)
	}
	return &Diagnosis{
		Kind:            FailurePopularItem,
		Actions:         actions,
		PopularInDegree: inDeg,
		Detail: fmt.Sprintf("popular item: the recommendation has %d incoming links powered by other users (Figure 7)",
			inDeg),
	}, nil
}
