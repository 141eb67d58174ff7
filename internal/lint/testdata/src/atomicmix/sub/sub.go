// Package sub checks the rule in a second package of the fixture.
package sub

import "sync/atomic"

var flag uint32

// bad: an untyped atomic load of a package-level word.
func Ready() bool {
	return atomic.LoadUint32(&flag) == 1 // want "typed atomic"
}

// good: a typed atomic.
var ready atomic.Bool

func Set() { ready.Store(true) }
