package core

import "sync/atomic"

// Mutants — deliberately broken algorithm variants for negative
// controls, in the spirit of rcu.NoSync: a check is only credible if
// disabling the mechanism under test makes it fail. Production code must
// never set a mutant; the switch exists so tests can prove that their
// checks bite.

// Mutant selects an algorithm mutation.
type Mutant uint32

const (
	// MutantNone is the correct algorithm.
	MutantNone Mutant = iota

	// MutantIgnoreTags disables the paper's line-38 tag validation: an
	// insert that found a nil child link validates successfully even if
	// the link was filled and emptied again since the tag was read. That
	// recreates the Figure 5 ABA — a stale insert can link its node
	// under a parent whose key range no longer contains the key,
	// corrupting BST order (TestTagDefeatsABA stages it).
	MutantIgnoreTags
)

// activeMutant is read by validate on its nil-link path (one atomic
// load under the already-held parent lock — off the wait-free read
// path entirely).
var activeMutant atomic.Uint32

// SetMutant installs a mutant process-wide. Callers must restore
// MutantNone when done.
func SetMutant(m Mutant) { activeMutant.Store(uint32(m)) }
