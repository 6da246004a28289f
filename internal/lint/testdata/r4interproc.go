// Interprocedural R4 fixtures: a Manager escaping into a goroutine
// wrapped in a struct, through a method value, or via a helper whose
// summary captures one — not just as a directly referenced ident.
package fixture

import "cosched/internal/resmgr"

type cell struct {
	mgr  *resmgr.Manager
	rows []string
}

// structArgEscape hands the goroutine a struct that *contains* the
// Manager: same race, one indirection.
func structArgEscape(c cell) {
	go consume(c) // want "R4"
}

func consume(cell) {}

// fieldCapture reaches the Manager through a captured struct pointer.
func fieldCapture(c *cell) {
	go func() { // want "R4"
		c.mgr.RequestIteration()
	}()
}

// helperEscape launches a closure variable whose body captures the
// Manager — the direct ident scan sees only `tick`, the summary sees m.
func helperEscape(m *resmgr.Manager) {
	tick := func() { m.RequestIteration() }
	go tick() // want "R4"
}

// rowsOnly escapes only the serialized rows, never the Manager beside
// them, so no finding.
func rowsOnly(c *cell, out chan<- []string) {
	rows := c.rows
	go func() { out <- rows }()
}
