// R4 containment fixtures: a Manager escaping into a goroutine as a bare
// argument (the shape of the tree's one R4 finding, coschedd's
// reconcilePeers launch), wrapped in a struct, or through a captured
// struct pointer — not just as a directly referenced ident.
package fixture

import "cosched/internal/resmgr"

type cell struct {
	mgr  *resmgr.Manager
	rows []string
}

// argEscape hands the goroutine the Manager itself.
func argEscape(m *resmgr.Manager) {
	go reconcile(m) // want "R4"
}

func reconcile(*resmgr.Manager) {}

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

// rowsOnly escapes only the serialized rows, never the Manager beside
// them, so no finding.
func rowsOnly(c *cell, out chan<- []string) {
	rows := c.rows
	go func() { out <- rows }()
}
