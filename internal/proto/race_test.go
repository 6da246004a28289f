//go:build race

package proto

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so pooled scratch is reallocated and allocation counts are not
// those of a normal build.
const raceEnabled = true
