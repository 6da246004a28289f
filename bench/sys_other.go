//go:build !linux

package main

// peakRSSMiB is unavailable where ru_maxrss units have not been audited
// (they differ per OS); the record carries 0.
func peakRSSMiB() float64 { return 0 }

// fsType is only resolved on Linux.
func fsType(string) string { return "unknown" }
