//go:build race

package tspace

// The race detector shadows every allocation, so allocation counts taken
// under it say nothing about the space itself.
func init() { raceEnabled = true }
