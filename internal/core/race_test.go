//go:build race

package core

// The race detector shadows every allocation, so heap figures taken under
// it say nothing about what the substrate itself keeps.
func init() { raceEnabled = true }
