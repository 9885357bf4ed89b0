//go:build race

package sio

// Under the race detector sync.Pool drops a share of what it is given, so
// a recycled buffer may not come back.
func init() { raceEnabled = true }
