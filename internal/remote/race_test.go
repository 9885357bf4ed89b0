//go:build race

package remote

// Under the race detector sync.Pool drops a share of what it is given, so
// allocation counts do not hold.
func init() { raceEnabled = true }
