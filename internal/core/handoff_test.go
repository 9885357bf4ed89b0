package core_test

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/testkit"
)

// TestSharedQueueParkHandoff: under a shared-queue manager (GlobalFIFO)
// another VP can dequeue a thread the instant it is enqueued, before the
// thread has handed its old VP back. internal/policy's TestConformance runs
// the same check under every shipped manager.
func TestSharedQueueParkHandoff(t *testing.T) {
	testkit.ParkHandoff(t, policy.GlobalFIFO())
}
